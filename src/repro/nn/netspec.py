"""Declarative network specifications — the prototxt analogue.

Two formats describe a feed-forward network:

* a :class:`NetSpec` is a chain: an input shape plus an ordered list of
  :class:`LayerSpec` entries, each consuming the previous layer's top;
* a :class:`GraphSpec` is a DAG: each :class:`GraphLayerSpec` names the
  tops it consumes (:data:`INPUT` is the network input), and ``output``
  names the top the network returns.

Both expose the same wiring — ``bottoms`` per layer and one ``output`` — so
:class:`repro.nn.network.Net` executes either, and both pass one
validation.  Model factories in :mod:`repro.models` produce chains; the
DjiNN model registry ships either format to the service; and
:mod:`repro.gpusim` costs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .layers.base import create_layer, layer_registry

__all__ = ["INPUT", "LayerSpec", "NetSpec", "GraphLayerSpec", "GraphSpec"]

#: The reserved top name of the network input; no layer may take it.
INPUT = "input"


class _Spec:
    """What both formats share: normalization, validation, layer building.

    Subclasses are frozen dataclasses with ``name``, ``input_shape`` and
    ``layers`` fields, and provide ``bottoms`` and ``output``.
    """

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise ValueError(f"net {self.name!r} has no layers")
        if any(d <= 0 for d in self.input_shape):
            raise ValueError(f"net {self.name!r}: bad input shape {self.input_shape}")
        defined = {INPUT}
        for spec, bottoms in zip(self.layers, self.bottoms):
            if spec.type not in layer_registry():
                raise ValueError(
                    f"layer {spec.name!r}: unknown type {spec.type!r}; "
                    f"known: {sorted(layer_registry())}"
                )
            if not spec.name:
                raise ValueError("layer name must be non-empty")
            if spec.name == INPUT:
                raise ValueError(
                    f"net {self.name!r}: invalid layer name {INPUT!r} "
                    "(reserved for the network input)")
            if spec.name in defined:
                raise ValueError(f"net {self.name!r}: duplicate layer name {spec.name!r}")
            if not bottoms:
                raise ValueError(f"layer {spec.name!r} consumes nothing")
            missing = [b for b in bottoms if b not in defined]
            if missing:
                raise ValueError(
                    f"net {self.name!r}: layer {spec.name!r} consumes "
                    f"undefined top(s) {missing} — layers must be listed in "
                    "topological order"
                )
            defined.add(spec.name)
        if self.output not in defined or self.output == INPUT:
            raise ValueError(f"net {self.name!r}: output {self.output!r} is not a layer top")

    def build_layers(self) -> List:
        """Instantiate (but do not set up) the layer objects."""
        return [create_layer(s.type, s.name, **s.params) for s in self.layers]

    @property
    def depth(self) -> int:
        """Layer count as the paper's Table 1 counts layers (all stages)."""
        return len(self.layers)


@dataclass(frozen=True)
class LayerSpec:
    """One chain layer: a registered type name, a unique name, and its parameters."""

    type: str
    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.type, "name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "LayerSpec":
        return cls(type=d["type"], name=d["name"], params=dict(d.get("params", {})))


@dataclass(frozen=True)
class NetSpec(_Spec):
    """A chain network: name, per-sample input shape, ordered layers."""

    name: str
    input_shape: Tuple[int, ...]
    layers: Tuple[LayerSpec, ...]

    @property
    def bottoms(self) -> Tuple[Tuple[str, ...], ...]:
        """Each layer consumes the previous layer's top (the first, the input)."""
        return tuple((prev,) for prev in (INPUT, *(s.name for s in self.layers[:-1])))

    @property
    def output(self) -> str:
        return self.layers[-1].name

    def without(self, *types: str) -> "NetSpec":
        """A copy with all layers of the given types removed.

        Used by the trainer to strip the inference-time Softmax when the
        fused softmax-cross-entropy loss is applied instead.
        """
        kept = tuple(s for s in self.layers if s.type not in types)
        return NetSpec(name=self.name, input_shape=self.input_shape, layers=kept)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "layers": [s.to_dict() for s in self.layers],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "NetSpec":
        return cls(
            name=d["name"],
            input_shape=tuple(d["input_shape"]),
            layers=tuple(LayerSpec.from_dict(s) for s in d["layers"]),
        )


@dataclass(frozen=True)
class GraphLayerSpec:
    """One DAG node: a layer plus the named tops it consumes."""

    type: str
    name: str
    bottoms: Tuple[str, ...]
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GraphSpec(_Spec):
    """A DAG network: one input, topologically ordered layers, one output."""

    name: str
    input_shape: Tuple[int, ...]
    layers: Tuple[GraphLayerSpec, ...]
    output: str  # name of the layer whose top is the network output

    @property
    def bottoms(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(tuple(s.bottoms) for s in self.layers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "graph",
            "name": self.name,
            "input_shape": list(self.input_shape),
            "output": self.output,
            "layers": [
                {"type": s.type, "name": s.name, "bottoms": list(s.bottoms),
                 "params": dict(s.params)}
                for s in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "GraphSpec":
        return cls(
            name=d["name"],
            input_shape=tuple(d["input_shape"]),
            layers=tuple(
                GraphLayerSpec(type=s["type"], name=s["name"],
                               bottoms=tuple(s["bottoms"]),
                               params=dict(s.get("params", {})))
                for s in d["layers"]
            ),
            output=d["output"],
        )
