"""Net: an executable feed-forward network built from a spec.

A :class:`~repro.nn.netspec.NetSpec` chain and a
:class:`~repro.nn.netspec.GraphSpec` DAG lower to the same wiring — each
layer's named bottoms plus one output top — so one class executes both:
topological forward, gradient fan-in on the backward pass.  All seven Tonic
networks are chains; application-level composition (e.g. CHK invoking POS
first, §3.2.3 of the paper) happens in :mod:`repro.tonic`, matching the
paper's structure.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from .layers.base import Layer, ShapeError
from .layers.merge import MultiInputLayer
from .netspec import INPUT, GraphSpec, NetSpec
from .tensor import Blob

__all__ = ["Net", "weight_digest"]


def weight_digest(net) -> str:
    """SHA-256 over every weight byte of a Net, in layer order."""
    digest = hashlib.sha256()
    for blob in net.params():
        digest.update(np.ascontiguousarray(blob.require_data()).tobytes())
    return digest.hexdigest()


class Net:
    """An instantiated network.

    Construction performs full shape inference but allocates **no** weights;
    call :meth:`materialize` before :meth:`forward`.  The shape-only form is
    what the GPU performance model consumes, so 120M-parameter networks can
    be costed without half a gigabyte of allocation.
    """

    def __init__(self, spec: Union[NetSpec, GraphSpec]):
        self.spec = spec
        self.layers: List[Layer] = spec.build_layers()
        #: the tops each layer consumes, and the top the net returns
        self.bottoms: Tuple[Tuple[str, ...], ...] = spec.bottoms
        self.output: str = spec.output
        shapes: Dict[str, Tuple[int, ...]] = {INPUT: spec.input_shape}
        for layer, bottoms in zip(self.layers, self.bottoms):
            in_shapes = [shapes[b] for b in bottoms]
            try:
                if isinstance(layer, MultiInputLayer):
                    shapes[layer.name] = layer.setup(in_shapes)
                elif len(in_shapes) != 1:
                    raise ShapeError(
                        f"{layer.type_name} takes one bottom, got {len(in_shapes)}")
                else:
                    shapes[layer.name] = layer.setup(in_shapes[0])
            except (ShapeError, ValueError) as exc:
                raise ShapeError(f"net {spec.name!r}, layer {layer.name!r}: {exc}") from exc
        self.output_shape = shapes[self.output]
        # each top is dropped after its last reader (or, unread, after its
        # producer), so an inference forward holds only live activations
        last_read = {layer.name: i for i, layer in enumerate(self.layers)}
        for i, bottoms in enumerate(self.bottoms):
            last_read.update((b, i) for b in bottoms)
        del last_read[self.output]
        self._steps = tuple(
            (layer, bottoms, isinstance(layer, MultiInputLayer),
             tuple(name for name, last in last_read.items() if last == i))
            for i, (layer, bottoms) in enumerate(zip(self.layers, self.bottoms))
        )
        self._materialized = False

    # ----------------------------------------------------------- properties
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return self.spec.input_shape

    @property
    def materialized(self) -> bool:
        return self._materialized

    def params(self) -> List[Blob]:
        return [blob for layer in self.layers for blob in layer.params]

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    def param_bytes(self) -> int:
        return sum(layer.param_bytes() for layer in self.layers)

    def flops_per_sample(self) -> int:
        return sum(layer.flops_per_sample() for layer in self.layers)

    # -------------------------------------------------------------- weights
    def materialize(self, seed: int = 0) -> "Net":
        """Allocate and fill all weights deterministically from ``seed``."""
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            layer.materialize(rng)
        self._materialized = True
        return self

    def zero_grad(self) -> None:
        for blob in self.params():
            blob.zero_grad()

    def copy_weights_from(self, other: "Net") -> None:
        """Share ``other``'s weight arrays (no copy) and mark this net
        materialized.

        The hand-off from training to serving: train a net whose last layer
        emits logits, then serve the same arrays from a softmax-capped net
        of the same weighted layers.
        """
        mine, theirs = self.params(), other.params()
        if len(mine) != len(theirs):
            raise ValueError(
                f"cannot share weights: {self.name!r} has {len(mine)} blobs, "
                f"{other.name!r} has {len(theirs)}"
            )
        for dst, src in zip(mine, theirs):
            if dst.shape != src.shape:
                raise ValueError(
                    f"blob shape mismatch {dst.name}: {dst.shape} vs {src.shape}"
                )
            dst.data = src.require_data()
            dst.grad = np.zeros(dst.shape, dtype=np.float32)
        self._materialized = True

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray, train: bool = False, timer=None) -> np.ndarray:
        """Run the forward pass on a batch ``x`` of shape (N, *input_shape).

        ``timer`` is an optional per-layer profiling hook (duck-typed to
        :class:`repro.obs.LayerTimer`): ``timer.begin(layer)`` /
        ``timer.end(layer)`` bracket each layer, yielding the paper's
        Fig-4-style breakdown.  ``timer=None`` (the default) costs nothing.
        """
        if not self._materialized:
            raise RuntimeError(f"net {self.name!r} is not materialized")
        x = np.asarray(x, dtype=np.float32)
        # a single sample gets a batch axis; once only the dict holds the
        # input, a converted copy is freed after its last reader
        tops = {INPUT: x[None] if x.ndim == len(self.input_shape) else x}
        del x
        for layer, bottoms, multi, release in self._steps:
            xs = [tops[b] for b in bottoms] if multi else tops[bottoms[0]]
            if timer is not None:
                timer.begin(layer)
            tops[layer.name] = layer.forward(xs, train=train)
            if timer is not None:
                timer.end(layer)
            for name in release:
                del tops[name]
        return tops[self.output]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backpropagate from the output; accumulates parameter gradients
        and returns d(input).

        Gradients fan in: a top consumed by several layers receives the sum
        of its consumers' input-gradients.
        """
        grads = {self.output: dout}
        for layer, bottoms, multi, _ in reversed(self._steps):
            grad = grads.pop(layer.name, None)
            if grad is None:
                continue  # dead branch: nothing downstream consumed it
            dx = layer.backward(grad)
            for bottom, d in zip(bottoms, dx if multi else (dx,)):
                grads[bottom] = grads[bottom] + d if bottom in grads else d
        return grads[INPUT]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class indices (argmax over the final dimension) for a batch."""
        return np.argmax(self.forward(x), axis=-1)

    # -------------------------------------------------------------- reports
    def summary(self) -> str:
        """Human-readable per-layer table (shapes, params, MFLOPs)."""
        rows = [f"{self.name}: input {self.input_shape}"]
        header = f"{'layer':24s} {'type':18s} {'output':>20s} {'params':>12s} {'MFLOP':>10s}"
        rows.append(header)
        rows.append("-" * len(header))
        for layer in self.layers:
            rows.append(
                f"{layer.name:24s} {layer.type_name:18s} "
                f"{str(layer.out_shape):>20s} {layer.param_count():>12,d} "
                f"{layer.flops_per_sample() / 1e6:>10.2f}"
            )
        rows.append(
            f"{'total':24s} {'':18s} {'':>20s} {self.param_count():>12,d} "
            f"{self.flops_per_sample() / 1e6:>10.2f}"
        )
        return "\n".join(rows)

    def __iter__(self) -> Iterable[Layer]:
        return iter(self.layers)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Net({self.name!r}, layers={len(self.layers)}, params={self.param_count():,d})"
