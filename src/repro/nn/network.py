"""Net: an executable feed-forward network built from a :class:`NetSpec`.

All seven Tonic networks are layer chains, so the network is a sequence;
application-level composition (e.g. CHK invoking POS first, §3.2.3 of the
paper) happens in :mod:`repro.tonic`, matching the paper's structure.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .layers.base import Layer, ShapeError
from .netspec import NetSpec
from .tensor import Blob

__all__ = ["Net", "weight_digest"]


def weight_digest(net) -> str:
    """SHA-256 over every weight byte of a Net or GraphNet, in layer order."""
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

    def __init__(self, spec: NetSpec):
        self.spec = spec
        self.layers: List[Layer] = spec.build_layers()
        shape: Tuple[int, ...] = spec.input_shape
        for layer in self.layers:
            try:
                shape = layer.setup(shape)
            except (ShapeError, ValueError) as exc:
                raise ShapeError(f"net {spec.name!r}, layer {layer.name!r}: {exc}") from exc
        self.output_shape = shape
        self._materialized = False
        self._plan = None

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

    @property
    def plan(self):
        """The attached :class:`repro.nn.engine.ExecutionPlan`, if any."""
        return self._plan

    def compile_plan(self, max_batch: int):
        """Compile and attach an arena-backed plan for batches up to
        ``max_batch``; subsequent inference ``forward`` calls within the
        envelope execute through it (same kernels, zero steady-state
        allocation).  Returns the plan."""
        from .engine import ExecutionPlan

        self._plan = ExecutionPlan(self, max_batch)
        return self._plan

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
        """Share weight arrays with ``other`` (read-only model sharing).

        This is how the DjiNN registry gives every worker thread access to a
        single in-memory copy of each model (§3.1 "Request Processing").
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
        Fig-4-style breakdown.  ``timer=None`` (the default) runs the
        original loop — disabled profiling costs nothing.
        """
        if not self._materialized:
            raise RuntimeError(f"net {self.name!r} is not materialized")
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == len(self.input_shape):  # single sample convenience
            x = x[None]
        # inference within the plan envelope executes through the arena;
        # training and oversize batches fall back to the allocating loop
        if self._plan is not None and not train and x.shape[0] <= self._plan.max_batch:
            return self._plan.run(x, timer=timer)
        if timer is None:
            for layer in self.layers:
                x = layer.forward(x, train=train)
        else:
            for layer in self.layers:
                timer.begin(layer)
                x = layer.forward(x, train=train)
                timer.end(layer)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backpropagate; accumulates parameter gradients, returns d(input)."""
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

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
