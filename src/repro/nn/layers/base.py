"""Layer protocol for the ``repro.nn`` framework.

Shapes are *batch-free*: a layer is configured with the shape of one sample
(e.g. ``(3, 227, 227)`` for an AlexNet input) and its ``forward``/``backward``
methods operate on arrays with a leading batch dimension.  Keeping the batch
out of the static shape lets the GPU performance model ask a single network
object for its cost at any batch size (`gemm_shapes(batch)`), which is exactly
the sweep the paper's Figure 7 performs.

Execution surface
-----------------
Every layer exposes its forward paths over the *same* kernel:

``bind(x, out, scratch) -> kernel``
    Resolve views, weight reshapes and operands over fixed buffers once and
    return a no-argument inference kernel.  This is what
    :class:`repro.nn.engine.ExecutionPlan` binds per cached batch view over
    its arena, and the kernel must not allocate in steady state.

``forward_into(x, out, scratch, train=False)``
    The destination-passing kernel: write the result into ``out`` using the
    preallocated ``scratch`` buffers declared by :meth:`Layer.plan_scratch`.
    For bound layers this is ``bind(...)()`` plus the train-time cache.

``forward(x, train=False)``
    A thin allocating wrapper: allocate ``out`` and scratch, then call
    ``forward_into``.  Because every path runs the identical kernel, a
    planned forward is byte-identical to the legacy allocating forward.

The wrapper preserves the input's float dtype (float64 in, float64 out) so
numerical gradient checking keeps full precision; plans always run float32.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..tensor import FLOAT_BYTES, Blob

__all__ = ["Layer", "register_layer", "layer_registry", "create_layer", "ShapeError"]

Shape = Tuple[int, ...]
GemmShape = Tuple[int, int, int]  # (M, N, K): C[MxN] += A[MxK] @ B[KxN]


class ShapeError(ValueError):
    """Raised when a layer cannot accept its input shape."""


class Layer:
    """Base class for all layers.

    Lifecycle::

        layer = SomeLayer("name", **params)
        out_shape = layer.setup(in_shape)     # shape inference, declares blobs
        layer.materialize(rng)                # optional: allocate weights
        y = layer.forward(x)                  # x: (batch, *in_shape)
        dx = layer.backward(dy)               # accumulates into blob.grad
    """

    #: Registry key; subclasses set this (e.g. "InnerProduct").
    type_name: str = "Layer"

    #: The layer's inference output *is* its input (identity or a reshape
    #: view).  An execution plan maps the output to the input's buffer and
    #: skips the kernel entirely (Dropout at inference, Flatten).
    plan_alias: bool = False

    #: The kernel may legally write ``out`` over ``x`` (element-wise layers
    #: whose reads never trail their writes).  A plan reuses the input buffer
    #: when the input has no other consumer.
    plan_inplace: bool = False

    def __init__(self, name: str):
        self.name = name
        self.in_shape: Optional[Shape] = None
        self.out_shape: Optional[Shape] = None
        self.params: List[Blob] = []
        self._fillers: List = []

    # --------------------------------------------------------------- set-up
    def setup(self, in_shape: Shape) -> Shape:
        """Infer the output shape and declare parameter blobs."""
        self.in_shape = tuple(int(d) for d in in_shape)
        self.out_shape = self._infer_shape(self.in_shape)
        self._declare_params()
        return self.out_shape

    def _infer_shape(self, in_shape: Shape) -> Shape:
        raise NotImplementedError

    def _declare_params(self) -> None:
        """Subclasses with weights call :meth:`_add_param` here."""

    def _add_param(self, suffix: str, shape: Shape, filler) -> Blob:
        blob = Blob(f"{self.name}.{suffix}", shape)
        self.params.append(blob)
        self._fillers.append(filler)
        return blob

    def materialize(self, rng: np.random.Generator) -> None:
        for blob, filler in zip(self.params, self._fillers):
            blob.materialize(filler, rng)

    # ------------------------------------------------------------- compute
    def plan_scratch(self, batch: int) -> Dict[str, Tuple[Shape, np.dtype]]:
        """Scratch buffers :meth:`forward_into` needs at ``batch``.

        Maps a scratch name to ``(shape, dtype)``.  An execution plan carves
        these from its shared scratch slab; the allocating ``forward`` wrapper
        allocates them fresh per call via :meth:`alloc_scratch`.
        """
        return {}

    def alloc_scratch(self, batch: int, dtype=np.float32) -> Dict[str, np.ndarray]:
        """Allocate the :meth:`plan_scratch` buffers (float entries take
        ``dtype`` so the wrapper can run float64 for gradient checking)."""
        scratch = {}
        for key, (shape, dt) in self.plan_scratch(batch).items():
            dt = np.dtype(dt)
            if dt.kind == "f":
                dt = np.dtype(dtype)
            scratch[key] = np.empty(shape, dtype=dt)
        return scratch

    def bind(self, x: np.ndarray, out: np.ndarray,
             scratch: Dict[str, np.ndarray]) -> Callable[[], None]:
        """Resolve every view and operand for fixed buffers once; return the
        inference kernel, which recomputes ``out`` from ``x``'s current
        contents on each call.

        Layers with a hot kernel override this and define ``forward_into``
        as ``self.bind(x, out, scratch)()`` plus their train-time cache; the
        default binds ``forward_into`` itself.  A bound kernel holds the
        weight arrays it was bound over, so it must be re-bound after a
        ``Blob.data`` rebind (execution plans do, see ``Blob.rebinds``).
        """
        return functools.partial(self.forward_into, x, out, scratch)

    def forward_into(self, x: np.ndarray, out: np.ndarray,
                     scratch: Dict[str, np.ndarray], train: bool = False) -> None:
        """Write ``forward(x)`` into ``out`` using preallocated ``scratch``.

        The default covers layers that only define an allocating ``forward``
        (it copies the result); hot-path layers override this with a
        destination-passing kernel and inherit ``forward`` from the wrapper.
        """
        if type(self).forward is Layer.forward:
            raise NotImplementedError(
                f"{self.type_name} defines neither forward nor forward_into")
        np.copyto(out, self.forward(x, train=train))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Allocating forward: a thin wrapper over :meth:`forward_into`."""
        if type(self).forward_into is Layer.forward_into:
            raise NotImplementedError(
                f"{self.type_name} defines neither forward nor forward_into")
        x = np.asarray(x)
        self._check_input(x)
        dtype = np.result_type(x.dtype, np.float32)
        out = np.empty((x.shape[0],) + tuple(self.out_shape), dtype=dtype)
        self.forward_into(x, out, self.alloc_scratch(x.shape[0], dtype=dtype),
                          train=train)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.type_name} has no backward pass")

    # ------------------------------------------------------ cost accounting
    def flops_per_sample(self) -> int:
        """Forward-pass floating point operations for one sample.

        Multiply-accumulates count as 2 FLOPs, matching how GPU peak rates
        (and the paper's throughput arithmetic) are quoted.
        """
        return 0

    def gemm_shapes(self, batch: int) -> List[GemmShape]:
        """The matrix multiplications a Caffe-style lowering would execute.

        Returns ``[]`` for element-wise layers.  The GPU model derives kernel
        launch counts, occupancy and time from these shapes.
        """
        return []

    def param_count(self) -> int:
        return sum(b.size for b in self.params)

    def param_bytes(self) -> int:
        return sum(b.nbytes for b in self.params)

    def activation_bytes_per_sample(self) -> int:
        """Bytes of input read + output written per sample (float32)."""
        assert self.in_shape is not None and self.out_shape is not None
        n_in = int(np.prod(self.in_shape))
        n_out = int(np.prod(self.out_shape))
        return (n_in + n_out) * FLOAT_BYTES

    # ------------------------------------------------------------- helpers
    def _check_input(self, x: np.ndarray) -> None:
        if self.in_shape is None:
            raise RuntimeError(f"layer {self.name!r} used before setup()")
        if tuple(x.shape[1:]) != self.in_shape:
            raise ShapeError(
                f"layer {self.name!r} expected input of shape "
                f"(batch, {', '.join(map(str, self.in_shape))}), got {x.shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.type_name}({self.name!r}, in={self.in_shape}, "
            f"out={self.out_shape}, params={self.param_count()})"
        )


# ---------------------------------------------------------------------------
# Layer registry: maps spec type names ("Convolution") to classes, so network
# specs stay declarative the way prototxt files are.
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Layer]] = {}


def register_layer(cls: Type[Layer]) -> Type[Layer]:
    """Class decorator registering ``cls`` under ``cls.type_name``."""
    key = cls.type_name
    if key in _REGISTRY:
        raise ValueError(f"duplicate layer type {key!r}")
    _REGISTRY[key] = cls
    return cls


def layer_registry() -> Dict[str, Type[Layer]]:
    return dict(_REGISTRY)


def create_layer(type_name: str, name: str, **params) -> Layer:
    try:
        cls = _REGISTRY[type_name]
    except KeyError:
        raise ValueError(
            f"unknown layer type {type_name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(name, **params)
