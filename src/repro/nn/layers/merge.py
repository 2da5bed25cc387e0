"""Multi-input merge layers: Concat and element-wise Sum.

These only make sense in a :class:`~repro.nn.netspec.GraphSpec` DAG (a
chain has nothing to merge); their ``setup``/``forward``/``backward``
operate on *lists* of shapes/arrays.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .base import Layer, ShapeError, register_layer

__all__ = ["ConcatLayer", "EltwiseSumLayer"]

Shape = Tuple[int, ...]


class MultiInputLayer(Layer):
    """Base for layers taking several bottoms.  ``setup`` gets a shape list."""

    multi_input = True

    def setup(self, in_shapes: Sequence[Shape]) -> Shape:  # type: ignore[override]
        if not in_shapes:
            raise ShapeError(f"layer {self.name!r} needs at least one input")
        self.in_shapes = [tuple(int(d) for d in s) for s in in_shapes]
        self.in_shape = self.in_shapes[0]  # for base-class bookkeeping
        self.out_shape = self._infer_multi(self.in_shapes)
        self._declare_params()
        return self.out_shape

    def _infer_multi(self, in_shapes: List[Shape]) -> Shape:
        raise NotImplementedError

    def forward(self, xs: List[np.ndarray], train: bool = False) -> np.ndarray:
        """Allocating wrapper over :meth:`forward_into` (list-input form)."""
        xs = [np.asarray(x) for x in xs]
        n = xs[0].shape[0]
        dtype = np.result_type(np.float32, *[x.dtype for x in xs])
        out = np.empty((n,) + tuple(self.out_shape), dtype=dtype)
        self.forward_into(xs, out, self.alloc_scratch(n, dtype=dtype), train=train)
        return out

    def activation_bytes_per_sample(self) -> int:
        n_in = sum(int(np.prod(s)) for s in self.in_shapes)
        n_out = int(np.prod(self.out_shape))
        return (n_in + n_out) * 4


@register_layer
class ConcatLayer(MultiInputLayer):
    """Concatenate bottoms along the first sample dimension (channels for
    CHW inputs, features for vectors) — Caffe's ``Concat`` with axis=1.
    """

    type_name = "Concat"

    def _infer_multi(self, in_shapes):
        first = in_shapes[0]
        for shape in in_shapes[1:]:
            if len(shape) != len(first) or shape[1:] != first[1:]:
                raise ShapeError(
                    f"layer {self.name!r}: cannot concat {in_shapes} along axis 0"
                )
        self._starts = [0]
        for shape in in_shapes:
            self._starts.append(self._starts[-1] + shape[0])
        return (sum(s[0] for s in in_shapes),) + first[1:]

    def forward_into(self, xs: List[np.ndarray], out, scratch, train=False):
        if len(xs) != len(self.in_shapes):
            raise ShapeError(f"layer {self.name!r} expects {len(self.in_shapes)} inputs")
        for x, a, b in zip(xs, self._starts, self._starts[1:]):
            np.copyto(out[:, a:b], x)

    def backward(self, dout: np.ndarray) -> List[np.ndarray]:
        # split points are static (the declared bottom shapes), so inference
        # passes stay stateless
        splits = np.cumsum([s[0] for s in self.in_shapes])[:-1]
        return list(np.split(dout, splits, axis=1))

    def flops_per_sample(self) -> int:
        return 0  # a copy


@register_layer
class EltwiseSumLayer(MultiInputLayer):
    """Element-wise sum of same-shaped bottoms (Caffe's ``Eltwise`` SUM)."""

    type_name = "EltwiseSum"

    def _infer_multi(self, in_shapes):
        first = in_shapes[0]
        if any(shape != first for shape in in_shapes[1:]):
            raise ShapeError(f"layer {self.name!r}: eltwise inputs differ: {in_shapes}")
        return first

    def forward_into(self, xs: List[np.ndarray], out, scratch, train=False):
        if len(xs) != len(self.in_shapes):
            raise ShapeError(f"layer {self.name!r} expects {len(self.in_shapes)} inputs")
        np.copyto(out, xs[0])
        for x in xs[1:]:
            np.add(out, x, out=out)

    def backward(self, dout: np.ndarray) -> List[np.ndarray]:
        return [dout] * len(self.in_shapes)

    def flops_per_sample(self) -> int:
        return (len(self.in_shapes) - 1) * int(np.prod(self.out_shape))
