"""Element-wise activation layers: ReLU (AlexNet/LeNet/DeepFace), Sigmoid
(Kaldi's acoustic model), Tanh, and HardTanh (SENNA's nonlinearity).
"""

from __future__ import annotations

import numpy as np

from .base import Layer, register_layer

__all__ = ["ReLULayer", "SigmoidLayer", "TanhLayer", "HardTanhLayer"]


class _Activation(Layer):
    """Shared plumbing: shape-preserving, stateless except the train cache."""

    def __init__(self, name: str):
        super().__init__(name)
        self._cache = None

    def _infer_shape(self, in_shape):
        return in_shape

    def flops_per_sample(self) -> int:
        assert self.in_shape is not None
        return int(np.prod(self.in_shape))

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(f"layer {self.name!r}: backward before forward(train=True)")
        return self._cache


@register_layer
class ReLULayer(_Activation):
    type_name = "ReLU"
    plan_inplace = True

    def bind(self, x, out, scratch):
        def kernel():
            np.maximum(x, 0.0, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        if train:
            self._cache = x > 0
        self.bind(x, out, scratch)()

    def backward(self, dout):
        mask = self._require_cache()
        return dout * mask


@register_layer
class SigmoidLayer(_Activation):
    type_name = "Sigmoid"
    plan_inplace = True

    def plan_scratch(self, batch):
        shape = (batch,) + self.in_shape
        return {
            "t": (shape, np.dtype(np.float32)),
            "pos": (shape, np.dtype(np.bool_)),
            "neg": (shape, np.dtype(np.bool_)),
        }

    def bind(self, x, out, scratch):
        # numerically stable logistic, branch-selected with where= masks so
        # the kernel stays allocation-free and safe for out-is-x execution
        n = x.shape[0]
        t = scratch["t"][:n]
        pos = scratch["pos"][:n]
        neg = scratch["neg"][:n]

        def kernel():
            np.greater_equal(x, 0.0, out=pos)
            np.logical_not(pos, out=neg)
            # x >= 0: 1 / (1 + exp(-x))
            np.negative(x, out=t, where=pos)
            np.exp(t, out=t, where=pos)
            np.add(t, 1.0, out=t, where=pos)
            np.reciprocal(t, out=t, where=pos)
            # x < 0: e / (1 + e) with e = exp(x)
            np.exp(x, out=out, where=neg)
            np.add(out, 1.0, out=t, where=neg)
            np.divide(out, t, out=t, where=neg)
            np.copyto(out, t)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        self.bind(x, out, scratch)()
        if train:
            self._cache = out

    def backward(self, dout):
        y = self._require_cache()
        return dout * y * (1.0 - y)


@register_layer
class TanhLayer(_Activation):
    type_name = "Tanh"
    plan_inplace = True

    def bind(self, x, out, scratch):
        def kernel():
            np.tanh(x, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        self.bind(x, out, scratch)()
        if train:
            self._cache = out

    def backward(self, dout):
        y = self._require_cache()
        return dout * (1.0 - y * y)


@register_layer
class HardTanhLayer(_Activation):
    """SENNA's clipped-linear nonlinearity: clamp(x, -1, 1)."""

    type_name = "HardTanh"
    plan_inplace = True

    def bind(self, x, out, scratch):
        def kernel():
            np.clip(x, -1.0, 1.0, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        if train:
            self._cache = (x > -1.0) & (x < 1.0)
        self.bind(x, out, scratch)()

    def backward(self, dout):
        mask = self._require_cache()
        return dout * mask
