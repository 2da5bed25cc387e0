"""Softmax classifier layer (the final layer of every Tonic network) and the
fused softmax + cross-entropy loss used for training.
"""

from __future__ import annotations

import numpy as np

from .base import Layer, ShapeError, register_layer

__all__ = ["SoftmaxLayer", "softmax", "softmax_cross_entropy"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient w.r.t. ``logits``.

    ``labels`` are integer class indices of shape ``(batch,)``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"expected (batch, classes) logits, got {logits.shape}")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    probs = softmax(logits, axis=1)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype, copy=False)


@register_layer
class SoftmaxLayer(Layer):
    """Inference-time softmax over the last dimension.

    During training the fused :func:`softmax_cross_entropy` replaces this
    layer (its backward through a bare softmax is rarely wanted), so
    ``backward`` here propagates the exact softmax Jacobian for completeness.
    """

    type_name = "Softmax"
    plan_inplace = True

    def __init__(self, name: str):
        super().__init__(name)
        self._cache = None

    def _infer_shape(self, in_shape):
        return in_shape

    def plan_scratch(self, batch):
        # one reduction slot per row, reused for the max and the sum
        shape = (batch,) + self.in_shape[:-1] + (1,)
        return {"mx": (shape, np.dtype(np.float32))}

    def bind(self, x, out, scratch):
        mx = scratch["mx"][: x.shape[0]]

        def kernel():
            np.max(x, axis=-1, keepdims=True, out=mx)
            np.subtract(x, mx, out=out)
            np.exp(out, out=out)
            np.sum(out, axis=-1, keepdims=True, out=mx)
            np.divide(out, mx, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        self.bind(x, out, scratch)()
        if train:
            self._cache = out

    def backward(self, dout):
        if self._cache is None:
            raise RuntimeError(f"layer {self.name!r}: backward before forward(train=True)")
        y = self._cache
        inner = (dout * y).sum(axis=-1, keepdims=True)
        return y * (dout - inner)

    def flops_per_sample(self) -> int:
        assert self.in_shape is not None
        return 3 * int(np.prod(self.in_shape))  # exp, sum, divide
