"""Max and average pooling (the downsampling stages of the CNN pipelines)."""

from __future__ import annotations

import numpy as np

from ._im2col import Im2colPlan
from .base import Layer, ShapeError, register_layer

__all__ = ["PoolingLayer"]


@register_layer
class PoolingLayer(Layer):
    """Spatial pooling over (C, H, W) inputs.

    ``mode`` is ``"max"`` or ``"ave"`` (Caffe's naming).  Caffe-style *ceil*
    output sizing is not used; windows must tile the (padded) input exactly
    or hang off the end harmlessly via implicit -inf/0 padding.
    """

    type_name = "Pooling"

    def __init__(self, name: str, kernel_size: int, stride: int = None, pad: int = 0, mode: str = "max"):
        super().__init__(name)
        if mode not in ("max", "ave"):
            raise ValueError(f"layer {name!r}: mode must be 'max' or 'ave', got {mode!r}")
        if kernel_size <= 0 or pad < 0:
            raise ValueError(f"layer {name!r}: invalid pooling geometry")
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else int(kernel_size)
        self.pad = int(pad)
        self.mode = mode
        self._cache = None

    def _infer_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"layer {self.name!r} expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        k = self.kernel_size
        # window geometry hoisted out of the per-call path
        self._lowering = Im2colPlan(in_shape, k, k, self.stride, self.pad)
        self.out_h = self._lowering.out_h
        self.out_w = self._lowering.out_w
        return (c, self.out_h, self.out_w)

    @property
    def _pad_fill(self) -> float:
        return -np.inf if self.mode == "max" else 0.0

    def plan_scratch(self, batch):
        return dict(self._lowering.pad_spec(batch))

    def bind(self, x, out, scratch):
        src, refill = self._lowering.bind_padded(x, scratch, fill=self._pad_fill)
        k, s = self.kernel_size, self.stride
        oh, ow = self.out_h, self.out_w
        # accumulate k*k shifted strided slices elementwise instead of a
        # 6-D windowed reduction: each slice walks the image in memory
        # order, which is several times faster on the large early layers
        first, *rest = [src[:, :, i : i + s * oh : s, j : j + s * ow : s]
                        for i in range(k) for j in range(k)]
        op = np.maximum if self.mode == "max" else np.add
        area = k * k if self.mode == "ave" else None

        def kernel():
            if refill is not None:
                refill()
            np.copyto(out, first)
            for window in rest:
                op(out, window, out=out)
            if area is not None:
                np.divide(out, area, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        self.bind(x, out, scratch)()
        if train:
            if self.mode == "max":
                src = self._lowering.source(x, scratch)
                win = self._lowering.pool_windows(src)  # (N, C, oh, ow, k, k)
                flat = win.reshape(*win.shape[:4], -1)
                idx = flat.argmax(axis=-1)
            else:
                idx = None
            self._cache = (idx, x.shape)

    def backward(self, dout):
        if self._cache is None:
            raise RuntimeError(f"layer {self.name!r}: backward before forward(train=True)")
        idx, x_shape = self._cache
        k, s, p = self.kernel_size, self.stride, self.pad
        n, c, h, w = x_shape
        hp, wp = h + 2 * p, w + 2 * p
        dxp = np.zeros((n, c, hp, wp), dtype=dout.dtype)
        oh, ow = self.out_h, self.out_w
        if self.mode == "max":
            ki, kj = np.divmod(idx, k)  # (n, c, oh, ow)
            base_i = np.arange(oh)[None, None, :, None] * s
            base_j = np.arange(ow)[None, None, None, :] * s
            rows = (base_i + ki).ravel()
            cols = (base_j + kj).ravel()
            nn, cc = np.meshgrid(np.arange(n), np.arange(c), indexing="ij")
            nn = np.broadcast_to(nn[..., None, None], idx.shape).ravel()
            cc = np.broadcast_to(cc[..., None, None], idx.shape).ravel()
            np.add.at(dxp, (nn, cc, rows, cols), dout.ravel())
        else:
            share = dout / (k * k)
            for i in range(k):
                for j in range(k):
                    dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += share
        if p:
            return dxp[:, :, p : p + h, p : p + w]
        return dxp

    def flops_per_sample(self) -> int:
        # one compare/add per window element
        assert self.out_shape is not None
        c = self.out_shape[0]
        return c * self.out_h * self.out_w * self.kernel_size * self.kernel_size
