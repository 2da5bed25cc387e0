"""Fully-connected (inner product) layer — the GEMM at the heart of every
Tonic DNN (Kaldi's acoustic model and all three SENNA networks are stacks of
these, and the classifier layers of every CNN are too).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..initializers import constant, get_filler, xavier
from .base import GemmShape, Layer, ShapeError, register_layer

__all__ = ["InnerProductLayer"]


@register_layer
class InnerProductLayer(Layer):
    """``y = x @ W.T + b`` with ``W`` of shape ``(num_output, fan_in)``.

    Any input shape is accepted and flattened, as in Caffe.
    """

    type_name = "InnerProduct"

    def __init__(
        self,
        name: str,
        num_output: int,
        bias: bool = True,
        weight_filler="xavier",
        bias_filler=None,
    ):
        super().__init__(name)
        if num_output <= 0:
            raise ValueError(f"layer {name!r}: num_output must be positive")
        self.num_output = int(num_output)
        self.bias = bool(bias)
        self._weight_filler = get_filler(weight_filler) if weight_filler else xavier()
        self._bias_filler = get_filler(bias_filler) if bias_filler else constant(0.0)
        self._x_flat = None

    # --------------------------------------------------------------- set-up
    def _infer_shape(self, in_shape):
        self.fan_in = int(math.prod(in_shape))
        return (self.num_output,)

    def _declare_params(self):
        self.weight = self._add_param("weight", (self.num_output, self.fan_in), self._weight_filler)
        if self.bias:
            self.bias_blob = self._add_param("bias", (self.num_output,), self._bias_filler)

    # -------------------------------------------------------------- compute
    def plan_scratch(self, batch):
        if batch < 2:
            return {}
        return {"wx": ((self.num_output, batch), np.dtype(np.float32))}

    def bind(self, x, out, scratch):
        n = x.shape[0]
        w = self.weight.require_data()
        x2 = x.reshape(n, self.fan_in)
        b = self.bias_blob.require_data() if self.bias else None
        if n == 1:
            wt = w.T

            def kernel():
                np.matmul(x2, wt, out=out)
                if b is not None:
                    np.add(out, b, out=out)

            return kernel
        # batched: W·Xᵀ into a (num_output, n) panel, then one transposed
        # copy into out.  X·Wᵀ sits on OpenBLAS's slow path at 2 <= n <= 64
        # (table in docs/execution_engine.md).  The bias is added after the
        # copy: a ufunc over the transposed view would buffer (~64 KB/call)
        wx = scratch["wx"][:, :n]
        xt, wxt = x2.T, wx.T

        def kernel():
            np.matmul(w, xt, out=wx)
            np.copyto(out, wxt)
            if b is not None:
                np.add(out, b, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        self.bind(x, out, scratch)()
        if train:
            self._x_flat = x.reshape(x.shape[0], self.fan_in)
            self._x_shape = x.shape

    def backward(self, dout):
        if self._x_flat is None:
            raise RuntimeError(f"layer {self.name!r}: backward before forward(train=True)")
        if dout.shape != (self._x_flat.shape[0], self.num_output):
            raise ShapeError(f"layer {self.name!r}: bad gradient shape {dout.shape}")
        self.weight.grad += dout.T @ self._x_flat
        if self.bias:
            self.bias_blob.grad += dout.sum(axis=0)
        dx = dout @ self.weight.require_data()
        return dx.reshape(self._x_shape)

    # ------------------------------------------------------ cost accounting
    def flops_per_sample(self) -> int:
        flops = 2 * self.num_output * self.fan_in
        if self.bias:
            flops += self.num_output
        return flops

    def gemm_shapes(self, batch: int) -> List[GemmShape]:
        # C[num_output x batch] = W[num_output x fan_in] @ X[fan_in x batch]
        return [(self.num_output, int(batch), self.fan_in)]
