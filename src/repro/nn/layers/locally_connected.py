"""Locally-connected layer: convolution geometry with *unshared* weights.

DeepFace (the FACE network, Table 1: ~120M parameters in 8 layers) owes its
size to three of these: every output position owns a private filter bank.
Two performance consequences matter for the reproduction and fall straight
out of this structure:

* the parameter count is ``out_h*out_w`` times a same-geometry convolution's,
  so a single forward pass must stream hundreds of megabytes of weights —
  the layer is memory-bandwidth-bound on a GPU, which is why FACE only
  reaches ~40x (vs >100x for the others) in the paper's Figure 10;
* the GEMM decomposes into many small per-position multiplies rather than
  one large one, capping achievable occupancy.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..initializers import constant, get_filler, xavier
from ._im2col import Im2colPlan, col2im
from .base import GemmShape, Layer, ShapeError, register_layer

__all__ = ["LocallyConnectedLayer"]


@register_layer
class LocallyConnectedLayer(Layer):
    """2-D locally-connected layer over (C, H, W) inputs."""

    type_name = "LocallyConnected"

    def __init__(
        self,
        name: str,
        num_output: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
        weight_filler="xavier",
        bias_filler=None,
    ):
        super().__init__(name)
        if num_output <= 0 or kernel_size <= 0 or stride <= 0 or pad < 0:
            raise ValueError(f"layer {name!r}: invalid geometry")
        self.num_output = int(num_output)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.pad = int(pad)
        self.bias = bool(bias)
        self._weight_filler = get_filler(weight_filler) if weight_filler else xavier()
        self._bias_filler = get_filler(bias_filler) if bias_filler else constant(0.0)
        self._cache = None

    # --------------------------------------------------------------- set-up
    def _infer_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"layer {self.name!r} expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        self.in_channels = c
        k = self.kernel_size
        # column-buffer geometry hoisted out of the per-call path
        self._lowering = Im2colPlan(in_shape, k, k, self.stride, self.pad)
        self.out_h = self._lowering.out_h
        self.out_w = self._lowering.out_w
        self.positions = self.out_h * self.out_w
        return (self.num_output, self.out_h, self.out_w)

    def _declare_params(self):
        k = self.kernel_size
        fan_in = self.in_channels * k * k
        self.weight = self._add_param(
            "weight", (self.positions, self.num_output, fan_in), self._weight_filler
        )
        if self.bias:
            self.bias_blob = self._add_param(
                "bias", (self.num_output, self.out_h, self.out_w), self._bias_filler
            )

    # -------------------------------------------------------------- compute
    def plan_scratch(self, batch):
        spec = dict(self._lowering.cols_spec(batch))
        spec.update(self._lowering.pad_spec(batch))
        return spec

    def forward_into(self, x, out, scratch, train=False):
        n = x.shape[0]
        cols, unfold = self._lowering.bind_gather(x, scratch)  # (N, C*k*k, L)
        unfold()
        w = self.weight.require_data()  # (L, O, K)
        out3 = out.reshape(n, self.num_output, self.positions)
        # per-position contraction; optimized einsum allocates planner
        # intermediates (~0.5 MB here) but is ~8x faster than the strict
        # out=-only path — the one tolerated deviation from allocation-free
        # plans, so FACE sits outside the strict zero-alloc CI gate
        np.einsum("lok,nkl->nol", w, cols, out=out3, optimize=True)
        if self.bias:
            np.add(out, self.bias_blob.require_data()[None], out=out)
        if train:
            self._cache = (cols, x.shape)

    def backward(self, dout):
        if self._cache is None:
            raise RuntimeError(f"layer {self.name!r}: backward before forward(train=True)")
        cols, x_shape = self._cache
        n = dout.shape[0]
        k = self.kernel_size
        dout2 = dout.reshape(n, self.num_output, self.positions)
        self.weight.grad += np.einsum("nol,nkl->lok", dout2, cols, optimize=True)
        if self.bias:
            self.bias_blob.grad += dout.sum(axis=0)
        w = self.weight.require_data()
        dcols = np.einsum("lok,nol->nkl", w, dout2, optimize=True)
        return col2im(dcols, x_shape, k, k, self.stride, self.pad)

    # ------------------------------------------------------ cost accounting
    def flops_per_sample(self) -> int:
        k = self.kernel_size
        flops = 2 * self.positions * self.num_output * self.in_channels * k * k
        if self.bias:
            flops += self.num_output * self.positions
        return flops

    def gemm_shapes(self, batch: int) -> List[GemmShape]:
        # One small GEMM per output position: weights are not shared, so the
        # batched lowering cannot merge positions into a single large GEMM.
        k = self.kernel_size
        fan_in = self.in_channels * k * k
        return [(self.num_output, int(batch), fan_in)] * self.positions
