"""GEMM-lowered convolution with group support (AlexNet's conv2/4/5 are
grouped).  Forward and backward are implemented via im2col/col2im, exactly
the lowering Caffe uses and the one the paper's GPU kernels execute.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..initializers import constant, get_filler, xavier
from ._im2col import Im2colPlan, col2im
from .base import GemmShape, Layer, ShapeError, register_layer

__all__ = ["ConvolutionLayer"]


@register_layer
class ConvolutionLayer(Layer):
    """2-D convolution over (C, H, W) inputs.

    Parameters mirror Caffe's ``ConvolutionParameter``: ``num_output``,
    ``kernel_size``, ``stride``, ``pad``, ``group``.
    """

    type_name = "Convolution"

    def __init__(
        self,
        name: str,
        num_output: int,
        kernel_size: int,
        stride: int = 1,
        pad: int = 0,
        group: int = 1,
        bias: bool = True,
        weight_filler="xavier",
        bias_filler=None,
    ):
        super().__init__(name)
        if num_output <= 0 or kernel_size <= 0 or stride <= 0 or pad < 0 or group <= 0:
            raise ValueError(f"layer {name!r}: invalid convolution geometry")
        if num_output % group:
            raise ValueError(f"layer {name!r}: num_output {num_output} not divisible by group {group}")
        self.num_output = int(num_output)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.pad = int(pad)
        self.group = int(group)
        self.bias = bool(bias)
        self._weight_filler = get_filler(weight_filler) if weight_filler else xavier()
        self._bias_filler = get_filler(bias_filler) if bias_filler else constant(0.0)
        self._cache = None

    # --------------------------------------------------------------- set-up
    def _infer_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"layer {self.name!r} expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        if c % self.group:
            raise ShapeError(f"layer {self.name!r}: {c} channels not divisible by group {self.group}")
        self.in_channels = c
        k = self.kernel_size
        # column-buffer geometry hoisted out of the per-call path
        self._lowering = Im2colPlan(in_shape, k, k, self.stride, self.pad)
        self.out_h = self._lowering.out_h
        self.out_w = self._lowering.out_w
        return (self.num_output, self.out_h, self.out_w)

    def _declare_params(self):
        k = self.kernel_size
        cin_g = self.in_channels // self.group
        self.weight = self._add_param("weight", (self.num_output, cin_g, k, k), self._weight_filler)
        if self.bias:
            self.bias_blob = self._add_param("bias", (self.num_output,), self._bias_filler)

    # -------------------------------------------------------------- compute
    def plan_scratch(self, batch):
        spec = dict(self._lowering.cols_spec(batch))
        spec.update(self._lowering.pad_spec(batch))
        return spec

    def bind(self, x, out, scratch):
        n = x.shape[0]
        g = self.group
        k = self.kernel_size
        fan_in_g = self.in_channels // g * k * k
        cout_g = self.num_output // g
        length = self._lowering.length
        cols, unfold = self._lowering.bind_gather(x, scratch)  # (N, C*k*k, L)
        w = self.weight.require_data().reshape(g, cout_g, fan_in_g)
        if n == 1:
            # 2-D operands: one plain GEMM per group, no stacked-loop set-up
            cols_g = cols.reshape(g, fan_in_g, length)
            out_g = out.reshape(g, cout_g, length)
        else:
            # (cout_g, K) @ (N, K, L) -> (N, cout_g, L) per group
            cols_g = cols.reshape(n, g, fan_in_g, length).swapaxes(0, 1)
            out_g = out.reshape(n, g, cout_g, length).swapaxes(0, 1)
        gemms = tuple(zip(w, cols_g, out_g))
        bias = (self.bias_blob.require_data().reshape(1, -1, 1, 1)
                if self.bias else None)

        def kernel():
            unfold()
            for w_g, cols_gi, out_gi in gemms:
                np.matmul(w_g, cols_gi, out=out_gi)
            if bias is not None:
                np.add(out, bias, out=out)

        return kernel

    def forward_into(self, x, out, scratch, train=False):
        self.bind(x, out, scratch)()
        if train:
            self._cache = (scratch["cols"][: x.shape[0]], x.shape)

    def backward(self, dout):
        if self._cache is None:
            raise RuntimeError(f"layer {self.name!r}: backward before forward(train=True)")
        cols, x_shape = self._cache
        n = dout.shape[0]
        g = self.group
        k = self.kernel_size
        cin_g = self.in_channels // g
        cout_g = self.num_output // g
        length = self.out_h * self.out_w
        cols_g = cols.reshape(n, g, cin_g * k * k, length)
        dout_g = dout.reshape(n, g, cout_g, length)
        dw = np.einsum("ngol,ngkl->gok", dout_g, cols_g, optimize=True)
        self.weight.grad += dw.reshape(self.weight.shape)
        if self.bias:
            self.bias_blob.grad += dout.sum(axis=(0, 2, 3))
        w = self.weight.require_data().reshape(g, cout_g, cin_g * k * k)
        dcols = np.einsum("gok,ngol->ngkl", w, dout_g, optimize=True)
        dcols = dcols.reshape(n, self.in_channels * k * k, length)
        return col2im(dcols, x_shape, k, k, self.stride, self.pad)

    # ------------------------------------------------------ cost accounting
    def flops_per_sample(self) -> int:
        k = self.kernel_size
        cin_g = self.in_channels // self.group
        flops = 2 * self.num_output * cin_g * k * k * self.out_h * self.out_w
        if self.bias:
            flops += self.num_output * self.out_h * self.out_w
        return flops

    def gemm_shapes(self, batch: int) -> List[GemmShape]:
        k = self.kernel_size
        cin_g = self.in_channels // self.group
        cout_g = self.num_output // self.group
        length = self.out_h * self.out_w * int(batch)
        return [(cout_g, length, cin_g * k * k)] * self.group
