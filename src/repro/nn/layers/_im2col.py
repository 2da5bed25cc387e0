"""im2col / col2im lowering used by convolution and locally-connected layers.

This mirrors how Caffe executes convolutions: unfold input windows into a
matrix, then run a GEMM.  The unfolded shapes are also what the GPU cost
model treats as the kernel's GEMM dimensions.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im", "Im2colPlan"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"kernel {kernel} (stride {stride}, pad {pad}) does not fit input of size {size}"
        )
    return out


class Im2colPlan:
    """Precomputed column-buffer geometry for one window-sliding layer.

    The original :func:`im2col` recomputed output extents, padded shapes and
    window strides on every call; convolution, locally-connected and pooling
    layers now hoist that into setup by building one of these, and both the
    allocating and the planned execution paths reuse it.  The ``bind_*``
    methods build their views once; the kernels they return are
    allocation-free.
    """

    __slots__ = ("in_c", "in_h", "in_w", "kh", "kw", "stride", "pad",
                 "out_h", "out_w", "padded_h", "padded_w", "fan_in", "length")

    def __init__(self, in_shape: Tuple[int, int, int], kh: int, kw: int,
                 stride: int, pad: int):
        self.in_c, self.in_h, self.in_w = (int(d) for d in in_shape)
        self.kh, self.kw = int(kh), int(kw)
        self.stride, self.pad = int(stride), int(pad)
        self.out_h = conv_output_size(self.in_h, self.kh, self.stride, self.pad)
        self.out_w = conv_output_size(self.in_w, self.kw, self.stride, self.pad)
        self.padded_h = self.in_h + 2 * self.pad
        self.padded_w = self.in_w + 2 * self.pad
        self.fan_in = self.in_c * self.kh * self.kw
        self.length = self.out_h * self.out_w

    # ------------------------------------------------------------- scratch
    def pad_spec(self, batch: int) -> Dict[str, Tuple[Tuple[int, ...], np.dtype]]:
        """Scratch entry for the padded input copy (empty when pad == 0)."""
        if not self.pad:
            return {}
        return {"xpad": ((batch, self.in_c, self.padded_h, self.padded_w),
                         np.dtype(np.float32))}

    def cols_spec(self, batch: int) -> Dict[str, Tuple[Tuple[int, ...], np.dtype]]:
        """Scratch entry for the unfolded column buffer."""
        return {"cols": ((batch, self.fan_in, self.length), np.dtype(np.float32))}

    # ------------------------------------------------------------- kernels
    def source(self, x: np.ndarray, scratch: Dict[str, np.ndarray]) -> np.ndarray:
        """The array windows slide over: ``x`` itself, or its padded copy
        in ``scratch["xpad"]`` (contents as of the last refill)."""
        return scratch["xpad"][: x.shape[0]] if self.pad else x

    def bind_padded(self, x: np.ndarray, scratch: Dict[str, np.ndarray],
                    fill: float = 0.0) -> Tuple[np.ndarray, Optional[Callable[[], None]]]:
        """``(source, refill)``: the source array and the kernel that
        refreshes it from ``x`` (``None`` when there is no padding).

        The refill rewrites the border of ``scratch["xpad"]`` and the center
        every call — scratch regions are shared between steps, so nothing
        can be assumed about their previous contents.
        """
        src = self.source(x, scratch)
        if not self.pad:
            return src, None
        p = self.pad
        borders = (src[:, :, :p, :], src[:, :, -p:, :],
                   src[:, :, p:-p, :p], src[:, :, p:-p, -p:])
        center = src[:, :, p:-p, p:-p]

        def refill() -> None:
            for border in borders:
                border.fill(fill)
            np.copyto(center, x)

        return src, refill

    def filter_windows(self, src: np.ndarray) -> np.ndarray:
        """(N, C, kh, kw, out_h, out_w) view — the im2col gather order."""
        s0, s1, s2, s3 = src.strides
        return np.lib.stride_tricks.as_strided(
            src,
            shape=(src.shape[0], self.in_c, self.kh, self.kw, self.out_h, self.out_w),
            strides=(s0, s1, s2, s3, s2 * self.stride, s3 * self.stride),
            writeable=False,
        )

    def pool_windows(self, src: np.ndarray) -> np.ndarray:
        """(N, C, out_h, out_w, kh, kw) view — the pooling reduce order."""
        s0, s1, s2, s3 = src.strides
        return np.lib.stride_tricks.as_strided(
            src,
            shape=(src.shape[0], self.in_c, self.out_h, self.out_w, self.kh, self.kw),
            strides=(s0, s1, s2 * self.stride, s3 * self.stride, s2, s3),
            writeable=False,
        )

    def bind_gather(self, x: np.ndarray, scratch: Dict[str, np.ndarray]
                    ) -> Tuple[np.ndarray, Callable[[], None]]:
        """``(cols, unfold)``: ``scratch["cols"]`` (N, C*kh*kw, L) and the
        kernel that unfolds ``x`` into it, window view built once."""
        n = x.shape[0]
        cols = scratch["cols"][:n]
        src, refill = self.bind_padded(x, scratch)
        cols6 = cols.reshape(n, self.in_c, self.kh, self.kw, self.out_h, self.out_w)
        windows = self.filter_windows(src)

        def unfold() -> None:
            if refill is not None:
                refill()
            np.copyto(cols6, windows)

        return cols, unfold


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = x.shape[2], x.shape[3]
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add the inverse of :func:`im2col` (used by backward passes)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    xpad = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xpad[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols6[
                :, :, i, j
            ]
    if pad:
        return xpad[:, :, pad : pad + h, pad : pad + w]
    return xpad
