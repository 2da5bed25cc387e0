"""Weight fillers, mirroring the fillers Caffe ships with.

Each filler is a callable ``filler(shape, rng) -> ndarray``; layers choose a
default but every layer spec accepts a ``weight_filler`` override.

The random fillers return a float32 array allocated once and filled in
place, ``_CHUNK`` elements per draw: the float64 draws never exist for the
whole blob at once, so materializing AlexNet's 151 MB fc6 weights costs
151 MB plus an 8 MB transient rather than a 302 MB float64 copy on top.
Drawing a numpy ``Generator`` stream in consecutive chunks yields the same
values, and leaves the generator in the same state, as one whole-array
call, so the weights are byte-identical to one whole-blob float64 draw
cast to float32.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Tuple

import numpy as np

__all__ = ["constant", "gaussian", "xavier", "uniform", "get_filler"]

Filler = Callable[[Tuple[int, ...], np.random.Generator], np.ndarray]

#: Elements drawn per generator call: 2**20 float64 draws, an 8 MB transient.
_CHUNK = 1 << 20


def _draw_into(shape, draw) -> np.ndarray:
    """A float32 array of ``shape`` filled from ``draw(size=k)`` in chunks."""
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        flat[start:start + _CHUNK] = draw(size=min(_CHUNK, flat.size - start))
    return out


def constant(value: float = 0.0) -> Filler:
    """Fill with a constant (Caffe's ``constant`` filler; used for biases)."""

    def fill(shape, rng):
        return np.full(shape, value, dtype=np.float32)

    return fill


def gaussian(std: float = 0.01, mean: float = 0.0) -> Filler:
    """Fill with N(mean, std^2) (Caffe's ``gaussian`` filler)."""

    def fill(shape, rng):
        return _draw_into(shape, partial(rng.normal, mean, std))

    return fill


def uniform(low: float = -0.05, high: float = 0.05) -> Filler:
    def fill(shape, rng):
        return _draw_into(shape, partial(rng.uniform, low, high))

    return fill


def xavier() -> Filler:
    """Caffe's ``xavier`` filler: uniform in ±sqrt(3 / fan_in).

    fan_in is taken as the product of all dimensions but the first, which
    matches Caffe's convention for both inner-product and convolution blobs.
    """

    def fill(shape, rng):
        fan_in = max(1, int(math.prod(shape[1:])))
        scale = math.sqrt(3.0 / fan_in)
        return _draw_into(shape, partial(rng.uniform, -scale, scale))

    return fill


_NAMED = {
    "constant": constant,
    "gaussian": gaussian,
    "uniform": uniform,
    "xavier": xavier,
}


def get_filler(spec) -> Filler:
    """Resolve a filler from a callable, a name, or ``(name, kwargs)``."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        try:
            return _NAMED[spec]()
        except KeyError:
            raise ValueError(f"unknown filler {spec!r}; known: {sorted(_NAMED)}") from None
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
        name, kwargs = spec
        try:
            return _NAMED[name](**kwargs)
        except KeyError:
            raise ValueError(f"unknown filler {name!r}; known: {sorted(_NAMED)}") from None
    raise TypeError(f"cannot interpret filler spec {spec!r}")
