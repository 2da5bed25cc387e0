"""Blob: the named parameter tensor used throughout the ``repro.nn`` framework.

A :class:`Blob` pairs a data array with a same-shaped gradient array, the way
Caffe's blobs do.  Blobs can exist *unmaterialized* — shape-only — so that the
GPU performance model (:mod:`repro.gpusim`) can reason about multi-hundred-
megabyte networks (e.g. DeepFace's ~120M parameters) without allocating them.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Tuple

import numpy as np

__all__ = ["Blob", "FLOAT_BYTES"]

#: All arithmetic in the framework is single precision, as in Caffe/cuDNN.
FLOAT_BYTES = 4

#: Serializes ``Blob.rebinds`` bumps: a lost update could step the
#: generation back to a value a plan already bound at
_REBINDS_LOCK = threading.Lock()


class Blob:
    """A named, optionally materialized parameter tensor with a gradient.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"conv1.weight"``.
    shape:
        Tensor shape.  Known at construction even when unmaterialized.
    """

    #: Weights generation: bumped by every ``data`` rebind (materialize,
    #: weight sharing, archive load).  Execution plans bind their
    #: kernels over the weight arrays themselves, compare this once per
    #: execute, and re-bind when it moved (:mod:`repro.nn.engine`).
    rebinds = 0

    def __init__(self, name: str, shape: Tuple[int, ...]):
        if any(int(d) <= 0 for d in shape):
            raise ValueError(f"blob {name!r}: non-positive dimension in shape {shape}")
        self.name = name
        self.shape = tuple(int(d) for d in shape)
        self._data: Optional[np.ndarray] = None
        self.grad: Optional[np.ndarray] = None

    @property
    def data(self) -> Optional[np.ndarray]:
        return self._data

    @data.setter
    def data(self, value: Optional[np.ndarray]) -> None:
        # array first, generation second: a plan that read the old
        # generation before binding always sees the bump afterwards
        self._data = value
        with _REBINDS_LOCK:
            Blob.rebinds += 1

    # ------------------------------------------------------------------ info
    @property
    def size(self) -> int:
        """Number of elements."""
        return int(math.prod(self.shape))

    @property
    def nbytes(self) -> int:
        """Bytes occupied when materialized (float32)."""
        return self.size * FLOAT_BYTES

    @property
    def materialized(self) -> bool:
        return self.data is not None

    # ------------------------------------------------------ materialization
    def materialize(self, filler, rng: np.random.Generator) -> None:
        """Allocate ``data`` using ``filler(shape, rng)`` and zero ``grad``."""
        self.data = np.asarray(filler(self.shape, rng), dtype=np.float32)
        if self.data.shape != self.shape:
            raise ValueError(
                f"filler for blob {self.name!r} produced shape "
                f"{self.data.shape}, expected {self.shape}"
            )
        self.grad = np.zeros(self.shape, dtype=np.float32)

    def require_data(self) -> np.ndarray:
        """Return ``data``, raising a clear error if unmaterialized."""
        if self.data is None:
            raise RuntimeError(
                f"blob {self.name!r} is not materialized; call Net.materialize() "
                "before running forward/backward"
            )
        return self.data

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialized" if self.materialized else "shape-only"
        return f"Blob({self.name!r}, shape={self.shape}, {state})"
