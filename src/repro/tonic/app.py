"""TonicApp: the common shape of every Tonic Suite application.

Each application is *preprocess -> DNN -> postprocess* (paper Figure 3).
The DNN stage is pluggable: a local :class:`repro.nn.Net`, or a
:class:`repro.core.client.DjinnClient` request to a running DjiNN service —
the application code is identical either way, which is the paper's central
service-architecture point.

``run`` times the three stages, producing the measured counterpart of the
paper's Figure 4 cycle breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..nn.network import Net

__all__ = ["StageTiming", "DnnBackend", "LocalBackend", "TonicApp"]


@dataclass
class StageTiming:
    """Wall-clock seconds spent in each stage of one query."""

    pre_s: float = 0.0
    dnn_s: float = 0.0
    post_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.pre_s + self.dnn_s + self.post_s

    @property
    def dnn_fraction(self) -> float:
        total = self.total_s
        return self.dnn_s / total if total > 0 else 0.0

    def __add__(self, other: "StageTiming") -> "StageTiming":
        return StageTiming(
            self.pre_s + other.pre_s,
            self.dnn_s + other.dnn_s,
            self.post_s + other.post_s,
        )


class DnnBackend:
    """Anything that can evaluate a named model on a batch of inputs."""

    def infer(self, model: str, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class LocalBackend(DnnBackend):
    """Run inference in-process on a materialized net (no service)."""

    def __init__(self, net: Net):
        if not net.materialized:
            raise ValueError(f"net {net.name!r} must be materialized for a LocalBackend")
        self.net = net

    def infer(self, model: str, inputs: np.ndarray) -> np.ndarray:
        return self.net.forward(inputs)


class TonicApp:
    """Base class; subclasses implement ``preprocess`` and ``postprocess``.

    Parameters
    ----------
    app:
        Application key (``imc``, ``dig``, ...), also the model name
        requested from the DjiNN service.
    backend:
        Where the DNN stage runs.
    """

    def __init__(self, app: str, backend: DnnBackend):
        self.app = app
        self.backend = backend

    # ------------------------------------------------------------- pipeline
    def preprocess(self, raw: Any) -> np.ndarray:
        """Turn a raw query into the (n, *input_shape) DNN input batch."""
        raise NotImplementedError

    def postprocess(self, outputs: np.ndarray, raw: Any) -> Any:
        """Turn DNN outputs into the application's answer."""
        raise NotImplementedError

    # ------------------------------------------------------- batched pipeline
    def preprocess_batch(
        self, raws: Sequence[Any]
    ) -> Tuple[np.ndarray, List[int]]:
        """Preprocess many raw queries into one row-concatenated DNN batch.

        Returns ``(inputs, counts)`` where ``counts[i]`` is the number of
        DNN rows query ``i`` contributed — a query is not always one row
        (DIG packs many images per query, NLP one row per word, ASR one
        row per audio frame).  The base implementation is the per-item
        loop; subclasses override it with vectorized kernels that must
        produce the same bytes (property-tested in
        ``tests/test_tonic_batch.py``).
        """
        parts = [self.preprocess(raw) for raw in raws]
        counts = [len(p) for p in parts]
        if not parts:
            return np.empty((0,), dtype=np.float32), []
        if len(parts) == 1:
            return parts[0], counts
        return np.concatenate(parts, axis=0), counts

    def postprocess_batch(
        self, outputs: np.ndarray, raws: Sequence[Any], counts: Sequence[int]
    ) -> List[Any]:
        """Split one concatenated output block back into per-query answers.

        ``counts`` is the row layout returned by :meth:`preprocess_batch`.
        The base implementation slices and loops :meth:`postprocess`;
        subclasses hoist the row-wise math (softmax logs, argmax, prior
        subtraction) out of the loop.
        """
        results: List[Any] = []
        offset = 0
        for raw, count in zip(raws, counts):
            results.append(self.postprocess(outputs[offset:offset + count], raw))
            offset += count
        return results

    def run(self, raw: Any) -> Any:
        """Process one query end to end."""
        result, _ = self.run_timed(raw)
        return result

    def run_timed(self, raw: Any):
        """Process one query, returning ``(result, StageTiming)``."""
        t0 = time.monotonic()
        inputs = self.preprocess(raw)
        t1 = time.monotonic()
        outputs = self.backend.infer(self.app, inputs)
        t2 = time.monotonic()
        result = self.postprocess(outputs, raw)
        t3 = time.monotonic()
        return result, StageTiming(pre_s=t1 - t0, dnn_s=t2 - t1, post_s=t3 - t2)
