"""Per-request accounting: one ledger per serving tier, read back from METRICS.

Each tier — the backend (``djinn``) and the gateway (``gateway``) — records
every request it answers exactly once, into three metric families of its
own registry: ``{prefix}_requests_total``, ``{prefix}_inputs_total`` and the
``{prefix}_request_latency_seconds`` histogram, whose tail exemplars name
the slowest requests' traces.  There is no second store: the per-model
summary :meth:`repro.core.DjinnClient.stats` prints is
:func:`summarize` over a ``METRICS_RESPONSE`` dump, quantiles interpolated
from the histogram's buckets.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.metrics import ChildMap, MetricsRegistry, percentile_from_counts

__all__ = ["RequestLedger", "summarize"]

#: tail exemplars the latency histogram keeps per model
EXEMPLARS = 8


class RequestLedger:
    """The one per-request record of a serving tier.

    ``registry`` is the tier's own; ``prefix`` (``djinn`` for backends,
    ``gateway`` for the fleet front-end) keeps the two populations apart
    when a gateway merges backend dumps into its own.  Children are bound
    once per model, so :meth:`record` is three dict lookups and three
    increments.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str = "djinn"):
        self.requests = ChildMap(registry.counter(
            f"{prefix}_requests_total", "Requests served, per model.",
            ("model",)))
        self.inputs = ChildMap(registry.counter(
            f"{prefix}_inputs_total", "Individual inputs processed, per model.",
            ("model",)))
        self.latency = ChildMap(registry.histogram(
            f"{prefix}_request_latency_seconds",
            "End-to-end request service latency, per model.", ("model",),
            exemplars=EXEMPLARS))

    def record(self, model: str, latency_s: float, inputs: int = 1,
               exemplar: Optional[str] = None) -> None:
        """Account one answered request of ``model``."""
        self.requests[model].inc()
        self.inputs[model].inc(inputs)
        self.latency[model].observe(latency_s, exemplar=exemplar)


def summarize(dump: dict) -> Dict[str, Dict[str, float]]:
    """Per-model request summary of a METRICS dump.

    Keys per model: ``requests``, ``inputs``, ``mean_ms``, ``p50_ms``,
    ``p95_ms``, ``p99_ms``, ``max_ms``.  Backend ledgers (``djinn_*``)
    report under the model name and a gateway's own (``gateway_*``) under
    ``gateway:<model>``; a gateway's dump is fleet-merged, so its backend
    entries are fleet totals with bucket-exact merged quantiles.
    """
    metrics = dump.get("metrics", {})
    out: Dict[str, Dict[str, float]] = {}
    for prefix, key in (("djinn", "{}"), ("gateway", "gateway:{}")):
        latency = metrics.get(f"{prefix}_request_latency_seconds")
        if latency is None:
            continue
        totals = {
            name: {s["labels"]["model"]: float(s["value"])
                   for s in metrics.get(f"{prefix}_{name}_total",
                                        {}).get("samples", ())}
            for name in ("requests", "inputs")}
        bounds = latency["buckets"]
        for sample in latency["samples"]:
            count = sample["count"]
            if not count:
                continue
            model = sample["labels"]["model"]
            low, high = sample["min"], sample["max"]
            summary = {
                "requests": totals["requests"].get(model, 0.0),
                "inputs": totals["inputs"].get(model, 0.0),
                "mean_ms": sample["sum"] / count * 1e3,
            }
            for q in (50, 95, 99):
                summary[f"p{q}_ms"] = percentile_from_counts(
                    bounds, sample["counts"], q, low, high) * 1e3
            summary["max_ms"] = high * 1e3
            out[key.format(model)] = summary
    return out
