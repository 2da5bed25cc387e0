"""``repro.obs`` — observability substrate for the DjiNN serving stack.

The paper's analysis (Figs 4–9) is observability: per-layer timelines,
queueing vs. compute splits, fleet-level throughput accounting.  This
package is that machinery for the reproduction, and the measurement
substrate every later performance PR reports against.

Layers
------
:mod:`repro.obs.metrics`
    Thread-safe Counter/Gauge/Histogram families with labels, per-server
    :class:`MetricsRegistry`, Prometheus-style exposition, wire-friendly
    dumps and fleet-level merges.
:mod:`repro.obs.trace`
    :class:`Span`/:class:`Tracer` with wire-propagated trace IDs (the
    frame's trace context), Chrome trace-event export, coverage analysis,
    and the structured ``log_event`` helper.
:mod:`repro.obs.profile`
    :class:`LayerTimer`, the per-layer forward-pass breakdown hook.
:mod:`repro.obs.cost`
    Per-request cost ledgers: fold a span tree into the fixed stage
    taxonomy (:data:`~repro.obs.cost.STAGES`) with an honest unattributed
    residual.
:mod:`repro.obs.slo`
    :class:`BurnRateMonitor`, multi-window SLO error-budget burn alerting
    over per-class attainment counts.
"""

from .cost import (
    STAGES,
    CostLedger,
    aggregate_shares,
    build_ledger,
    build_ledgers,
    format_ledger,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    ChildMap,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    default_registry,
    merge_dumps,
    merge_exemplars,
    parse_exposition,
    percentile_from_counts,
    read_dump_region,
    render_exposition,
    write_dump_region,
)
from .profile import LayerRecord, LayerTimer
from .slo import DEFAULT_BURN_WINDOWS_S, BurnRateMonitor
from .trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    coverage,
    format_trace,
    get_tracer,
    log_event,
    new_id,
)

__all__ = [
    "ChildMap",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "default_registry",
    "merge_dumps",
    "merge_exemplars",
    "parse_exposition",
    "percentile_from_counts",
    "read_dump_region",
    "render_exposition",
    "write_dump_region",
    "LayerRecord",
    "LayerTimer",
    "STAGES",
    "CostLedger",
    "aggregate_shares",
    "build_ledger",
    "build_ledgers",
    "format_ledger",
    "BurnRateMonitor",
    "DEFAULT_BURN_WINDOWS_S",
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "coverage",
    "format_trace",
    "get_tracer",
    "log_event",
    "new_id",
]
