"""Per-request cost attribution: fold a span tree into a fixed stage ledger.

"Beyond Inference"-style serving analysis (and ROADMAP item 3) needs one
question answered per request: *where did the milliseconds go?*  Span trees
from :mod:`repro.obs.trace` carry the raw intervals; this module folds one
trace into a **cost ledger** over a fixed stage taxonomy:

    client.serialize → gateway.queue / gateway.route / gateway.admit /
    gateway.cache → gateway.rpc → backend.queue → sched.wait →
    batch.assemble → preprocess → net.forward (with per-layer
    sub-breakdown and an engine.cache probe window) → postprocess →
    respond

On the APP frame path the ``preprocess``/``postprocess`` stages are fed by
the server-side ``app.preprocess``/``app.postprocess`` spans — the whole
point of pushing Tonic's pipeline behind the wire is that those
milliseconds become attributable server-side instead of vanishing into
the client's unattributed residual.

plus an explicit ``unattributed`` residual, so the ledger always sums to
the request's wall time and coverage (= 1 − residual/wall) is honest and
CI-gateable.

Attribution is **exclusive time via a deepest-span-wins sweep**: the root
span's extent is cut at every span start/end, and each elementary interval
is charged to the deepest span covering it (ties: the later-starting one).
That makes attribution exact even with overlapping *sibling* spans — hedged
duplicate arms, per-retry ``gateway.queue`` spans — where a naive
per-span-duration sum would double-count.  Container spans (``backend.infer``,
the bare envelope around the backend's work) map to no stage on purpose:
their exclusive time — request parse, bookkeeping, anything we have not
instrumented — lands in the residual instead of flattering a stage.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .trace import Span

__all__ = [
    "STAGES",
    "SPAN_STAGE",
    "CostLedger",
    "build_ledger",
    "build_ledgers",
    "aggregate_shares",
    "format_ledger",
]

#: The fixed stage taxonomy, in request order.  Every ledger carries every
#: stage (zero when unobserved) so aggregated shares line up across requests,
#: batch sizes, and execution modes.
STAGES: Tuple[str, ...] = (
    "client.serialize",
    "gateway.queue",
    "gateway.route",
    "gateway.admit",
    "gateway.cache",
    "gateway.rpc",
    "backend.queue",
    "sched.wait",
    "batch.assemble",
    "preprocess",
    "net.forward",
    "engine.cache",
    "postprocess",
    "respond",
)

#: Span name → stage.  ``None`` means *container*: the span exists to parent
#: others and its exclusive time is deliberately left unattributed.
SPAN_STAGE: Dict[str, Optional[str]] = {
    "client.infer": "client.serialize",   # root: serialize + wire + deserialize
    "client.app": "client.serialize",     # v5 raw-payload root envelope
    "gateway.infer": "gateway.route",
    "gateway.queue": "gateway.queue",
    "gateway.backend": "gateway.rpc",
    "gateway.hedge": "gateway.route",
    "sched.admit": "gateway.admit",
    "gateway.cache": "gateway.cache",     # response-cache probe (hit or miss)
    "engine.cache": "engine.cache",       # layer-cache probe window, nested
                                          # inside net.forward (deepest wins)
    "backend.infer": None,                # container → residual
    "backend.app": None,                  # APP-path container → residual
    "backend.queue": "backend.queue",
    "sched.wait": "sched.wait",
    "sched.expire": "sched.wait",
    "batch.assemble": "batch.assemble",
    "batch.scatter": "batch.assemble",    # disassembly: result hand-out
    "preprocess": "preprocess",
    "app.preprocess": "preprocess",       # server-side Tonic kernel (APP)
    "net.forward": "net.forward",
    "app.postprocess": "postprocess",
    "backend.respond": "respond",
}


def _stage_for(span: Span) -> Optional[str]:
    if span.name.startswith("layer."):
        return "net.forward"
    return SPAN_STAGE.get(span.name)


class CostLedger:
    """Where one request's wall time went, stage by stage.

    ``stages`` maps every name in :data:`STAGES` to exclusive seconds;
    ``residual_s`` is wall time no stage claimed.  ``layers`` sub-divides
    the ``net.forward`` stage by layer name (from ``layer.*`` spans).
    """

    __slots__ = ("trace_id", "model", "wall_s", "stages", "residual_s",
                 "layers", "span_count")

    def __init__(self, trace_id: int, model: str, wall_s: float,
                 stages: Mapping[str, float], residual_s: float,
                 layers: Mapping[str, float], span_count: int):
        self.trace_id = trace_id
        self.model = model
        self.wall_s = wall_s
        self.stages = {stage: float(stages.get(stage, 0.0)) for stage in STAGES}
        self.residual_s = residual_s
        self.layers = dict(layers)
        self.span_count = span_count

    @property
    def coverage(self) -> float:
        """Fraction of wall time attributed to a named stage."""
        if self.wall_s <= 0:
            return 1.0
        return max(0.0, 1.0 - self.residual_s / self.wall_s)

    def shares(self) -> Dict[str, float]:
        """Stage → fraction of wall time; includes ``unattributed``.

        Sums to 1.0 (up to float rounding) by construction.
        """
        if self.wall_s <= 0:
            return {**{stage: 0.0 for stage in STAGES}, "unattributed": 0.0}
        out = {stage: self.stages[stage] / self.wall_s for stage in STAGES}
        out["unattributed"] = self.residual_s / self.wall_s
        return out

    def to_dict(self) -> dict:
        return {
            "trace_id": f"{self.trace_id:016x}",
            "model": self.model,
            "wall_s": self.wall_s,
            "stages_s": dict(self.stages),
            "residual_s": self.residual_s,
            "coverage": self.coverage,
            "shares": self.shares(),
            "layers_s": dict(self.layers),
            "span_count": self.span_count,
        }


def _depths(spans: Sequence[Span]) -> Dict[int, int]:
    """span_id → depth below the trace root (root = 0)."""
    parents = {s.span_id: s.parent_id for s in spans}
    depths: Dict[int, int] = {}

    def depth(span_id: int) -> int:
        cached = depths.get(span_id)
        if cached is not None:
            return cached
        parent = parents.get(span_id, 0)
        d = 0 if parent not in parents else depth(parent) + 1
        depths[span_id] = d
        return d

    for s in spans:
        depth(s.span_id)
    return depths


def build_ledger(spans: Sequence[Span]) -> Optional[CostLedger]:
    """Fold one trace's spans into a :class:`CostLedger`.

    Returns ``None`` when the trace has no finished root (no ``client.infer``
    or other parentless span) — e.g. a trace captured mid-flight.
    """
    finished = [s for s in spans if s.end_s is not None]
    if not finished:
        return None
    ids = {s.span_id for s in finished}
    roots = [s for s in finished if s.parent_id not in ids]
    # prefer the client envelope; fall back to the earliest root
    client_roots = [s for s in roots if s.name in ("client.infer",
                                                   "client.app")]
    root = min(client_roots or roots, key=lambda s: s.start_s)
    wall = root.end_s - root.start_s
    depths = _depths(finished)

    model = str(root.attrs.get("model", ""))
    if not model:
        for s in finished:
            if s.attrs.get("model"):
                model = str(s.attrs["model"])
                break

    # Deepest-span-wins sweep over the root's extent.
    cuts = sorted({
        t for s in finished
        for t in (s.start_s, s.end_s)
        if root.start_s <= t <= root.end_s
    } | {root.start_s, root.end_s})
    stages = {stage: 0.0 for stage in STAGES}
    layers: Dict[str, float] = {}
    residual = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        width = hi - lo
        if width <= 0:
            continue
        owner = None
        owner_key = (-1, -float("inf"), -1)
        for s in finished:
            if s.start_s <= lo and s.end_s >= hi:
                key = (depths[s.span_id], s.start_s, s.span_id)
                if key > owner_key:
                    owner, owner_key = s, key
        stage = _stage_for(owner) if owner else None
        if stage is None:
            residual += width
        else:
            stages[stage] += width
            if owner.name.startswith("layer."):
                layer = owner.name[len("layer."):]
                layers[layer] = layers.get(layer, 0.0) + width
    return CostLedger(root.trace_id, model, wall, stages, residual, layers,
                      span_count=len(finished))


def build_ledgers(spans: Sequence[Span]) -> List[CostLedger]:
    """Group spans by trace and build one ledger per complete trace."""
    by_trace: Dict[int, List[Span]] = {}
    for s in spans:
        by_trace.setdefault(s.trace_id, []).append(s)
    ledgers = []
    for trace_spans in by_trace.values():
        ledger = build_ledger(trace_spans)
        if ledger is not None:
            ledgers.append(ledger)
    return ledgers


def aggregate_shares(ledgers: Sequence[CostLedger]) -> Dict[str, float]:
    """Wall-time-weighted mean share per stage across many ledgers.

    Weighting by wall time makes the aggregate read as "share of total
    serving seconds", which is what capacity planning wants; it also means
    the output still sums to 1.0.
    """
    total_wall = sum(l.wall_s for l in ledgers)
    out = {stage: 0.0 for stage in STAGES}
    out["unattributed"] = 0.0
    if total_wall <= 0:
        return out
    for ledger in ledgers:
        for stage in STAGES:
            out[stage] += ledger.stages[stage]
        out["unattributed"] += ledger.residual_s
    return {stage: seconds / total_wall for stage, seconds in out.items()}


def format_ledger(ledger: CostLedger, width: int = 40) -> str:
    """Human rendering: one bar per stage, slowest layers, coverage line."""
    lines = [
        f"trace {ledger.trace_id:016x}  model={ledger.model or '?'}  "
        f"wall={ledger.wall_s * 1e3:.3f}ms  coverage={ledger.coverage:.1%}"
    ]
    rows = [(stage, ledger.stages[stage]) for stage in STAGES]
    rows.append(("unattributed", ledger.residual_s))
    peak = max((seconds for _, seconds in rows), default=0.0)
    for stage, seconds in rows:
        share = seconds / ledger.wall_s if ledger.wall_s > 0 else 0.0
        bar = "#" * (round(width * seconds / peak) if peak > 0 else 0)
        lines.append(f"  {stage:<16s} {seconds * 1e3:9.3f}ms {share:6.1%}  {bar}")
    if ledger.layers:
        slowest = sorted(ledger.layers.items(), key=lambda kv: -kv[1])[:5]
        layer_text = ", ".join(f"{name} {s * 1e3:.3f}ms" for name, s in slowest)
        lines.append(f"  slowest layers: {layer_text}")
    return "\n".join(lines)
