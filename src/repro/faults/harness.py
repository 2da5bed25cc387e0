"""The chaos harness: run a real gateway + fleet under an armed fault plan
and witness the end-to-end invariants through the observability substrate.

:class:`ChaosHarness` stands up an in-process fleet (via
:class:`repro.gateway.ClusterLauncher`) behind a real
:class:`repro.gateway.GatewayServer`, arms a :class:`FaultPlan`, and drives
a *sequential* load loop: one logical request at a time, each input stamped
with its request ordinal so a stale or misrouted response is detected by
payload, not just by count.  Sequential traffic is deliberate — it is what
makes the fault schedule (and therefore the whole run) a pure function of
the plan seed, so any failure replays from its seed alone.

After the loop, the harness reads the run back through obs surfaces —
``gateway_retries_total`` / ``gateway_retry_exhausted_total`` counters,
``gateway_backend_transitions_total``, structured ``event=retry`` log
records, and the process tracer — and distills everything into a
:class:`ChaosReport` whose :meth:`ChaosReport.check` enforces:

* every request got exactly one response or one typed error — none lost,
  none duplicated/stale (payload-checked);
* retries stayed within the :class:`RetryPolicy` budget and the logged
  retry events equal ``gateway_retries_total``;
* health transitions are consistent with the faults actually injected;
* every trace closed cleanly (a ``client.infer`` root span exists even for
  requests that failed).

Reports contain only counts — no wall-clock times — so two runs of the
same plan seed serialize to byte-identical JSON (the CI determinism gate
diffs exactly that).
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.client import (
    DjinnClient,
    DjinnConnectionError,
    DjinnServiceError,
    DjinnStreamError,
)
from ..core.registry import ModelRegistry
from ..gateway.launcher import ClusterLauncher
from ..gateway.retry import RetryPolicy
from ..gateway.server import GatewayServer
from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from .plan import FaultPlan

__all__ = ["ChaosReport", "ChaosHarness", "default_registry"]


@functools.lru_cache(maxsize=None)
def default_registry(model: str = "pos") -> ModelRegistry:
    """A single-``model`` registry, built once per name and shared by every
    run that does not bring its own (``pos`` is the small, fast default)."""
    from ..models import build_spec

    registry = ModelRegistry()
    registry.register_spec(model, build_spec(model), seed=0)
    return registry


@dataclass
class ChaosReport:
    """Deterministic summary of one chaos run (counts only, no timings)."""

    scenario: str
    seed: int
    requests: int
    ok: int = 0
    #: typed client-visible errors, keyed by exception class name
    errors: Dict[str, int] = field(default_factory=dict)
    #: responses whose payload did not match the request (stale/duplicate)
    mismatched: int = 0
    #: typed QoS rejections, split out of ``errors`` for the SLO invariants:
    #: ``shed`` counts OVERLOADED (admission/backpressure), ``expired``
    #: counts DEADLINE_EXCEEDED.  Each is cross-checked against the metric
    #: the fleet recorded — a shed/expired answer the metrics never saw (or
    #: vice versa) means a rejection path bypassed observability.
    shed: int = 0
    expired: int = 0
    shed_metric: int = 0           # gateway_admission_rejected_total
    expired_metric: int = 0        # gateway_expired_total + backend expiries
    retry_budget: int = 0          # RetryPolicy.max_attempts
    retries_logged: int = 0        # event=retry log records observed
    retries_metric: int = 0        # gateway_retries_total
    retry_exhausted_metric: int = 0
    transitions: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    #: proc-pool workers the supervisors respawned (``worker_kill`` runs);
    #: must equal the injected ``proc.dispatch:kill`` count — every kill
    #: costs exactly one respawn, and nothing respawns unprovoked.
    worker_respawns: int = 0
    #: distinct traces that closed a ``client.infer`` root span — must equal
    #: ``requests``: even a request that died in transport leaves a closed
    #: root.  Stray late spans from other runs' lingering threads carry
    #: foreign trace IDs with no such root and are deliberately not counted
    #: (their timing is nondeterministic; the report must not be).
    traces: int = 0
    #: scheduling/hedging spans observed over rooted traces — the span-side
    #: mirror of the typed-rejection counts: every shed request must close a
    #: ``sched.admit`` span, every expiry a ``sched.expire`` span, and every
    #: launched hedge arm a ``gateway.hedge`` span
    admit_spans: int = 0
    expire_spans: int = 0
    hedge_spans: int = 0
    hedges_metric: int = 0         # gateway_hedges_total
    #: streaming load (``streams`` sequential streams of ``chunks`` chunks
    #: each): ``stream_ok`` finished with the exact expected transcript,
    #: ``stream_aborted`` died on a typed stream error (the only sanctioned
    #: way for a stream to fail), ``stream_mismatched`` finished with a
    #: wrong transcript.  Cross-checked against the backend-side abort
    #: metric and against the injected ``stream.chunk:drop`` count, and
    #: ``sessions_leaked`` (live sessions after all streams ended) must be
    #: zero — the no-leak invariant.
    streams: int = 0
    chunks: int = 0
    stream_ok: int = 0
    stream_aborted: int = 0
    stream_mismatched: int = 0
    stream_aborted_metric: int = 0  # djinn_stream_aborted_total (fleet sum)
    sessions_leaked: int = 0
    #: raw-payload (APP_REQUEST frame) load after the unary loop:
    #: ``app_ok`` answered with the locally recomputed application result,
    #: ``app_errors`` died on a typed error, ``app_mismatched`` answered
    #: wrong.  A poisoned preprocess (``app.preprocess:error``) must cost
    #: exactly one typed per-request error — never the whole batch, never a
    #: lost request — so the injected count is cross-checked against the
    #: typed errors, and every app request must close a ``client.app`` root.
    app_requests: int = 0
    app_ok: int = 0
    app_errors: Dict[str, int] = field(default_factory=dict)
    app_mismatched: int = 0
    app_traces: int = 0
    #: duplicate-request load (``dup_requests`` byte-identical replays of
    #: unary request 1's payload, issued right after the unary loop so the
    #: response cache — armed via ``cache_mb`` — must serve every one from
    #: the entry request 1 inserted).  A ``cache.probe:error`` fault fails
    #: the probe *open*: the duplicate is forwarded as an uncacheable miss
    #: and still answered correctly, but no hit/miss counter moves — so
    #: expected hits are ``dup_requests`` minus the injected probe faults,
    #: and hits + misses + poisoned probes must conserve the probed total.
    dup_requests: int = 0
    dup_ok: int = 0
    dup_errors: Dict[str, int] = field(default_factory=dict)
    dup_mismatched: int = 0
    cache_mb: float = 0.0
    cache_hits_metric: int = 0     # gateway_cache_hits_total
    cache_misses_metric: int = 0   # gateway_cache_misses_total

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())

    @property
    def app_lost(self) -> int:
        """App requests that produced neither an answer nor a typed error."""
        return (self.app_requests - self.app_ok
                - sum(self.app_errors.values()) - self.app_mismatched)

    @property
    def dup_lost(self) -> int:
        """Duplicates that produced neither an answer nor a typed error."""
        return (self.dup_requests - self.dup_ok
                - sum(self.dup_errors.values()) - self.dup_mismatched)

    @property
    def lost(self) -> int:
        """Requests that produced neither a response nor a typed error."""
        return self.requests - self.ok - self.error_total - self.mismatched

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def check(self) -> List[str]:
        """End-to-end invariant violations (empty = the run held up)."""
        violations = []
        if self.lost != 0:
            violations.append(f"{self.lost} request(s) lost: no response and "
                              f"no typed error")
        if self.mismatched != 0:
            violations.append(f"{self.mismatched} response(s) carried the "
                              f"wrong payload (stale/duplicated)")
        if self.retries_logged != self.retries_metric:
            violations.append(
                f"retry log records ({self.retries_logged}) != "
                f"gateway_retries_total ({self.retries_metric})")
        budget = self.requests * max(0, self.retry_budget - 1)
        if self.retries_metric > budget:
            violations.append(
                f"gateway_retries_total ({self.retries_metric}) exceeds the "
                f"RetryPolicy budget ({budget})")
        flaps = sum(count for label, count in self.injected.items()
                    if label.startswith("health.probe:flap"))
        if self.transitions.get("mark_down", 0) < flaps:
            violations.append(
                f"injected {flaps} probe flap(s) but only "
                f"{self.transitions.get('mark_down', 0)} mark_down transition(s)")
        unary = self.requests + self.dup_requests
        if self.traces != unary:
            violations.append(
                f"expected one closed client.infer root per unary request "
                f"({unary}), found {self.traces}")
        if self.shed != self.shed_metric:
            violations.append(
                f"client saw {self.shed} OVERLOADED rejection(s) but the "
                f"gateway recorded {self.shed_metric} in "
                f"gateway_admission_rejected_total")
        if self.expired != self.expired_metric:
            violations.append(
                f"client saw {self.expired} DEADLINE_EXCEEDED rejection(s) "
                f"but the fleet recorded {self.expired_metric} expiries")
        kills = sum(count for label, count in self.injected.items()
                    if label.startswith("proc.dispatch:kill"))
        if self.worker_respawns != kills:
            violations.append(
                f"injected {kills} worker kill(s) but supervisors recorded "
                f"{self.worker_respawns} respawn(s)")
        if self.admit_spans != self.shed:
            violations.append(
                f"client saw {self.shed} shed request(s) but traces closed "
                f"{self.admit_spans} sched.admit span(s)")
        if self.expire_spans != self.expired:
            violations.append(
                f"client saw {self.expired} expired request(s) but traces "
                f"closed {self.expire_spans} sched.expire span(s)")
        if self.hedge_spans != self.hedges_metric:
            violations.append(
                f"gateway launched {self.hedges_metric} hedge arm(s) but "
                f"traces closed {self.hedge_spans} gateway.hedge span(s)")
        stream_lost = (self.streams - self.stream_ok - self.stream_aborted
                       - self.stream_mismatched)
        if stream_lost != 0:
            violations.append(
                f"{stream_lost} stream(s) lost: neither a final transcript "
                f"nor a typed stream error")
        if self.stream_mismatched != 0:
            violations.append(
                f"{self.stream_mismatched} stream(s) finished with the "
                f"wrong transcript")
        drops = sum(count for label, count in self.injected.items()
                    if label.startswith("stream.chunk:drop"))
        if self.stream_aborted != drops:
            violations.append(
                f"injected {drops} chunk drop(s) but the client saw "
                f"{self.stream_aborted} aborted stream(s)")
        if self.stream_aborted_metric != drops:
            violations.append(
                f"injected {drops} chunk drop(s) but the fleet recorded "
                f"{self.stream_aborted_metric} in djinn_stream_aborted_total")
        if self.sessions_leaked != 0:
            violations.append(
                f"{self.sessions_leaked} session(s) still live after every "
                f"stream ended (leak)")
        if self.app_lost != 0:
            violations.append(
                f"{self.app_lost} app request(s) lost: no answer and no "
                f"typed error")
        if self.app_mismatched != 0:
            violations.append(
                f"{self.app_mismatched} app request(s) answered with the "
                f"wrong application result")
        poisons = sum(count for label, count in self.injected.items()
                      if label.startswith("app.preprocess:error"))
        if self.app_errors.get("DjinnServiceError", 0) != poisons:
            violations.append(
                f"injected {poisons} preprocess poison(s) but the client "
                f"saw {self.app_errors.get('DjinnServiceError', 0)} typed "
                f"service error(s) on app requests")
        if self.app_traces != self.app_requests:
            violations.append(
                f"expected one closed client.app root per app request "
                f"({self.app_requests}), found {self.app_traces}")
        if self.dup_lost != 0:
            violations.append(
                f"{self.dup_lost} duplicate request(s) lost: no answer and "
                f"no typed error")
        if self.dup_mismatched != 0:
            violations.append(
                f"{self.dup_mismatched} duplicate request(s) answered with "
                f"the wrong payload")
        if self.cache_mb > 0 and self.dup_requests:
            # only sound when probe poisons land on duplicate ordinals (the
            # cache_poison scenario pins nth past the unique unary range):
            # a poisoned probe fails open, so it moves neither counter
            poisons = sum(count for label, count in self.injected.items()
                          if label.startswith("cache.probe:error"))
            expected_hits = self.dup_requests - poisons
            if self.cache_hits_metric != expected_hits:
                violations.append(
                    f"issued {self.dup_requests} duplicate request(s) with "
                    f"{poisons} poisoned probe(s) but "
                    f"gateway_cache_hits_total recorded "
                    f"{self.cache_hits_metric} (expected {expected_hits})")
            if not (self.shed or self.expired or self.app_requests):
                probed = self.requests + self.dup_requests
                accounted = (self.cache_hits_metric
                             + self.cache_misses_metric + poisons)
                if accounted != probed:
                    violations.append(
                        f"cache probe conservation broke: "
                        f"{self.cache_hits_metric} hit(s) + "
                        f"{self.cache_misses_metric} miss(es) + {poisons} "
                        f"poisoned probe(s) != {probed} probed request(s)")
        return violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "requests": self.requests,
            "ok": self.ok,
            "errors": dict(sorted(self.errors.items())),
            "error_total": self.error_total,
            "mismatched": self.mismatched,
            "lost": self.lost,
            "shed": self.shed,
            "expired": self.expired,
            "shed_metric": self.shed_metric,
            "expired_metric": self.expired_metric,
            "retry_budget": self.retry_budget,
            "retries_logged": self.retries_logged,
            "retries_metric": self.retries_metric,
            "retry_exhausted_metric": self.retry_exhausted_metric,
            "transitions": dict(sorted(self.transitions.items())),
            "injected": dict(sorted(self.injected.items())),
            "injected_total": self.injected_total,
            "worker_respawns": self.worker_respawns,
            "traces": self.traces,
            "admit_spans": self.admit_spans,
            "expire_spans": self.expire_spans,
            "hedge_spans": self.hedge_spans,
            "hedges_metric": self.hedges_metric,
            "streams": self.streams,
            "chunks": self.chunks,
            "stream_ok": self.stream_ok,
            "stream_aborted": self.stream_aborted,
            "stream_mismatched": self.stream_mismatched,
            "stream_aborted_metric": self.stream_aborted_metric,
            "sessions_leaked": self.sessions_leaked,
            "app_requests": self.app_requests,
            "app_ok": self.app_ok,
            "app_errors": dict(sorted(self.app_errors.items())),
            "app_mismatched": self.app_mismatched,
            "app_lost": self.app_lost,
            "app_traces": self.app_traces,
            "dup_requests": self.dup_requests,
            "dup_ok": self.dup_ok,
            "dup_errors": dict(sorted(self.dup_errors.items())),
            "dup_mismatched": self.dup_mismatched,
            "dup_lost": self.dup_lost,
            "cache_mb": self.cache_mb,
            "cache_hits_metric": self.cache_hits_metric,
            "cache_misses_metric": self.cache_misses_metric,
            "violations": self.check(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class _RetryLogCounter(logging.Handler):
    """Counts the gateway's structured retry events as obs would see them."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.retries = 0
        self.exhausted = 0

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("event=retry.exhausted"):
            self.exhausted += 1
        elif message.startswith("event=retry "):
            self.retries += 1


def _counter_total(registry: MetricsRegistry, name: str) -> int:
    family = registry.get(name)
    if family is None:
        return 0
    return int(sum(child.value for _, child in family.children()))


def _transition_totals(registry: MetricsRegistry) -> Dict[str, int]:
    """mark_down/mark_up totals, aggregated over (dynamic-port) backends."""
    family = registry.get("gateway_backend_transitions_total")
    totals: Dict[str, int] = {}
    if family is None:
        return totals
    event_at = family.labelnames.index("event")
    for labelvalues, child in family.children():
        event = labelvalues[event_at]
        totals[event] = totals.get(event, 0) + int(child.value)
    return totals


class ChaosHarness:
    """Drive a gateway + fleet under a fault plan; produce a ChaosReport.

    Parameters
    ----------
    plan:
        The fault schedule.  The harness arms it before the gateway's first
        health sweep, so startup probes are already inside the blast radius.
    registry:
        Models to serve; defaults to the cached single-``model`` registry
        (tests pass a shared one to amortize materialization).
    requests:
        Length of the sequential load loop.
    backends:
        Fleet size behind the gateway.
    batching:
        Optional :class:`repro.core.BatchPolicy` for the backends — the
        ``batch.execute`` fault site only sees traffic when this is set.
    retry:
        Gateway retry budget; the default keeps backoff sleeps short so a
        full chaos suite stays fast.
    client_timeout_s / backend_timeout_s:
        Socket timeouts for the harness client and the gateway's backend
        connections; stall scenarios set these below their ``delay_s``.
    probe_rounds:
        Health sweeps run *after* the load loop at a deterministic point
        (the background prober is parked at a huge interval), so
        ``health.probe`` flap schedules line up run to run.
    workers:
        ``"proc:N"`` makes every backend front a forked process
        pool; the plan is then *also* armed inside each worker (with a
        per-worker derived seed), so worker-side sites like
        ``proc.dispatch`` and ``batch.execute`` fire in the fleet's
        forked processes, not just the parent.
    sched, qos, deadlines:
        QoS wiring: ``sched`` picks the backends' scheduling policy
        (requires ``batching``), ``qos`` is the gateway's
        :class:`repro.sched.QosConfig`, and ``deadlines`` is a tuple of
        per-request deadline budgets in ms, cycled over the load loop
        (0.0 = no deadline for that request).  With all three at their
        defaults the harness issues exactly the pre-QoS byte stream.
        Determinism note: a deadline either comfortably exceeds the
        service time (never expires) or is impossibly small (always
        expires at the first dead-on-arrival check) — mid-range deadlines
        would make the report racy.
    streams, chunks:
        Streaming load after the unary loop: ``streams`` sequential
        streams of ``chunks`` stamped chunks each, driven through the
        gateway's stream proxy.  Sequential on purpose, like the unary
        loop — the ``stream.chunk`` fault site's event ordinals are then
        a pure function of the plan seed.  A drop at chunk event *k*
        aborts the stream that sent it; the harness stops feeding an
        aborted stream, so each injected drop costs exactly one stream.
    app_requests:
        Raw-payload load after the unary loop: that many sequential
        APP_REQUEST frames for ``model`` (which must have a
        default serving app — e.g. ``dig``), each answer checked against
        the locally recomputed application result.  The
        ``app.preprocess`` fault site only sees traffic when this is set.
    cache_mb, dup_requests:
        Response-cache load: ``cache_mb`` arms the gateway's
        content-addressed cache, and ``dup_requests`` issues that many
        byte-identical replays of unary request 1's payload right after
        the unary loop (cache-probe events are then contiguous: the
        unique requests probe first, the duplicates after).  Every
        duplicate must be served from the entry request 1 inserted; the
        ``cache.probe`` fault site only sees traffic when ``cache_mb``
        is set, and a poisoned probe must fail open (forwarded miss,
        correct answer, no counter moved).
    """

    def __init__(self, plan: FaultPlan, *,
                 registry: Optional[ModelRegistry] = None,
                 model: str = "pos",
                 requests: int = 24,
                 backends: int = 2,
                 batching=None,
                 retry: Optional[RetryPolicy] = None,
                 client_timeout_s: float = 5.0,
                 backend_timeout_s: float = 5.0,
                 probe_rounds: int = 0,
                 service_floor_s: float = 0.0,
                 workers: Optional[str] = None,
                 sched=None,
                 qos=None,
                 deadlines: tuple = (),
                 streams: int = 0,
                 chunks: int = 3,
                 app_requests: int = 0,
                 cache_mb: float = 0.0,
                 dup_requests: int = 0):
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        if app_requests < 0:
            raise ValueError(
                f"app_requests must be >= 0, got {app_requests}")
        if cache_mb < 0 or dup_requests < 0:
            raise ValueError(
                f"cache_mb and dup_requests must be >= 0, got "
                f"cache_mb={cache_mb} dup_requests={dup_requests}")
        if any(d < 0 for d in deadlines):
            raise ValueError(f"deadlines must be >= 0, got {deadlines}")
        if streams < 0 or chunks < 1:
            raise ValueError(
                f"streams must be >= 0 and chunks >= 1, got "
                f"streams={streams} chunks={chunks}")
        self.plan = plan
        self.registry = registry if registry is not None else default_registry(model)
        self.model = model
        self.requests = requests
        self.backends = backends
        self.batching = batching
        self.retry = retry or RetryPolicy(max_attempts=4, base_delay_s=0.005,
                                          max_delay_s=0.02)
        self.client_timeout_s = client_timeout_s
        self.backend_timeout_s = backend_timeout_s
        self.probe_rounds = probe_rounds
        self.service_floor_s = service_floor_s
        self.workers = workers
        self.sched = sched
        self.qos = qos
        self.deadlines = tuple(deadlines)
        self.streams = streams
        self.chunks = chunks
        self.app_requests = app_requests
        self.cache_mb = cache_mb
        self.dup_requests = dup_requests

    # ----------------------------------------------------------------- load
    def _input(self, index: int, shape) -> np.ndarray:
        """A payload that names its request: stamp the ordinal into the
        tensor so a response can be matched to exactly one request."""
        x = np.full((1,) + tuple(shape), 0.25, dtype=np.float32)
        x.reshape(-1)[0] = float(index + 1)
        return x

    def _app_raw(self, index: int, shape) -> np.ndarray:
        """A stamped uint8 raw payload (pixels on the wire, an APP frame)."""
        raw = np.full(tuple(shape), 64, dtype=np.uint8)
        raw.reshape(-1)[0] = np.uint8(index + 1)
        return raw

    def _run_dup_requests(self, client: DjinnClient, net,
                          report: ChaosReport) -> None:
        """Sequential byte-identical replays of unary request 1's payload.

        With the cache armed every replay probes the entry request 1's
        miss inserted; a poisoned probe (``cache.probe:error``) fails
        open, so the answer must still be correct either way — the only
        trace of the fault is the hit the counters never recorded.
        """
        x = self._input(0, net.input_shape)
        expected = net.forward(x)
        for _ in range(self.dup_requests):
            try:
                out = client.infer(self.model, x)
            except (DjinnConnectionError, DjinnServiceError) as exc:
                kind = type(exc).__name__
                report.dup_errors[kind] = report.dup_errors.get(kind, 0) + 1
            else:
                if (out.shape == expected.shape
                        and np.allclose(out, expected, rtol=1e-4, atol=1e-5)):
                    report.dup_ok += 1
                else:
                    report.dup_mismatched += 1

    def _run_app_requests(self, client: DjinnClient,
                          report: ChaosReport) -> None:
        """Sequential raw-payload loop; answers checked against the app's
        own kernels run locally (preprocess → forward → postprocess), so a
        cross-wired or stale application answer is caught by content."""
        from ..tonic.serve import build_default_apps, raw_item_shape

        app = build_default_apps(self.registry)[self.model]
        net = self.registry.get(self.model)
        shape = raw_item_shape(self.model, net.input_shape)
        for i in range(self.app_requests):
            raw_u8 = self._app_raw(i, shape)
            # the server decodes KIND_U8 as float32/255; recompute from the
            # same quantized bytes so the comparison is exact
            raw = raw_u8.astype(np.float32) / np.float32(255.0)
            expected = app.postprocess(net.forward(app.preprocess(raw)), raw)
            try:
                result = client.infer_app(self.model, raw_u8)
            except (DjinnConnectionError, DjinnServiceError) as exc:
                kind = type(exc).__name__
                report.app_errors[kind] = report.app_errors.get(kind, 0) + 1
            else:
                if result == expected:
                    report.app_ok += 1
                else:
                    report.app_mismatched += 1

    def _run_stream(self, client: DjinnClient, net, stream_index: int,
                    report: ChaosReport) -> None:
        """One sequential stream: stamped chunks, transcript-checked final.

        The expected transcript is computed locally (argmax of the net's
        own forward pass per chunk), so a stale, reordered, or cross-wired
        partial shows up as a mismatch — the streaming analogue of the
        unary loop's payload stamping.
        """
        expected = []
        try:
            stream = client.open_stream(self.model)
            for c_idx in range(self.chunks):
                x = self._input(stream_index * self.chunks + c_idx,
                                net.input_shape)
                expected.append(int(np.argmax(net.forward(x))))
                partial = stream.send(x)
                if partial.data.get("count") != c_idx + 1:
                    report.stream_mismatched += 1
                    stream.close()
                    return
            final = stream.close()
            if (final.final and final.data.get("count") == self.chunks
                    and list(final.data.get("labels", ())) == expected):
                report.stream_ok += 1
            else:
                report.stream_mismatched += 1
        except DjinnStreamError:
            # typed stream death (injected drop): sanctioned abort — the
            # session must be gone server-side, which the leak check proves
            report.stream_aborted += 1
        except (DjinnConnectionError, DjinnServiceError) as exc:
            kind = type(exc).__name__
            report.errors[kind] = report.errors.get(kind, 0) + 1

    def run(self) -> ChaosReport:
        net = self.registry.get(self.model)
        report = ChaosReport(scenario=self.plan.name or "custom",
                             seed=self.plan.seed, requests=self.requests,
                             retry_budget=self.retry.max_attempts,
                             streams=self.streams,
                             chunks=self.chunks if self.streams else 0,
                             app_requests=self.app_requests,
                             dup_requests=self.dup_requests,
                             cache_mb=self.cache_mb)

        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.clear()
        tracer.enable()
        gw_logger = logging.getLogger("repro.gateway")
        retry_counter = _RetryLogCounter()
        old_level = gw_logger.level
        gw_logger.addHandler(retry_counter)
        gw_logger.setLevel(logging.INFO)
        try:
            with ClusterLauncher(self.registry, backends=self.backends,
                                 batching=self.batching, sched=self.sched,
                                 service_floor_s=self.service_floor_s,
                                 workers=self.workers,
                                 worker_fault_plan=(self.plan if self.workers
                                                    else None)) as cluster:
                gateway = GatewayServer(
                    cluster.addresses, policy="round_robin", retry=self.retry,
                    health_interval_s=3600.0,  # probes only where scheduled
                    backend_timeout_s=self.backend_timeout_s,
                    qos=self.qos,
                    cache_mb=self.cache_mb,
                )
                with self.plan.armed() as injector:
                    gateway.start()
                    client = None
                    try:
                        host, port = gateway.address
                        client = DjinnClient(host, port,
                                             timeout_s=self.client_timeout_s)
                        for i in range(self.requests):
                            x = self._input(i, net.input_shape)
                            expected = net.forward(x)
                            deadline_ms = (self.deadlines[i % len(self.deadlines)]
                                           if self.deadlines else 0.0)
                            try:
                                out = client.infer(self.model, x,
                                                   deadline_ms=deadline_ms)
                            except (DjinnConnectionError,
                                    DjinnServiceError) as exc:
                                kind = type(exc).__name__
                                report.errors[kind] = report.errors.get(kind, 0) + 1
                            else:
                                if (out.shape == expected.shape
                                        and np.allclose(out, expected,
                                                        rtol=1e-4, atol=1e-5)):
                                    report.ok += 1
                                else:
                                    report.mismatched += 1
                        if self.dup_requests:
                            self._run_dup_requests(client, net, report)
                        if self.app_requests:
                            self._run_app_requests(client, report)
                        for s_idx in range(self.streams):
                            self._run_stream(client, net, s_idx, report)
                        if self.streams:
                            report.stream_aborted_metric = sum(
                                _counter_total(server.metrics,
                                               "djinn_stream_aborted_total")
                                for server in cluster.servers)
                            report.sessions_leaked = sum(
                                server.sessions.count()
                                for server in cluster.servers)
                        for _ in range(self.probe_rounds):
                            gateway.health.probe_all()
                        report.retries_metric = _counter_total(
                            gateway.metrics, "gateway_retries_total")
                        report.retry_exhausted_metric = _counter_total(
                            gateway.metrics, "gateway_retry_exhausted_total")
                        report.transitions = _transition_totals(gateway.metrics)
                        report.injected = injector.fires()
                        report.shed = report.errors.get(
                            "DjinnOverloadedError", 0)
                        report.expired = report.errors.get(
                            "DjinnDeadlineError", 0)
                        report.shed_metric = _counter_total(
                            gateway.metrics, "gateway_admission_rejected_total")
                        report.expired_metric = _counter_total(
                            gateway.metrics, "gateway_expired_total") + sum(
                            _counter_total(server.metrics,
                                           "djinn_sched_expired_total")
                            for server in cluster.servers)
                        report.worker_respawns = sum(
                            _counter_total(server.metrics,
                                           "djinn_proc_worker_respawns_total")
                            for server in cluster.servers)
                        report.hedges_metric = _counter_total(
                            gateway.metrics, "gateway_hedges_total")
                        report.cache_hits_metric = _counter_total(
                            gateway.metrics, "gateway_cache_hits_total")
                        report.cache_misses_metric = _counter_total(
                            gateway.metrics, "gateway_cache_misses_total")
                    finally:
                        if client is not None:
                            client.close()
                        gateway.stop()
        finally:
            gw_logger.removeHandler(retry_counter)
            gw_logger.setLevel(old_level)
            report.retries_logged = retry_counter.retries
            # even a request that died in transport must leave a closed
            # client.infer root span — that is the "traces close cleanly"
            # invariant, read straight off the tracer
            spans = tracer.spans()
            rooted = {s.trace_id for s in spans
                      if s.name == "client.infer" and s.end_s is not None}
            report.traces = len(rooted)
            report.app_traces = len({s.trace_id for s in spans
                                     if s.name == "client.app"
                                     and s.end_s is not None})
            # span-side mirror of the typed QoS outcomes, counted only over
            # rooted traces (foreign late spans must not perturb the report)
            span_counts = {"sched.admit": 0, "sched.expire": 0,
                           "gateway.hedge": 0}
            for s in spans:
                if (s.name in span_counts and s.end_s is not None
                        and s.trace_id in rooted):
                    span_counts[s.name] += 1
            report.admit_spans = span_counts["sched.admit"]
            report.expire_spans = span_counts["sched.expire"]
            report.hedge_spans = span_counts["gateway.hedge"]
            tracer.clear()
            if not was_enabled:
                tracer.disable()
        return report
