"""The gateway front-end: one address that speaks for a DjiNN fleet.

Speaks the existing DjiNN wire protocol, so :class:`repro.core.DjinnClient`
and :class:`repro.core.RemoteBackend` work against it unchanged:

* ``INFER_REQUEST`` / ``APP_REQUEST`` — one routine for both: routed to a
  healthy backend under the configured policy and relayed with the payload
  untouched and the *remaining* deadline budget re-stamped (so for an APP
  frame the backend runs the whole Tonic preprocess → DNN → postprocess
  pipeline; apps are named after their models, so routing needs no extra
  table).  Transport failures burn the retry budget (exponential backoff +
  jitter, failing over to the next candidate) before an ERROR frame is
  surfaced; whatever the backend *answers* — the result, or a typed ERROR /
  DEADLINE_EXCEEDED / OVERLOADED refusal — is relayed as it arrived, never
  retried: retrying a request the model rejected wastes the fleet's time.
* ``LIST_REQUEST`` — union of model names across healthy backends.
* ``METRICS_REQUEST`` — the gateway's registry merged with every healthy
  backend's: its own ``gateway_*`` ledger beside the fleet's ``djinn_*``
  one (``DjinnClient.stats`` summarizes both).
* ``STREAM_OPEN`` / ``STREAM_CHUNK`` / ``STREAM_CLOSE`` — proxied to one
  backend pinned for the stream's lifetime (rendezvous affinity over the
  healthy fleet): session state lives server-side, so chunks cannot fail
  over mid-stream.  Each stream holds a dedicated upstream connection;
  closing the client connection closes the upstreams, which lets the
  backends reap their sessions as disconnects.
* ``SHUTDOWN`` — stops the gateway (backends are owned by their launcher).
"""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import faultsite
from ..core.client import DjinnConnectionError, DjinnServiceError
from ..core.protocol import Message, MessageType, encode_message, with_trace
from ..core.server import TcpServiceBase, UnaryContext
from ..core.stats import RequestLedger
from ..obs.metrics import ChildMap, MetricsRegistry, merge_dumps
from ..obs.slo import BurnRateMonitor
from ..obs.trace import NOOP_SPAN, Tracer, get_tracer, log_event
from ..sched import AdmissionController, LatencyModel, QosConfig, Rejection
from .cache import ResponseCache, response_key
from .health import HealthChecker
from .pool import BackendHandle, BackendPool
from .retry import RetryPolicy
from .router import Router

__all__ = ["GatewayServer"]

logger = logging.getLogger("repro.gateway")


#: the reply type that answers each unary request kind, and the typed
#: refusals a backend may send instead (relayed untouched, never retried)
_ANSWER = {MessageType.INFER_REQUEST: MessageType.INFER_RESPONSE,
           MessageType.APP_REQUEST: MessageType.APP_RESPONSE}
_REFUSALS = (MessageType.ERROR, MessageType.DEADLINE_EXCEEDED,
             MessageType.OVERLOADED)


class _HedgeArm:
    """Cancellation handle for one arm of a hedged request.

    Tracks the arm's in-flight client so the winning arm can interrupt a
    roundtrip the loser is still blocked in; a cancel that lands before the
    client is set fires as soon as it is.
    """

    __slots__ = ("_lock", "_client", "backend_key", "_cancelled")

    def __init__(self):
        self._lock = threading.Lock()
        self._client = None
        self.backend_key = ""
        self._cancelled = False

    def set(self, client, backend_key: str) -> None:
        with self._lock:
            self._client = client
            self.backend_key = backend_key
            cancelled = self._cancelled
        if cancelled and client is not None:
            client.interrupt()

    def clear(self) -> None:
        with self._lock:
            self._client = None

    def cancel(self) -> None:
        with self._lock:
            self._cancelled = True
            client = self._client
        if client is not None:
            client.interrupt()


class _ProxyStream:
    """One client stream pinned to one backend connection for its lifetime."""

    __slots__ = ("backend", "client", "model", "lock")

    def __init__(self, backend: BackendHandle, client, model: str):
        self.backend = backend
        self.client = client
        self.model = model
        # stream frames are strictly ordered per stream; the lock guards
        # against a misbehaving client pipelining frames for one stream id
        # across the connection's reader thread and the disconnect path
        self.lock = threading.Lock()


class GatewayServer(TcpServiceBase):
    """Sharded, fault-tolerant TCP front-end for N DjiNN backends.

    Parameters
    ----------
    backends:
        ``(host, port)`` addresses of the fleet (e.g.
        :attr:`ClusterLauncher.addresses`).
    policy:
        Routing policy name — see :data:`repro.gateway.router.POLICIES`.
    retry:
        Transport-failure retry budget; defaults to 3 attempts with
        20 ms base backoff.
    health_interval_s:
        Period of the background LIST_REQUEST probes.  ``start()`` always
        runs one synchronous probe sweep so routing begins informed.
    clock:
        Monotonic time source for latency accounting (injected for
        testability; the stack standardizes on ``time.monotonic``).
    tracer:
        Span collector; defaults to the process tracer (disabled until
        enabled).  Traced requests get ``gateway.infer`` → ``gateway.queue``
        / ``gateway.backend`` spans; the ``gateway.backend`` span is the
        trace context forwarded on the wire, so the chosen backend's
        ``backend.infer`` / ``backend.app`` tree hangs directly under it.
    qos:
        Optional :class:`repro.sched.QosConfig` arming the QoS surface:
        admission control (requests predicted to miss their deadline are
        shed with a typed OVERLOADED + ``retry_after_ms`` instead of
        queueing to die), per-tenant token buckets, and hedged requests
        (``hedge_ms``: a second backend is tried when the primary is slow;
        first response wins, the loser's roundtrip is interrupted).  With
        ``qos=None`` the gateway still *propagates* deadlines and passes
        typed DEADLINE_EXCEEDED / OVERLOADED responses through un-retried —
        retrying a spent budget wastes the fleet's time.
    cache_mb:
        Bytes budget (in MiB) of the content-addressed response cache;
        ``0`` (the default) disables it entirely — no cache metrics are
        registered and every frame takes exactly the uncached path.  When
        enabled, unary INFER/APP requests are probed after admission (the
        QoS gate still sheds and expires exactly as before) and answered
        from the cache when the (model, payload) content key hits; stream
        frames always bypass.  See :mod:`repro.gateway.cache`.

    Health and retry events (mark-down, mark-up, per-request retries,
    exhausted budgets) increment labeled counters in :attr:`metrics` and
    emit structured ``event=…`` log lines on the ``repro.gateway`` logger.
    """

    service_name = "gateway"

    def __init__(
        self,
        backends: Sequence[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        policy: str = "round_robin",
        retry: Optional[RetryPolicy] = None,
        health_interval_s: float = 0.5,
        backend_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        qos: Optional[QosConfig] = None,
        cache_mb: float = 0.0,
    ):
        super().__init__(host=host, port=port)
        self._data_plane = {
            MessageType.INFER_REQUEST: self._serve_unary,
            MessageType.APP_REQUEST: self._serve_unary,
            MessageType.STREAM_OPEN: self._stream_open,
            MessageType.STREAM_CHUNK: self._stream_forward,
            MessageType.STREAM_CLOSE: self._stream_forward,
        }
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = MetricsRegistry()
        self._transitions = self.metrics.counter(
            "gateway_backend_transitions_total",
            "Backend health transitions observed by the gateway.",
            ("backend", "event"))
        self._retries = self.metrics.counter(
            "gateway_retries_total",
            "Transport-failure retries spent, per model.", ("model",))
        self._exhausted = self.metrics.counter(
            "gateway_retry_exhausted_total",
            "Requests failed after the whole retry budget, per model.",
            ("model",))
        self._shed = self.metrics.counter(
            "gateway_admission_rejected_total",
            "Requests shed at admission, per model and reason.",
            ("model", "reason"))
        self._gw_expired = self.metrics.counter(
            "gateway_expired_total",
            "Requests whose deadline was already spent at the gateway.",
            ("model",))
        self._hedges = self.metrics.counter(
            "gateway_hedges_total",
            "Hedge arms actually launched, per model.", ("model",))
        self._hedge_wins = self.metrics.counter(
            "gateway_hedge_wins_total",
            "Hedged requests won, per model and arm.", ("model", "winner"))
        self._slo = self.metrics.counter(
            "gateway_slo_requests_total",
            "Deadline-carrying requests, per model and outcome "
            "(met|missed|expired|shed|failed).", ("model", "outcome"))
        self._stage_seconds = ChildMap(self.metrics.counter(
            "gateway_stage_seconds_total",
            "Seconds spent per gateway stage, per model "
            "(successful forwards).", ("model", "stage")))
        #: content-addressed response cache (None = disabled; the metric
        #: families below are only registered when it exists, so a cache-off
        #: gateway's metrics dump is byte-identical to pre-cache builds)
        self.cache = (ResponseCache(int(cache_mb * 1024 * 1024))
                      if cache_mb > 0 else None)
        if self.cache is not None:
            self._cache_hits = ChildMap(self.metrics.counter(
                "gateway_cache_hits_total",
                "Response-cache hits, per model.", ("model",)))
            self._cache_misses = ChildMap(self.metrics.counter(
                "gateway_cache_misses_total",
                "Response-cache misses (collisions included), per model.",
                ("model",)))
            self._cache_evictions = self.metrics.counter(
                "gateway_cache_evictions_total",
                "Response-cache entries evicted past the bytes budget.")
            self._cache_bytes = self.metrics.gauge(
                "gateway_cache_bytes",
                "Response payload bytes currently retained in the cache.")
        #: multi-window error-budget burn over end-to-end attainment (the
        #: client-visible SLO, gating on everything the fleet did)
        self.slo_monitor = BurnRateMonitor(clock=clock, logger=logger)
        self.qos = qos
        #: fleet-level latency curve (refined by every successful forward)
        #: driving admission predictions and derived hedge delays
        self.latency = LatencyModel()
        self._admission = (
            AdmissionController(qos, self.latency, clock)
            if qos is not None and qos.admission else None)
        self.pool = BackendPool(backends, timeout_s=backend_timeout_s,
                                observer=self._on_transition,
                                tracer=self.tracer)
        self.router = Router(self.pool, policy=policy)
        self.retry = retry or RetryPolicy()
        self.health = HealthChecker(self.pool, interval_s=health_interval_s,
                                    probe_timeout_s=backend_timeout_s)
        self.ledger = RequestLedger(self.metrics, prefix="gateway")
        self._rng = random.Random(0x6A7E)
        self._rng_lock = threading.Lock()
        self._gw_streams = self.metrics.counter(
            "gateway_streams_total",
            "Streams proxied, per model and outcome "
            "(completed|aborted|rejected).", ("model", "outcome"))
        self._gw_stream_frames = self.metrics.counter(
            "gateway_stream_frames_total",
            "Stream chunk frames proxied, per model.", ("model",))
        #: (id(conn), stream_id) -> live proxied stream
        self._streams: Dict[Tuple[int, int], _ProxyStream] = {}
        self._streams_lock = threading.Lock()

    # -------------------------------------------------------------- events
    def _on_transition(self, event: str, backend: BackendHandle) -> None:
        self._transitions.labels(backend=backend.key, event=event).inc()
        log_event(
            logger, f"backend.{event}",
            level=logging.WARNING if event == "mark_down" else logging.INFO,
            backend=backend.key, failures=backend.failures,
        )

    # ------------------------------------------------------------ lifecycle
    def _on_start(self) -> None:
        self.health.probe_all()
        self.health.start()

    def _on_stop(self) -> None:
        self.health.stop()
        self.pool.close()

    def _model_names(self):
        if not self.pool.model_names():
            self.health.probe_all()  # nothing cached yet (or fleet was down)
        return self.pool.model_names()

    # ------------------------------------------------------------ streaming
    def _stream_error(self, request: Message, text: str) -> Message:
        return self._reply(request, MessageType.ERROR, text=text,
                           stream_id=request.stream_id)

    def _stream_open(self, conn: socket.socket, request: Message) -> Message:
        """Pin a new stream to one backend and relay the open handshake."""
        model = request.name
        key = (id(conn), request.stream_id)
        with self._streams_lock:
            if key in self._streams:
                return self._stream_error(
                    request, f"stream {request.stream_id} is already open")
        candidates = self.router.route_stream(model, f"{key[0]}:{key[1]}")
        if not candidates:
            self.health.probe_all()
            candidates = self.router.route_stream(model, f"{key[0]}:{key[1]}")
        for backend in candidates:
            try:
                client = backend.checkout()
            except DjinnConnectionError:
                backend.mark_down()
                continue
            try:
                reply = client.exchange(request)
            except DjinnConnectionError:
                backend.checkin(client, ok=False)
                backend.mark_down()
                continue
            if reply.type == MessageType.STREAM_OPEN:
                with self._streams_lock:
                    self._streams[key] = _ProxyStream(backend, client, model)
                log_event(logger, "stream.open", model=model,
                          stream=request.stream_id, backend=backend.key)
                return reply
            # typed rejection (SESSION_LIMIT or ERROR): the connection is
            # fine, the backend said no — relay it and pool the connection
            backend.checkin(client, ok=True)
            self._gw_streams.labels(model=model, outcome="rejected").inc()
            return reply
        self._gw_streams.labels(model=model, outcome="rejected").inc()
        return self._stream_error(
            request, f"no healthy backend for stream of {model!r}")

    def _stream_forward(self, conn: socket.socket, request: Message) -> Message:
        """Relay one chunk/close frame over the stream's pinned connection."""
        key = (id(conn), request.stream_id)
        with self._streams_lock:
            stream = self._streams.get(key)
        if stream is None:
            return self._stream_error(
                request, f"unknown or closed stream {request.stream_id}")
        if request.type == MessageType.STREAM_CHUNK:
            self._gw_stream_frames.labels(model=stream.model).inc()
        with stream.lock:
            try:
                reply = stream.client.exchange(request)
            except DjinnConnectionError as exc:
                # the pinned backend died mid-stream; session state is gone
                # with it, so the stream cannot fail over — surface a typed
                # stream error and let the client reopen (rendezvous will
                # pick the next backend once this one is marked down)
                self._teardown_stream(key, ok=False, outcome="aborted")
                stream.backend.mark_down()
                return self._stream_error(
                    request, f"stream backend lost: {exc}")
        if reply.type == MessageType.ERROR:
            self._teardown_stream(key, ok=True, outcome="aborted")
        elif reply.type == MessageType.STREAM_RESULT and reply.stream_final:
            self._teardown_stream(key, ok=True, outcome="completed")
        return reply

    def _teardown_stream(self, key: Tuple[int, int], ok: bool,
                         outcome: str) -> None:
        with self._streams_lock:
            stream = self._streams.pop(key, None)
        if stream is None:
            return
        stream.backend.checkin(stream.client, ok=ok)
        self._gw_streams.labels(model=stream.model, outcome=outcome).inc()

    def _on_disconnect(self, conn: socket.socket) -> None:
        """Close upstreams of a departed client so backends reap sessions."""
        conn_key = id(conn)
        with self._streams_lock:
            dropped = [key for key in self._streams if key[0] == conn_key]
        for key in dropped:
            # ok=False discards the upstream connection instead of pooling
            # it: the backend sees a disconnect and reaps the session
            self._teardown_stream(key, ok=False, outcome="aborted")
            log_event(logger, "stream.disconnect", level=logging.WARNING,
                      stream=key[1])

    # ---------------------------------------------------------- forwarding
    def _serve_unary(self, conn: socket.socket, request: Message):
        """Answer one INFER_REQUEST or APP_REQUEST — the only unary routine.

        Both kinds take the same stages over one :class:`UnaryContext`:
        admission gate → response-cache probe → route / retry / hedge →
        cache insert → ledger and SLO.  The frame is relayed with its
        payload untouched, so for an APP_REQUEST the backend runs the whole
        Tonic pipeline server-side.  Returns the encoded reply: a cache hit
        is the stored frame re-stamped with the caller's trace context.
        """
        if request.type == MessageType.INFER_REQUEST and request.tensor is None:
            return self._reply(request, MessageType.ERROR,
                               text="inference request carries no tensor")
        if request.type == MessageType.APP_REQUEST and not request.payload_kind:
            # a text app payload legitimately has no tensor, but every APP
            # frame must declare a payload kind — an untyped one is malformed
            return self._reply(request, MessageType.ERROR,
                               text="app request carries no payload")
        answer = _ANSWER[request.type]
        with UnaryContext(self, request, "gateway.infer", "gateway") as ctx:
            response = (self._admission_gate(ctx)
                        if self.qos is not None else None)
            cache_key = frame = None
            if response is None and self.cache is not None:
                # probe after admission so shed/expire behavior is
                # unchanged; a hit never reaches the fleet
                cache_key, frame = self._cache_probe(ctx)
            if frame is not None:
                replied = answer
            else:
                if response is None:
                    if (self._hedge_delay_s(request.name) > 0
                            and len(self.pool.healthy()) > 1):
                        response = self._forward_hedged(ctx)
                    else:
                        response = self._forward_attempts(ctx)
                frame = encode_message(response)
                replied = response.type
                if cache_key is not None and replied == answer:
                    self._cache_insert(cache_key, request, response, frame)
            if replied == answer:
                elapsed = self._clock() - ctx.start
                self.ledger.record(
                    request.name, elapsed, exemplar=ctx.exemplar,
                    inputs=(len(request.tensor) if request.type
                            == MessageType.INFER_REQUEST else 1))
                # a hit counts toward throughput but never feeds the
                # latency model: near-zero hit latencies would poison the
                # admission and hedging estimates of backend service time
                if response is not None:
                    self.latency.observe(request.name, 1, elapsed)
            if ctx.deadline_s is not None:
                self._record_slo(request.name, replied, ctx.deadline_s)
        return frame

    _SLO_OUTCOMES = {
        MessageType.INFER_RESPONSE: "met",       # demoted to missed when late
        MessageType.APP_RESPONSE: "met",
        MessageType.DEADLINE_EXCEEDED: "expired",
        MessageType.OVERLOADED: "shed",
    }

    def _record_slo(self, model: str, replied: MessageType,
                    deadline_s: float) -> None:
        """Account one deadlined request's end-to-end outcome; re-check burn."""
        outcome = self._SLO_OUTCOMES.get(replied, "failed")
        if outcome == "met" and self._clock() > deadline_s:
            outcome = "missed"
        self._slo.labels(model=model or "?", outcome=outcome).inc()
        self.slo_monitor.record(model or "?", attained=outcome == "met")
        self.slo_monitor.check()

    # ----------------------------------------------------------- QoS gate
    def _expired(self, ctx: UnaryContext, since: float, where: str,
                 **attrs) -> Message:
        """Typed refusal of a request whose budget is already spent: the
        same DEADLINE_EXCEEDED the backend scheduler would answer with."""
        model = ctx.request.name
        now = self._clock()
        self._gw_expired.labels(model=model).inc()
        ctx.add_span("sched.expire", since, now, "sched", model=model,
                     late_ms=round((now - ctx.deadline_s) * 1e3, 3), **attrs)
        return ctx.reply(MessageType.DEADLINE_EXCEEDED,
                         text=f"deadline exceeded for {model!r}: budget {where}")

    def _admission_gate(self, ctx: UnaryContext) -> Optional[Message]:
        """Shed-or-admit decision; a Message means the request is refused.

        Refusals are visible in the trace: a spent budget closes with a
        ``sched.expire`` span, a shed request with a ``sched.admit`` span
        carrying the rejection reason.
        """
        model = ctx.request.name
        gate_start = self._clock()
        if ctx.deadline_s is not None and gate_start >= ctx.deadline_s:
            # dead on arrival: the budget was spent in transit
            return self._expired(ctx, gate_start,
                                 "already spent at the gateway")
        rejection: Optional[Rejection] = None
        if faultsite.active is not None and faultsite.active.on_admit(model):
            rejection = Rejection(
                reason="injected",
                message=f"injected admission rejection for {model!r}",
                retry_after_ms=0.0)
        elif self._admission is not None:
            healthy = len(self.pool.healthy())
            total_outstanding = sum(b.outstanding for b in self.pool.backends)
            # outstanding work drains across the fleet in parallel; charge
            # this request the per-backend share, rounded pessimistically
            per_backend = (-(-total_outstanding // healthy)
                           if healthy else total_outstanding)
            rejection = self._admission.admit(model, ctx.deadline_s,
                                              ctx.request.tenant, per_backend)
        if rejection is None:
            return None
        self._shed.labels(model=model, reason=rejection.reason).inc()
        retry_after_ms = round(rejection.retry_after_ms, 3)
        ctx.add_span("sched.admit", gate_start, self._clock(), "sched",
                     model=model, decision="shed", reason=rejection.reason,
                     retry_after_ms=retry_after_ms)
        log_event(logger, "admission.shed", level=logging.WARNING,
                  model=model, reason=rejection.reason,
                  retry_after_ms=retry_after_ms)
        # backpressure frame: typed OVERLOADED, machine-readable body
        return ctx.reply(MessageType.OVERLOADED, text=json.dumps({
            "error": rejection.message, "reason": rejection.reason,
            "retry_after_ms": rejection.retry_after_ms}))

    def _hedge_delay_s(self, model: str) -> float:
        qos = self.qos
        if qos is None or not qos.hedge_ms:
            return 0.0
        if qos.hedge_ms > 0:
            return qos.hedge_ms / 1e3
        # hedge_ms == -1: derive from the measured curve — hedge once the
        # request has waited ~2x the expected service time
        est = self.latency.estimate_s(model, 1)
        return max(2.0 * est, 1e-3)

    # ------------------------------------------------------ response cache
    def _cache_probe(self, ctx: UnaryContext):
        """Probe the response cache for one unary request.

        Returns ``(key, frame)``: the content key to insert the eventual
        answer under after a miss, and on a hit the stored reply frame
        re-stamped with the caller's trace context.  Any probe failure —
        including the ``cache.probe`` fault site — fails open to an
        uncacheable miss (``(None, None)``) so the request is simply
        forwarded as if the cache did not exist.
        """
        request = ctx.request
        model = request.name
        probe_start = self._clock()
        try:
            if faultsite.active is not None:
                faultsite.active.on_cache_probe(model)
            payload = (request.tensor if request.tensor is not None
                       else (request.text or ""))
            key = response_key(model, request.payload_kind, payload)
            entry = self.cache.get(key, model, request.payload_kind)
        except Exception as exc:
            log_event(logger, "cache.probe_failed", level=logging.WARNING,
                      model=model, error=str(exc))
            return None, None
        probe_end = self._clock()
        ctx.add_span("gateway.cache", probe_start, probe_end, "gateway",
                     model=model, outcome="miss" if entry is None else "hit")
        self._stage_seconds[model, "gateway.cache"].inc(
            max(0.0, probe_end - probe_start))
        if entry is None:
            self._cache_misses[model].inc()
            return key, None
        self._cache_hits[model].inc()
        return key, with_trace(entry.frame, request.trace_id, request.span_id)

    def _cache_insert(self, key: bytes, request: Message, response: Message,
                      frame: bytes) -> None:
        """Retain one successful unary reply, as sent, under its key."""
        evicted = self.cache.put(
            key, request.name, request.payload_kind,
            tensor=response.tensor, text=response.text, frame=frame)
        if evicted:
            self._cache_evictions.inc(evicted)
        self._cache_bytes.set(float(self.cache.bytes))

    # ------------------------------------------------------- attempt loop
    def _forward_attempts(self, ctx: UnaryContext,
                          avoid: frozenset = frozenset(),
                          cancel: Optional[threading.Event] = None,
                          inflight: Optional[_HedgeArm] = None) -> Optional[Message]:
        """Route, retry, and forward one request; the original retry loop.

        Each attempt builds one outgoing frame for either kind — payload
        untouched, the *remaining* budget stamped, the ``gateway.backend``
        span as trace context — and relays whatever the backend answered
        by its type: typing happens at the edge client, never mid-path.
        Only a transport failure burns a retry; a typed refusal (ERROR,
        DEADLINE_EXCEEDED, OVERLOADED) passes through as it arrived —
        retrying a request the model rejected, or a spent budget, wastes
        the fleet's time.

        ``avoid`` seeds the tried-set (a hedge arm avoids the primary's
        backend); ``cancel``/``inflight`` wire first-wins cancellation: a
        cancelled arm returns ``None`` without burning retries or marking
        backends down on its self-inflicted transport error.
        """
        clock = self._clock
        request = ctx.request
        model = request.name
        tried: set = set(avoid)
        last_error = "no healthy backends"
        for attempt in range(self.retry.max_attempts):
            if cancel is not None and cancel.is_set():
                return None
            if attempt:
                self._retries.labels(model=model).inc()
                with self._rng_lock:
                    delay = self.retry.delay_s(attempt - 1, self._rng)
                log_event(logger, "retry", level=logging.WARNING,
                          model=model, attempt=attempt,
                          delay_ms=round(delay * 1e3, 3), error=last_error)
                time.sleep(delay)
            if ctx.deadline_s is not None and clock() >= ctx.deadline_s:
                # budget burnt in backoff/routing: stop before another hop
                return self._expired(
                    ctx, ctx.start,
                    f"spent after {attempt + 1} gateway attempt(s)",
                    attempts=attempt + 1)
            candidates = self.router.route(model)
            if not candidates:
                # whole fleet marked down — probe for recoveries right away
                self.health.probe_all()
                candidates = self.router.route(model)
                if not candidates:
                    continue
            # prefer backends this request hasn't burned yet
            fresh = [b for b in candidates if b.key not in tried] or candidates
            backend = fresh[0]
            tried.add(backend.key)
            try:
                client = backend.checkout()
            except DjinnConnectionError as exc:
                backend.mark_down()
                last_error = str(exc)
                continue
            if inflight is not None:
                inflight.set(client, backend.key)
            ok = False
            try:
                remaining_ms = 0.0
                if ctx.deadline_s is not None:
                    # forward the *remaining* budget (floored at 1 µs so a
                    # spent budget still reads as deadlined on the wire and
                    # gets the backend's typed rejection)
                    remaining_ms = max((ctx.deadline_s - clock()) * 1e3, 1e-3)
                rpc_start = clock()
                # routing + any backoff so far is the gateway's "queue"
                # share of the request's timeline
                ctx.add_span("gateway.queue", ctx.start, rpc_start, "queue",
                             attempts=attempt + 1)
                with (self.tracer.span("gateway.backend", category="gateway",
                                       trace_id=ctx.trace[0],
                                       parent_id=ctx.trace[1],
                                       backend=backend.key)
                      if ctx.traced else nullcontext(NOOP_SPAN)) as hop:
                    reply = client.exchange(Message(
                        request.type, name=model, tensor=request.tensor,
                        text=request.text, payload_kind=request.payload_kind,
                        deadline_ms=remaining_ms, priority=request.priority,
                        tenant=request.tenant,
                        trace_id=hop.trace_id, span_id=hop.span_id))
                rpc_end = clock()
                ok = True
            except DjinnConnectionError as exc:
                if cancel is not None and cancel.is_set():
                    # the other arm won and interrupted this roundtrip; the
                    # backend did nothing wrong — do not mark it down
                    return None
                backend.mark_down()
                last_error = str(exc)
                continue
            finally:
                if inflight is not None:
                    inflight.clear()
                backend.checkin(client, ok=ok)
            if reply.type == _ANSWER[request.type]:
                # always-on stage accounting for the successful forward: the
                # routing/backoff share and the backend roundtrip share
                self._stage_seconds[model, "gateway.queue"].inc(
                    max(0.0, rpc_start - ctx.start))
                self._stage_seconds[model, "gateway.rpc"].inc(
                    max(0.0, rpc_end - rpc_start))
            elif reply.type not in _REFUSALS:
                return ctx.reply(MessageType.ERROR,
                                 text=f"unexpected response type {reply.type}")
            # the connection is fine whatever the backend said: hand its
            # frame back under the caller's trace context
            reply.trace_id, reply.span_id = request.trace_id, request.span_id
            return reply
        self._exhausted.labels(model=model).inc()
        log_event(logger, "retry.exhausted", level=logging.ERROR,
                  model=model, attempts=self.retry.max_attempts,
                  error=last_error)
        return ctx.reply(
            MessageType.ERROR,
            text=(f"request for {model!r} failed after "
                  f"{self.retry.max_attempts} attempts: {last_error}"))

    # ------------------------------------------------------------- hedging
    def _forward_hedged(self, ctx: UnaryContext) -> Message:
        """Tail-latency hedging: race a second backend, first response wins.

        The primary arm runs the normal attempt loop; if it has not
        finished within the hedge delay, a second arm fires against a
        different backend.  The first arm to produce a response wins and
        interrupts the loser's in-flight roundtrip (its connection is
        discarded on checkin, not returned to the pool).
        """
        model = ctx.request.name
        done = threading.Event()
        hedged = threading.Event()  # did the second arm actually launch?
        results: List[Tuple[int, Message]] = []
        results_lock = threading.Lock()
        arms = (_HedgeArm(), _HedgeArm())

        def finish(arm_idx: int, response: Optional[Message]) -> None:
            if response is None:
                return  # cancelled arm: the other one already finished
            with results_lock:
                if results:
                    return
                results.append((arm_idx, response))
            done.set()
            arms[1 - arm_idx].cancel()

        hedge_launch = [0.0]  # stamped by the hedge arm when it actually fires

        def run_arm(arm_idx: int) -> None:
            avoid = frozenset()
            try:
                if arm_idx == 0:
                    if faultsite.active is not None:
                        faultsite.active.on_hedge(model)  # injected slowness
                else:
                    if done.wait(self._hedge_delay_s(model)):
                        return  # primary answered inside the hedge window
                    hedge_launch[0] = self._clock()
                    hedged.set()
                    self._hedges.labels(model=model).inc()
                    if arms[0].backend_key:
                        avoid = frozenset((arms[0].backend_key,))
                finish(arm_idx, self._forward_attempts(
                    ctx, avoid=avoid, cancel=done, inflight=arms[arm_idx]))
            except Exception as exc:  # never strand the caller
                finish(arm_idx, ctx.reply(MessageType.ERROR, text=str(exc)))

        for arm_idx, role in enumerate(("primary", "secondary")):
            threading.Thread(target=run_arm, args=(arm_idx,), daemon=True,
                             name=f"gateway-hedge-{role}").start()
        done.wait()
        with results_lock:
            arm_idx, response = results[0]
        if hedged.is_set():  # a win only counts when there was a race
            winner = "primary" if arm_idx == 0 else "hedge"
            self._hedge_wins.labels(model=model, winner=winner).inc()
            ctx.add_span("gateway.hedge", hedge_launch[0] or ctx.start,
                         self._clock(), "gateway", model=model, winner=winner)
        return response

    # ------------------------------------------------------------- metrics
    def _metrics_dump(self) -> dict:
        """Fleet-level metrics: every healthy backend's registry dump merged
        with the gateway's own (name prefixes keep the two populations
        apart: ``djinn_*`` is backend-side, ``gateway_*`` is this process)."""
        dumps: List[dict] = [self.metrics.dump()]
        for backend in self.pool.healthy():
            try:
                client = backend.checkout()
            except DjinnConnectionError:
                backend.mark_down()
                continue
            ok = False
            try:
                dumps.append(client.metrics())
                ok = True
            except (DjinnConnectionError, DjinnServiceError):
                pass  # pre-metrics backend or transport failure: skip it
            finally:
                backend.checkin(client, ok=ok)
        return merge_dumps(dumps)
