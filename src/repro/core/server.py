"""The DjiNN server: a standalone, threaded TCP inference service.

Paper §3.1: "We design the DjiNN service to accept requests using a custom
socket protocol over TCP/IP ...  For each incoming request, DjiNN spawns a
worker thread, executes the DNN computation, and sends the prediction back
to the application."

Each accepted connection gets a worker thread; requests on a connection are
served in order (clients open several connections for concurrency, as the
paper's load generator does).  Models live in a shared read-only
:class:`ModelRegistry`; every forward runs through one
:class:`BatchingExecutor`, which coalesces concurrent requests per model
when a batching policy asks it to (§5.1).

:class:`TcpServiceBase` holds the protocol-speaking TCP skeleton (accept
loop, per-connection workers, hard-stop connection teardown); it is shared
with the gateway front-end in :mod:`repro.gateway.server`.
"""

from __future__ import annotations

import functools
import json
import logging
import socket
import threading
import time
from typing import Callable, Optional, Tuple

import numpy as np

from ..obs.metrics import ChildMap, MetricsRegistry, merge_dumps
from ..obs.slo import BurnRateMonitor
from ..obs.trace import Tracer, get_tracer
from ..sched import DeadlineExceededError
# bound as a module, names resolved per call: tonic.serve itself imports
# repro.core, so whichever package loads first sees the other half-built
from ..tonic import serve as tonic_serve
from . import faultsite
from .batching import BatchingExecutor, BatchPolicy
from .procpool import parse_workers
from .protocol import (KIND_TEXT, FrameReader, Message, MessageType,
                       ProtocolError, encode_message, send_frame)
from .registry import ModelRegistry
from .session import SessionLimitError, SessionManager, TensorStreamApp
from .stats import RequestLedger

__all__ = ["TcpServiceBase", "UnaryContext", "DjinnServer"]


class UnaryContext:
    """One unary request's state at one tier (a backend or the gateway).

    Use only as ``with UnaryContext(...) as ctx`` around the request's
    handling: construction opens the tier's span when the request is traced
    (QoS fields as attrs), stamps the start and re-anchors the deadline;
    leaving the block closes the span.  It carries what every stage reads
    and owns what stages would otherwise repeat — reply stamping and span
    emission behind one ``traced`` test.
    """

    __slots__ = ("request", "tracer", "span", "traced", "start", "deadline_s",
                 "trace", "exemplar", "_span_cm")

    def __init__(self, service: "TcpServiceBase", request: Message,
                 span_name: str, category: str):
        self.request = request
        tracer = self.tracer = service.tracer
        #: the tier's span, ``(trace_id, parent_span_id)`` for work done on
        #: the request's behalf elsewhere (executor, pool), and the latency
        #: histogram's handle back to the trace — all ``None`` when untraced
        self.span = self.trace = self.exemplar = self._span_cm = None
        self.traced = bool(request.trace_id) and tracer.enabled
        if self.traced:
            self._span_cm = tracer.span(
                span_name, category=category, trace_id=request.trace_id,
                parent_id=request.span_id, model=request.name)
            span = self.span = self._span_cm.__enter__()
        # stamped right behind the span's own start: whatever follows is
        # inside the request's first stage, not an unattributed gap
        self.start = service._clock()
        # re-anchor the wire's *remaining budget* on this host's clock; the
        # absolute deadline then flows through queueing untouched
        self.deadline_s = (self.start + request.deadline_ms / 1e3
                           if request.deadline_ms else None)
        if self.traced:
            if request.has_qos:
                span.set(deadline_ms=request.deadline_ms,
                         priority=request.priority, tenant=request.tenant)
            self.trace = span.trace_id, span.span_id
            self.exemplar = f"{span.trace_id:016x}"

    def __enter__(self) -> "UnaryContext":
        return self

    def __exit__(self, *exc_info):
        if self._span_cm is not None:
            return self._span_cm.__exit__(*exc_info)

    def reply(self, mtype: MessageType, **fields) -> Message:
        """A frame for the caller, stamped with its trace context."""
        request = self.request
        return Message(mtype, trace_id=request.trace_id,
                       span_id=request.span_id, **fields)

    def add_span(self, name: str, start_s: float, end_s: float,
                 category: str, **attrs):
        """Record a timed child of the request's span (``None`` untraced)."""
        if self.traced:
            return self.tracer.add_span(name, start_s, end_s, *self.trace,
                                        category=category, **attrs)


class TcpServiceBase:
    """Threaded TCP server skeleton for the DjiNN wire protocol.

    Subclasses fill ``_data_plane`` (their request types), implement the
    three control-plane hooks :meth:`_handle` answers from, and may
    override :meth:`_on_start` / :meth:`_on_stop` for extra lifecycle work.
    They also provide ``tracer`` and ``_clock``.  ``stop()`` hard-closes live
    connections so blocked workers unwind and clients see a transport error
    immediately — from a gateway's point of view this is exactly what a
    killed instance looks like.
    """

    #: thread-name prefix for accept/worker threads
    service_name = "djinn"

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host, self._port = host, port
        #: MessageType -> handler(conn, request) for the subclass's
        #: data-plane frames (see :meth:`_handle`)
        self._data_plane = {}
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns = []
        self._conns_lock = threading.Lock()
        self._running = threading.Event()

    # ------------------------------------------------------------ lifecycle
    def start(self):
        if self._listener is not None:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._running.set()
        self._on_start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{self.service_name}-accept",
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if not self._running.is_set():
            return
        self._running.clear()
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept(); close() alone
            # leaves the kernel socket accepting until that thread returns,
            # so a "stopped" server could still take one more connection.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._on_stop()

    def _on_start(self) -> None:
        """Subclass hook, runs after the listener binds."""

    def _on_stop(self) -> None:
        """Subclass hook, runs after connections are torn down."""

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("server not started")
        return self._listener.getsockname()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- serving
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            if faultsite.active is not None and faultsite.active.on_accept(self.service_name):
                # injected refusal: the peer's first read sees a dead socket
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            try:
                # replies are small and may be pipelined (stream results on
                # a multiplexed connection): never hold one back for Nagle
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                conn.close()  # peer reset before we got to it
                continue
            with self._conns_lock:
                self._conns.append(conn)
            # not retained: a worker unwinds with its connection, and health
            # probes alone open two connections a second per backend
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True,
                name=f"{self.service_name}-worker",
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = FrameReader(conn, fault_scope=self.service_name)
        try:
            with conn:
                while self._running.is_set():
                    try:
                        request = reader.read()
                    except (ConnectionError, OSError):
                        return
                    except ProtocolError as exc:
                        self._safe_send(conn, Message(MessageType.ERROR, text=str(exc)))
                        return
                    try:
                        if not self._handle(conn, request):
                            return
                    except (ConnectionError, OSError):
                        # the handler lost its transport mid-request (e.g. a
                        # backend crash surfaced through the batching
                        # executor); drop the connection so the peer fails
                        # fast instead of waiting on a wedged stream
                        return
        finally:
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            self._on_disconnect(conn)

    def _handle(self, conn: socket.socket, request: Message) -> bool:
        """Dispatch one request; returns False to drop the connection.

        Data-plane frames go to the subclass's ``_data_plane`` table — a
        handler returns the reply to send (a ``Message`` or an encoded
        frame), or ``None`` when it sent one itself.  The control plane
        (LIST / METRICS / SHUTDOWN) is answered here from the two hooks
        below.
        """
        handler = self._data_plane.get(request.type)
        if handler is not None:
            reply = handler(conn, request)
        elif request.type == MessageType.LIST_REQUEST:
            reply = Message(MessageType.LIST_RESPONSE,
                            text="\n".join(self._model_names()))
        elif request.type == MessageType.METRICS_REQUEST:
            reply = Message(MessageType.METRICS_RESPONSE,
                            text=json.dumps(self._metrics_dump()))
        elif request.type == MessageType.SHUTDOWN:
            self._safe_send(conn, Message(MessageType.SHUTDOWN))
            threading.Thread(target=self.stop, daemon=True).start()
            return False
        else:
            reply = Message(MessageType.ERROR,
                            text=f"unexpected message type {request.type}")
        if reply is not None:
            self._safe_send(conn, reply)
        return True

    def _model_names(self):
        """Subclass hook: the names a LIST_REQUEST answers with."""
        raise NotImplementedError

    def _metrics_dump(self) -> dict:
        """Subclass hook: the registry dump a METRICS_RESPONSE carries."""
        raise NotImplementedError

    def _on_disconnect(self, conn: socket.socket) -> None:
        """Subclass hook: a connection's worker has unwound (any cause).

        Runs exactly once per served connection, after the socket leaves
        the live set — the place to release any per-connection state
        (e.g. stream sessions) so a peer that vanishes mid-stream cannot
        leak server memory.
        """

    @staticmethod
    def _reply(request: Message, mtype: MessageType, **fields) -> Message:
        """A reply frame echoing ``request``'s trace context."""
        return Message(mtype, trace_id=request.trace_id,
                       span_id=request.span_id, **fields)

    @staticmethod
    def _safe_send(conn: socket.socket, reply) -> None:
        """Send a ``Message`` or an already-encoded frame."""
        try:
            send_frame(conn, reply if isinstance(reply, (bytes, bytearray))
                       else encode_message(reply))
        except OSError:
            pass  # client went away; nothing to do


class DjinnServer(TcpServiceBase):
    """DNN-as-a-service over TCP.

    Every unary request — a tensor ``INFER_REQUEST`` or a raw-payload
    ``APP_REQUEST`` — is served by one routine, :meth:`_serve_unary`:
    per-kind *prepare*, then one dead-on-arrival check, one hand-off to the
    :class:`BatchingExecutor`, one exception → frame table and one reply
    path (``docs/architecture.md``, "Request lifecycle").

    Parameters
    ----------
    registry:
        Models to serve (materialized, shared read-only across workers).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    batching:
        Optional dynamic batching policy.  ``None`` serves unbatched:
        the executor runs with :attr:`UNBATCHED`, a zero-wait policy that
        never holds a request for a second one, so each request's inputs
        are their own forward pass.  An idle model serves a request on its
        connection's thread, on one of the registry's plan lanes
        (:meth:`ModelRegistry.acquire`), so concurrent clients still run
        in parallel; a request wider than 32 rows runs on a throw-away plan.
        A batching policy keeps one lane per bucket, so a second
        concurrent request queues and coalesces.
    service_floor_s:
        Minimum wall-clock service time per executed batch.  The remainder
        (floor minus compute) is slept with the GIL released by the model's
        batch worker, which serves one batch at a time, so it paces each
        model like a serial device (the paper's one-GPU-per-instance setup,
        §5.2) rather than by host CPU.  ``0.0`` (default) disables pacing.
    clock:
        Monotonic time source used for every latency measurement and window
        stamp on this server (injected for testability; the stack
        standardizes on ``time.monotonic``).
    tracer:
        Span collector for requests that arrive with trace context;
        defaults to the process tracer, which is disabled until something
        (e.g. ``djinn trace``) enables it.
    profile_layers:
        When True *and* a request is traced, time each network layer of its
        forward pass and attach ``layer.*`` spans (the Fig-4 breakdown).
        Off by default; untraced/unprofiled requests run the original loop.
    workers:
        Optional process-pool spec (``"proc:N"`` or an int N).  When set,
        forwards execute in N forked worker *processes* over shared weights
        (:class:`repro.core.procpool.ProcPoolExecutor`): the pool is the
        executor's runner for every queued batch, its slot envelope the
        policy's ``max_batch``.  A request served on its own thread (an
        idle model) runs on a free parent-side plan lane; without
        ``batching``, one that finds every lane busy takes a pool slot from
        its thread, so each model keeps up to N batches in flight.  A
        request wider than the envelope runs on a parent-side plan.
        ``None``/``0`` keeps every forward in this process.
    worker_fault_plan:
        Optional :class:`repro.faults.FaultPlan` re-armed inside each pool
        worker with a worker-index-derived seed (chaos testing; the parent
        process uses the normal ``faultsite`` arming instead).
    sched:
        Optional scheduling policy (``"fixed"``, ``"adaptive"``, or a
        :class:`repro.sched.SchedPolicy`).  Requires ``batching``; arms the
        executor's EDF/priority queues, online batch sizing, and
        pre-forward expiry of deadlined requests.  ``None`` (default) keeps
        the original fixed batching path.  Independently of ``sched``,
        requests arriving with an already-spent deadline budget are
        answered with a typed DEADLINE_EXCEEDED frame on every serve path.
    session_limit / session_idle_s:
        Bounds on the stream session table: at most ``session_limit``
        concurrently open streams (opens past it are rejected with a typed
        SESSION_LIMIT frame), and a session idle longer than
        ``session_idle_s`` is reaped in the background.
    apps:
        Optional dict mapping model name to the :class:`repro.tonic.TonicApp`
        whose pre/postprocess kernels serve that model's ``APP_REQUEST``
        traffic (raw payload in, application answer out).  Models without
        an entry get a default app when their name and shape match one of
        the stateless Tonic apps (``imc``, ``dig``, ``face``, ``asr`` — see
        :func:`repro.tonic.serve.build_default_apps`); the NLP taggers
        carry trained featurizer state and must be passed explicitly.
    layer_cache:
        Optional :class:`repro.nn.engine.LayerCacheConfig` arming the
        engine-level activation cache, one per model: every batch the
        executor runs on a parent-side plan serves prefix → per-row digest
        probe → partial-batch suffix, memoizing suffix outputs for
        duplicate (or, with a tolerance, near-duplicate) inputs.  With
        ``workers="proc:N"`` that is the inline-served and oversize
        batches only — pool-slot batches cannot probe.  Requires an
        explicit ``batching`` policy; ``None`` (default) keeps the forward
        path bit-for-bit unchanged.
    """

    #: the policy ``batching=None`` serves with: never wait for a second
    #: request, and the 32-row envelope every plan and pool slot is sized to
    UNBATCHED = BatchPolicy(max_batch=32, timeout_ms=0.0)

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        batching: Optional[BatchPolicy] = None,
        service_floor_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        profile_layers: bool = False,
        workers=None,
        worker_fault_plan=None,
        sched=None,
        session_limit: int = 64,
        session_idle_s: float = 30.0,
        apps=None,
        layer_cache=None,
    ):
        super().__init__(host=host, port=port)
        self._data_plane = {
            MessageType.INFER_REQUEST: self._serve_unary,
            MessageType.APP_REQUEST: self._serve_unary,
            MessageType.STREAM_OPEN: self._handle_stream_open,
            MessageType.STREAM_CHUNK: self._handle_stream_chunk,
            MessageType.STREAM_CLOSE: self._handle_stream_close,
        }
        if service_floor_s < 0:
            raise ValueError(f"service_floor_s must be >= 0, got {service_floor_s}")
        if sched is not None and not batching:
            raise ValueError("sched requires a batching policy "
                             "(the scheduler drives the batch queues)")
        if layer_cache is not None and not batching:
            raise ValueError("layer_cache requires a batching policy "
                             "(probes run at batch assembly)")
        self.registry = registry
        self._clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics = MetricsRegistry()
        self.ledger = RequestLedger(metrics)
        self._errors = ChildMap(metrics.counter(
            "djinn_errors_total", "Requests rejected, per model and reason.",
            ("model", "reason")))
        self._slo = ChildMap(metrics.counter(
            "djinn_slo_requests_total",
            "Deadline-carrying requests, per model and outcome "
            "(met|missed|expired).", ("model", "outcome")))
        self._streams_total = ChildMap(metrics.counter(
            "djinn_streams_total",
            "Streams opened, per model and outcome "
            "(completed|aborted|rejected).", ("model", "outcome")))
        self._stream_aborted = ChildMap(metrics.counter(
            "djinn_stream_aborted_total",
            "Streams torn down before a final result, per model and reason "
            "(disconnect|idle|drop|error).", ("model", "reason")))
        self._stream_chunks = ChildMap(metrics.counter(
            "djinn_stream_chunks_total",
            "Stream chunks accepted, per model.", ("model",)))
        self._stream_sessions = metrics.gauge(
            "djinn_stream_sessions", "Currently open stream sessions.")
        #: explicit app table for APP_REQUEST serving; defaults are
        #: merged in lazily on first use (models may register after init)
        self._apps = dict(apps) if apps else {}
        self._apps_built = False
        self.sessions = SessionManager(
            limit=session_limit, idle_timeout_s=session_idle_s,
            clock=clock, on_evict=self._session_evicted)
        #: multi-window error-budget burn over deadline attainment; firing /
        #: resolved transitions land in the structured log
        self.slo_monitor = BurnRateMonitor(
            clock=clock, logger=logging.getLogger("repro.core.server"))
        policy = batching or self.UNBATCHED
        self._pool = None
        worker_count = parse_workers(workers)
        if worker_count:
            from .procpool import ProcPoolExecutor

            self._pool = ProcPoolExecutor(
                registry, workers=worker_count, max_batch=policy.max_batch,
                metrics=metrics, tracer=self.tracer, clock=clock,
                fault_plan=worker_fault_plan,
            )
        self._executor = BatchingExecutor(
            registry, policy, service_floor_s=service_floor_s,
            clock=clock, tracer=self.tracer,
            metrics=metrics, profile_layers=profile_layers,
            pool=self._pool, sched=sched, layer_cache=layer_cache)
        # the executor's stage and in-queue expiry maps: the server's own
        # stages and dead-on-arrival rejections land in the same families
        self._stage_seconds = self._executor._stage_seconds
        self._sched_expired = self._executor._expired

    def _on_start(self) -> None:
        self.sessions.start()

    def _on_stop(self) -> None:
        self.sessions.stop()
        self._executor.close()
        if self._pool is not None:
            self._pool.close()

    def _metrics_dump(self) -> dict:
        """This server's registry dump, merged with pool-worker dumps."""
        dump = self.metrics.dump()
        if self._pool is not None:
            worker_dumps = self._pool.worker_metric_dumps()
            if worker_dumps:
                dump = merge_dumps([dump] + worker_dumps)
        return dump

    def _model_names(self):
        return self.registry.names()

    # ------------------------------------------------------------- serving
    def _app_for(self, name: str):
        """The TonicApp serving ``name``'s APP_REQUEST traffic.

        Explicit ``apps`` entries win; defaults are built from the registry
        on first use.  Raises ``KeyError`` when the model has no app (same
        typed unknown-model error path as inference against an unknown
        name — from the client's view an app that is not served does not
        exist).
        """
        app = self._apps.get(name)
        if app is None and not self._apps_built:
            self._apps_built = True
            for key, built in tonic_serve.build_default_apps(self.registry).items():
                self._apps.setdefault(key, built)
            app = self._apps.get(name)
        if app is None:
            raise KeyError(
                f"no serving app for model {name!r}; apps available: "
                f"{sorted(self._apps)}")
        return app

    @staticmethod
    def _check_shape(name: str, net, inputs: np.ndarray) -> None:
        if inputs.shape[1:] != net.input_shape:
            raise ValueError(
                f"model {name!r} expects inputs of shape "
                f"(n, {', '.join(map(str, net.input_shape))}), got {inputs.shape}"
            )

    def _prepare(self, request: Message):
        """The per-kind half of a unary request: ``(inputs, app, raw)``.

        A tensor request yields its validated rows (``app``/``raw`` None); a
        raw-payload request yields the serving app and the decoded payload
        (``inputs`` None until preprocess runs).
        """
        if request.type == MessageType.APP_REQUEST:
            app = self._app_for(request.name)
            self.registry.get(request.name)  # KeyError -> unknown model
            return None, app, tonic_serve.decode_raw(request)
        if request.tensor is None:
            raise ValueError("inference request carries no tensor")
        self._check_shape(request.name, self.registry.get(request.name),
                          request.tensor)
        return request.tensor, None, None

    def _serve_unary(self, conn: socket.socket, request: Message) -> None:
        """Serve one INFER_REQUEST or APP_REQUEST — the only unary routine.

        Only :meth:`_prepare` and the reply constructor differ per kind.  A
        tensor request answers with the output rows; a raw-payload request
        runs the whole Tonic pipeline server-side (the app's batched
        preprocess/postprocess kernels in the executor's worker context,
        coalescing with every other raw request for the model) and answers
        with the application's JSON.  The executor takes either kind,
        serving it on this connection's thread when the model is idle.
        """
        clock = self._clock
        name = request.name
        is_app = request.type == MessageType.APP_REQUEST
        with UnaryContext(self, request,
                          "backend.app" if is_app else "backend.infer",
                          "backend") as ctx:
            start, deadline_s = ctx.start, ctx.deadline_s
            delivered = 0.0
            try:
                inputs, app, raw = self._prepare(request)
                if deadline_s is not None and clock() >= deadline_s:
                    # dead on arrival, budget spent in transit: rejected
                    # here on every serve path, because the executor only
                    # expires requests in queue, and only under a scheduler
                    now = clock()
                    self._sched_expired[name].inc()
                    ctx.add_span(
                        "sched.expire", start, now, "sched", model=name,
                        late_ms=round((now - deadline_s) * 1e3, 3))
                    raise DeadlineExceededError(name, now - deadline_s)
                pre_end = clock()
                qos = None
                if request.has_qos:
                    qos = (deadline_s if deadline_s is not None
                           else float("inf"), request.priority, request.tenant)
                if is_app:
                    result = self._executor.submit_app(
                        name, app, raw, trace=ctx.trace, qos=qos)
                else:
                    # the served request itself, for its delivery stamp
                    served = self._executor._submit(
                        name, inputs, ctx.trace, qos)
                    result, delivered = served.result, served.delivered_s
            except (DeadlineExceededError, KeyError, ValueError) as exc:
                self._safe_send(conn, self._refusal(ctx, exc))
                return
            finish = clock()
            # the prepare window is accounted now, inside the respond
            # window, not in the gap between it and the dispatch
            self._stage_seconds[name, "preprocess"].inc(pre_end - start)
            ctx.add_span("preprocess", start, pre_end, "backend", model=name)
            # respond starts when the executor handed the result over: the
            # worker's delivery stamp when available (the gap up to
            # ``finish`` is this thread waking up, part of responding)
            respond_start = delivered if 0.0 < delivered < finish else finish
            self.ledger.record(
                name, finish - start, inputs=1 if is_app else len(inputs),
                exemplar=ctx.exemplar)
            if deadline_s is not None:
                self._record_slo(
                    name, "met" if finish <= deadline_s else "missed")
            if is_app:
                reply = ctx.reply(
                    MessageType.APP_RESPONSE, name=name,
                    text=json.dumps(tonic_serve.jsonable_result(result)),
                    payload_kind=KIND_TEXT)
            else:
                reply = ctx.reply(MessageType.INFER_RESPONSE, name=name,
                                  tensor=result)
            self._safe_send(conn, reply)
            send_end = clock()
            # respond covers everything after the forward: accounting,
            # response serialization and the socket send
            self._stage_seconds[name, "respond"].inc(send_end - respond_start)
            ctx.add_span("backend.respond", respond_start, send_end,
                         "network")

    def _refusal(self, ctx: UnaryContext, exc: Exception) -> Message:
        """The one exception → frame table of the unary path.

        ``DeadlineExceededError`` → DEADLINE_EXCEEDED (SLO outcome
        ``expired``), ``KeyError`` → ERROR ``unknown_model``,
        ``ValueError`` → ERROR ``bad_request``.
        """
        name = ctx.request.name
        if isinstance(exc, DeadlineExceededError):
            # typed rejection, not an ERROR: the request was valid, its
            # budget was simply spent (the scheduler counts queue-side
            # expiries; the dead-on-arrival check counts its own)
            self._record_slo(name, "expired")
            return ctx.reply(MessageType.DEADLINE_EXCEEDED, text=str(exc))
        reason = "unknown_model" if isinstance(exc, KeyError) else "bad_request"
        self._errors[name or "?", reason].inc()
        return ctx.reply(MessageType.ERROR, text=str(exc))

    # ------------------------------------------------------------ streaming
    def _stream_app_for(self, name: str):
        """Instantiate the streaming application for one stream of ``name``.

        A model named ``"asr"`` with the acoustic pipeline's 440-dim input
        gets the incremental ASR decoder; everything else streams through
        the generic :class:`TensorStreamApp`.
        """
        net = self.registry.get(name)  # KeyError -> unknown model
        # chunks ride the same executor as unary traffic: with batching
        # armed they enter the shared (EDF when scheduled) queues as small
        # batches and coalesce with whatever else is in flight
        dnn = functools.partial(self._executor.submit, name)
        if name == "asr" and tuple(net.input_shape) == (440,):
            from ..tonic.app import LocalBackend
            from ..tonic.asr import AsrApp, AsrStream

            try:
                app = AsrApp(LocalBackend(net),
                             num_senones=int(np.prod(net.output_shape)))
                return AsrStream(app, dnn=dnn)
            except ValueError:
                pass  # output narrower than the HMM: generic fallback
        return TensorStreamApp(net, dnn)

    def _stream_send(self, conn: socket.socket, request: Message,
                     mtype: MessageType, **fields) -> None:
        """Send one stream-scoped reply (the request's stream id echoed)."""
        self._safe_send(conn, self._reply(
            request, mtype, stream_id=request.stream_id, **fields))

    def _handle_stream_open(self, conn: socket.socket, request: Message) -> None:
        model = request.name
        try:
            app = self._stream_app_for(model)
        except KeyError as exc:
            self._errors[model or "?", "unknown_model"].inc()
            self._streams_total[model or "?", "rejected"].inc()
            self._stream_send(conn, request, MessageType.ERROR, text=str(exc))
            return
        try:
            session = self.sessions.open(id(conn), request.stream_id, model, app)
        except SessionLimitError as exc:
            self._streams_total[model, "rejected"].inc()
            self._stream_send(
                conn, request, MessageType.SESSION_LIMIT,
                text=json.dumps({"error": str(exc), "limit": exc.limit}))
            return
        except ValueError as exc:  # duplicate stream id on this connection
            self._errors[model, "bad_request"].inc()
            self._stream_send(conn, request, MessageType.ERROR, text=str(exc))
            return
        session.trace_id, session.span_id = request.trace_id, request.span_id
        session.priority, session.tenant = request.priority, request.tenant
        self._stream_sessions.set(len(self.sessions))
        self._stream_send(conn, request, MessageType.STREAM_OPEN, name=model)

    def _handle_stream_chunk(self, conn: socket.socket, request: Message) -> None:
        clock = self._clock
        session = self.sessions.get(id(conn), request.stream_id)
        if session is None:
            self._stream_send(
                conn, request, MessageType.ERROR,
                text=f"unknown or closed stream {request.stream_id}")
            return
        if (faultsite.active is not None
                and faultsite.active.on_stream_chunk(session.model)):
            # injected mid-stream drop: the chunk is discarded and the
            # stream aborted with a typed, stream-scoped error
            self._abort_session(session, "drop")
            self._stream_send(
                conn, request, MessageType.ERROR,
                text=f"injected stream chunk drop ({session.model})")
            return
        if request.tensor is None:
            self._abort_session(session, "error")
            self._stream_send(conn, request, MessageType.ERROR,
                              text="stream chunk carries no tensor")
            return
        start = clock()
        try:
            result = session.app.feed(request.tensor)
            if getattr(session.app, "endpointed", False):
                result = session.app.finish()
                final = True
            else:
                final = False
        except (KeyError, ValueError, RuntimeError) as exc:
            self._abort_session(session, "error")
            self._errors[session.model, "bad_request"].inc()
            self._stream_send(conn, request, MessageType.ERROR, text=str(exc))
            return
        session.chunks += 1
        self._stream_chunks[session.model].inc()
        if session.trace_id and self.tracer.enabled:
            self.tracer.add_span(
                "stream.chunk", start, clock(), session.trace_id,
                session.span_id, category="stream", model=session.model,
                seq=session.chunks)
        if final:
            self._complete_session(session)
        self._stream_send(
            conn, request, MessageType.STREAM_RESULT, name=session.model,
            text=json.dumps(result), stream_seq=session.chunks,
            stream_final=final)

    def _handle_stream_close(self, conn: socket.socket, request: Message) -> None:
        session = self.sessions.get(id(conn), request.stream_id)
        if session is None:
            self._stream_send(
                conn, request, MessageType.ERROR,
                text=f"unknown or closed stream {request.stream_id}")
            return
        try:
            final = session.app.finish()
        except (KeyError, ValueError, RuntimeError) as exc:
            self._abort_session(session, "error")
            self._stream_send(conn, request, MessageType.ERROR, text=str(exc))
            return
        session.chunks += 1
        self._complete_session(session)
        self._stream_send(
            conn, request, MessageType.STREAM_RESULT, name=session.model,
            text=json.dumps(final), stream_seq=session.chunks,
            stream_final=True)

    def _complete_session(self, session) -> None:
        self.sessions.close(session.conn_key, session.stream_id)
        self._streams_total[session.model, "completed"].inc()
        self._stream_sessions.set(len(self.sessions))
        self._end_stream_span(session, "completed")

    def _abort_session(self, session, reason: str) -> None:
        self.sessions.close(session.conn_key, session.stream_id)
        self._account_abort(session, reason)

    def _session_evicted(self, session, reason: str) -> None:
        """Reaper callback: the manager already removed the session."""
        self._account_abort(session, reason)

    def _account_abort(self, session, reason: str) -> None:
        self._streams_total[session.model, "aborted"].inc()
        self._stream_aborted[session.model, reason].inc()
        self._stream_sessions.set(len(self.sessions))
        self._end_stream_span(session, reason)

    def _end_stream_span(self, session, outcome: str) -> None:
        if session.trace_id and self.tracer.enabled:
            self.tracer.add_span(
                "stream.session", session.opened_s, self._clock(),
                session.trace_id, session.span_id, category="stream",
                model=session.model, chunks=session.chunks, outcome=outcome)

    def _on_disconnect(self, conn: socket.socket) -> None:
        for session in self.sessions.drop_connection(id(conn)):
            self._account_abort(session, "disconnect")

    def _record_slo(self, model: str, outcome: str) -> None:
        """Account one deadline-carrying request's outcome and re-check burn."""
        self._slo[model or "?", outcome].inc()
        self.slo_monitor.record(model or "?", attained=outcome == "met")
        self.slo_monitor.check()
