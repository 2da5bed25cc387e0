"""Server-side dynamic batching: one loop — collect, one forward, scatter.

Section 5.1 of the paper batches multiple DNN inputs into one larger GPU
GEMM to raise occupancy and throughput (Fig 7).  This module is the
service-side mechanism: per-model queues collect concurrent requests until
``max_batch`` inputs are buffered or ``timeout_ms`` elapses, then execute
them as a single forward pass and scatter the results back to the waiting
requests.  On the numpy substrate the win is BLAS efficiency rather than
GPU occupancy, but the mechanism (and its latency/throughput trade-off,
which ``benchmarks/bench_ablation_batch_policy.py`` sweeps) is the same.

There is **one forward path**, :meth:`BatchingExecutor._serve`.  It takes
an assembled batch and a runner — a locked
:class:`repro.nn.engine.ExecutionPlan`, or ``None`` for a proc-pool slot —
and runs gather → (layer-cache probe when armed) → forward → scatter → app
postprocess, stamping every step into one per-batch timing record.
:meth:`BatchingExecutor._account` then derives *every* span, every
``djinn_stage_seconds_total`` stage, ``djinn_batch_size``,
``djinn_fast_path_total`` and the latency-model observations from that
record; nothing else in this module emits telemetry for a served batch.

The routine has two callers:

* the model's **worker thread** collects a batch from the queue (fixed
  window, or EDF order and an online batch size when a scheduling policy is
  armed), runs the batched app preprocess, picks the runner — the pool slot
  when a proc pool is armed, otherwise the model's envelope plan — and
  serves.  A batch wider than the envelope (the collector admits one
  oversize request past ``max_batch``) or than the pool slot runs through
  the same routine on a throw-away plan compiled for its row count.
* the **submitting thread** itself, for a batch of one (the batch-1 fast
  path): when nothing is queued for the model and a parent-side plan sized
  to the request is free, the queue handoff, the coalescing window and —
  under a proc pool — the slot ring are pure overhead, so the submitter
  serves its own request inline and never wakes the worker.  It declines,
  and enqueues, whenever inline execution could change semantics: queued
  work (coalescing wins), a service floor (pacing lives in the worker), an
  armed fault plan (hook order must stay deterministic per seed), a closed
  executor, an already-expired deadline under a scheduler (the EDF queue
  owns typed rejection), a request wider than the envelope, or every plan
  lane it may use busy.  A zero-wait policy may use up to one lane per
  usable CPU, then (under a proc pool) a slot taken from the submitter's
  own thread, so concurrent submitters on an idle model run in parallel; a
  coalescing window tries the first lane only, so a second concurrent
  request queues and joins the worker's batch.  Rows
  preprocessed before a decline ride along in the enqueued request, so an
  app payload is preprocessed exactly once.

Result hand-off: payloads are gathered straight into the plan's input
slab, and each executed batch is copied out of the arena (or the pool
slot) once, right after its forward.  Every waiter receives a *read-only
row slice* of that owned array, so the plan lock and the slot go back
before any waiter wakes — no reply, however slow its socket, holds the
model's arena.  :meth:`BatchingExecutor.submit` returns that slice.

App requests (APP frames, :meth:`BatchingExecutor.submit_app`) carry a raw
payload plus its :class:`repro.tonic.TonicApp`: ``preprocess_batch`` runs
over every raw request the batch coalesced (in the worker process's shm
slot when a proc pool is armed and the payloads are slot-eligible),
``postprocess_batch`` over the result block, and each waiter receives its
final application answer.  A poisoned payload fails only its own request:
the vectorized call falls back to the per-item loop to isolate the
offender.  Stream-frame chunks are ordinary :meth:`submit` calls.

The layer cache (``layer_cache=``) is per model, not per plan:
:meth:`repro.nn.engine.LayerCache.serve` runs on whichever plan the caller
holds, so it composes with both callers.  Pool-slot batches cannot probe
it (the arena lives in another process).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..nn.engine import ExecutionPlan, LayerCache, LayerCacheConfig, PlanError
from ..obs.metrics import ChildMap, MetricsRegistry
from ..obs.profile import LayerTimer
from ..obs.trace import Tracer, get_tracer
from ..sched import (
    DeadlineExceededError,
    EdfQueue,
    LatencyModel,
    item_rows,
    make_policy,
)
from . import faultsite
from .registry import ModelRegistry

__all__ = ["BatchPolicy", "BatchingExecutor"]

#: Bucket bounds for the executed-batch-size histogram (inputs per forward).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class BatchPolicy:
    """How long to wait and how much to coalesce."""

    max_batch: int = 16
    timeout_ms: float = 2.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.timeout_ms < 0:
            raise ValueError(f"timeout_ms must be >= 0, got {self.timeout_ms}")


class _Pending:
    """One submitted request and, once served, its slice of the result."""

    __slots__ = ("inputs", "event", "result", "error", "trace", "enqueue_s",
                 "delivered_s", "deadline_s", "priority", "tenant", "app",
                 "raw", "row_hint", "pre_start", "pre_end")

    def __init__(self, inputs: Optional[np.ndarray],
                 trace: Optional[Tuple[int, int]] = None,
                 enqueue_s: float = 0.0, deadline_s: float = float("inf"),
                 priority: int = 0, tenant: str = "",
                 app=None, raw=None, row_hint: int = 1):
        #: DNN input rows; for an app request ``None`` until preprocess ran
        #: (a proc-pool batch that defers preprocess into the worker process
        #: parks the raw slot rows here instead)
        self.inputs = inputs
        #: result-ready signal, allocated only when the request is
        #: enqueued — an inline-served request has no waiter
        self.event: Optional[threading.Event] = None
        #: this request's read-only slice of the batch output; for an app
        #: request, replaced by the postprocessed answer
        self.result = None
        self.error: Optional[Exception] = None
        #: (trace_id, parent_span_id) carried from the requesting connection
        self.trace = trace
        self.enqueue_s = enqueue_s
        #: stamped when the result is handed over; lets the consumer's
        #: respond accounting start at delivery rather than at its own
        #: wake-up (the gap is thread scheduling, not response)
        self.delivered_s = 0.0
        #: absolute monotonic deadline (inf = none), priority class (higher
        #: first), and tenant — consumed by the EDF queue when a scheduling
        #: policy is armed, inert otherwise
        self.deadline_s = deadline_s
        self.priority = priority
        self.tenant = tenant
        #: app pipeline fields: the TonicApp whose pre/post kernels run
        #: server-side, the raw payload, the submitter's row estimate used
        #: for assembly before preprocess, and the window in which this
        #: request's preprocess ran
        self.app = app
        self.raw = raw
        self.row_hint = row_hint
        self.pre_start = 0.0
        self.pre_end = 0.0


class _BatchRecord:
    """Every clock stamp one served batch takes, in serve order.

    Filled by the collector, the preprocess stage and ``_serve``; read
    once by ``_account``, the only place telemetry is derived from it.
    """

    #: served on the submitting thread (no queue, no waiters)
    inline = False
    #: when policy-driven assembly began (``None`` without a scheduler)
    collect_start: Optional[float] = None
    #: when the preprocess stage picked the batch up (0.0 = no stage), and
    #: whether it deferred the kernels into the pool worker process
    pre_start = 0.0
    deferred = False
    #: assembly start, forward extent, scatter start (after any floor
    #: pacing), and the app postprocess window (0.0 = no app requests)
    start = 0.0
    forward_start = 0.0
    forward_end = 0.0
    post_start = 0.0
    app_start = 0.0
    app_end = 0.0
    rows = 0
    timer: Optional[LayerTimer] = None
    served = None  # LayerCache.serve outcome when the cache ran


class BatchingExecutor:
    """Per-model batching queues with one worker thread per model.

    ``service_floor_s`` imposes a minimum wall-clock time per executed
    batch (compute + GIL-released sleep), pacing each worker like a serial
    device — see :class:`repro.core.server.DjinnServer`.  ``clock`` is the
    monotonic time source shared with the owning server; ``tracer``,
    ``metrics`` and ``profile_layers`` wire the executor into that server's
    observability surfaces.
    """

    #: executed batch sizes remembered per model
    EXECUTED_WINDOW = 4096

    def __init__(self, registry: ModelRegistry, policy: BatchPolicy = BatchPolicy(),
                 service_floor_s: float = 0.0,
                 clock: Callable[[], float] = time.monotonic,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 profile_layers: bool = False,
                 pool=None,
                 sched=None,
                 latency: Optional[LatencyModel] = None,
                 layer_cache: Optional[LayerCacheConfig] = None):
        self.registry = registry
        self.policy = policy
        self.service_floor_s = service_floor_s
        #: optional :class:`repro.nn.engine.LayerCacheConfig`; when set,
        #: each model gains one :class:`LayerCache` and every plan-run batch
        #: is served prefix → per-row probe → partial-batch suffix.  ``None``
        #: (the default) keeps the execute path bit-for-bit unchanged.
        self.layer_cache = layer_cache
        #: model -> live LayerCache (``None``: the model has no safe split),
        #: populated by the first plan-run batch
        self.layer_caches: Dict[str, Optional[LayerCache]] = {}
        #: optional :class:`repro.core.procpool.ProcPoolExecutor`; when set,
        #: the worker's batches execute in a worker *process* (weights in
        #: shared memory) and only inline and oversize batches run on a
        #: parent-side plan
        self.pool = pool
        self.clock = clock
        self.tracer = tracer if tracer is not None else get_tracer()
        self.profile_layers = profile_layers
        #: optional :class:`repro.sched.SchedPolicy` (or its name); when set,
        #: per-model queues become EDF/priority queues, batch size and window
        #: are decided online, and expired requests are rejected before
        #: forward.  ``None`` keeps the original fixed path bit-for-bit.
        self.sched = make_policy(sched) if sched is not None else None
        #: measured per-model latency curve driving the adaptive policy;
        #: shared with the owning server/gateway when they pass one in
        self.latency = latency if latency is not None else LatencyModel()
        self._batch_size = self._expired = None
        self._stage_seconds = self._fast_hits = None
        self._layer_cache_events = self._layer_cache_fidelity = None
        if metrics is not None:
            self._batch_size = ChildMap(metrics.histogram(
                "djinn_batch_size",
                "Inputs per executed forward pass, per model.",
                ("model",), buckets=BATCH_SIZE_BUCKETS))
            self._expired = ChildMap(metrics.counter(
                "djinn_sched_expired_total",
                "Requests rejected in queue: deadline expired before forward.",
                ("model",)))
            self._stage_seconds = ChildMap(metrics.counter(
                "djinn_stage_seconds_total",
                "Request-weighted seconds spent per serving stage, per model.",
                ("model", "stage")))
            self._fast_hits = ChildMap(metrics.counter(
                "djinn_fast_path_total",
                "Requests served by the batch-1 fast path (no queue handoff).",
                ("model",)))
            self.latency.seed_from_metrics(metrics)
            if layer_cache is not None:
                # registered only when the cache is armed so a cache-off
                # executor's metrics dump stays byte-identical to older builds
                self._layer_cache_events = ChildMap(metrics.counter(
                    "djinn_layer_cache_events_total",
                    "Layer-cache probe outcomes, per model and event "
                    "(hit|miss|collision).", ("model", "event")))
                self._layer_cache_fidelity = ChildMap(metrics.gauge(
                    "djinn_layer_cache_fidelity",
                    "Worst accepted hit distance (max |cached - probed| over "
                    "the split activation), per model.", ("model",)))
        self._queues: Dict[str, Queue] = {}
        self._workers: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: the most recent batch sizes executed, per model (observability/tests)
        self.executed_batches: Dict[str, Deque[int]] = {}
        #: test/bench kill switch: models listed here never serve inline
        self._fast_off: set = set()

    # ------------------------------------------------------------ lifecycle
    def _ensure_worker(self, model: str) -> Queue:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if model not in self._queues:
                net = self.registry.get(model)  # fail fast on unknown models
                # the envelope plan compiles here, on the caller's thread, so
                # an un-plannable model fails its submitter; with a proc pool
                # the envelope arena lives in the worker processes instead
                plan = (self.registry.plan(model, self.policy.max_batch)
                        if self.pool is None else None)
                queue = EdfQueue() if self.sched is not None else Queue()
                self._queues[model] = queue
                worker = threading.Thread(
                    target=self._run_worker, args=(model, queue, net, plan),
                    daemon=True, name=f"djinn-batch-{model}",
                )
                self._workers[model] = worker
                worker.start()
            return self._queues[model]

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queues = list(self._queues.values())
        for queue in queues:
            queue.put(None)  # wake workers for shutdown
        for worker in self._workers.values():
            worker.join(timeout=5.0)

    # -------------------------------------------------------------- submit
    def _submit(self, model: str, inputs: Optional[np.ndarray],
                trace: Optional[Tuple[int, int]],
                qos: Optional[Tuple[float, int, str]],
                app=None, raw=None, row_hint: int = 1) -> _Pending:
        """Serve one request — inline when the fast path takes it, through
        the model's queue otherwise — and return it, result attached."""
        # no forced copy: gather reads payloads straight into the arena
        if inputs is not None:
            inputs = np.asarray(inputs, dtype=np.float32)
        # qos, when given, is exactly (deadline_s, priority, tenant)
        pending = _Pending(inputs, trace, self.clock(), *(qos or ()),
                           app=app, raw=raw, row_hint=row_hint)
        if not self._serve_inline(model, pending):
            # queue time starts when the caller hands the request over, not
            # after worker/bookkeeping setup — the gap is queueing, not limbo
            pending.enqueue_s = self.clock()
            queue = self._ensure_worker(model)
            pending.event = threading.Event()
            queue.put(pending)
            pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending

    def submit(self, model: str, inputs: np.ndarray,
               trace: Optional[Tuple[int, int]] = None,
               qos: Optional[Tuple[float, int, str]] = None) -> np.ndarray:
        """Serve ``inputs`` (n, *input_shape); blocks until results ready.

        Returns this request's read-only row slice of an array the executor
        copied out of the arena, so nothing stays pinned once it returns.
        ``trace`` is an optional ``(trace_id, parent_span_id)`` pair; when
        present, the request's queue wait and the batch it lands in are
        recorded as spans of that trace.  ``qos`` is an optional
        ``(deadline_s, priority, tenant)`` triple (deadline absolute on this
        executor's clock); it only takes effect when a scheduling policy is
        armed, and an expired request raises
        :class:`repro.sched.DeadlineExceededError` instead of running.
        """
        return self._submit(model, inputs, trace, qos).result

    def submit_app(self, model: str, app, raw,
                   trace: Optional[Tuple[int, int]] = None,
                   qos: Optional[Tuple[float, int, str]] = None,
                   row_hint: int = 1):
        """Raw-payload path: the server owns the whole Tonic pipeline.

        ``raw`` is the decoded application payload (float image(s), audio
        samples, token text); ``app`` supplies the ``preprocess_batch`` /
        ``postprocess_batch`` kernels, which run batched alongside every
        other coalesced raw request.  Returns the postprocessed application
        answer (a plain Python object).
        ``row_hint`` is the submitter's estimate of the DNN rows this
        payload expands to, used only for batch assembly before preprocess
        runs.
        """
        return self._submit(model, None, trace, qos, app=app, raw=raw,
                            row_hint=row_hint).result

    def _serve_inline(self, model: str, pending: _Pending) -> bool:
        """Batch-1 fast path: the guards, then ``_serve`` on this thread.

        ``False`` means declined — the caller enqueues ``pending``, which
        keeps any rows preprocessed here.  (The module docstring lists why
        each guard exists.)
        """
        if (self.service_floor_s or faultsite.active is not None
                or self._closed or model in self._fast_off):
            return False
        if self.sched is not None and self.clock() >= pending.deadline_s:
            return False
        queue = self._queues.get(model)
        if queue is not None and (queue.depth_rows() if self.sched is not None
                                  else queue.qsize()):
            return False
        rec = _BatchRecord()
        rec.inline = True
        batch = self._preprocess_stage(model, [pending], rec)
        if not batch:
            return True  # poisoned payload: the typed error is on pending
        rows = len(pending.inputs)
        if not 0 < rows <= self.policy.max_batch:
            return False
        # zero wait: any lane, else a pool slot from this thread; a window
        # tries lane 0 only, so a busy plan sends the request to coalesce
        zero_wait = not self.policy.timeout_ms
        plan = self.registry.acquire(model, rows, None if zero_wait else 1)
        if plan is None and not (zero_wait and self.pool is not None
                                 and rows <= self.pool.max_batch):
            return False  # concurrent batches own every usable lane
        try:
            # this thread's dispatch work (guards, plan lookup, lock) is the
            # request's batch assembly — keeps inline traces gap-free
            rec.start = pending.pre_end or pending.enqueue_s
            self._serve(model, batch, rec, plan)
        finally:
            if plan is not None:
                plan.lock.release()
        return True

    # ------------------------------------------------------------ collecting
    def _collect(self, queue: Queue) -> List[_Pending]:
        """Block for the first request, then coalesce within the window.

        The window is anchored at the *first request's enqueue time*, not at
        worker wake-up: under contention the worker can pick the request up
        late (floor sleeps, GIL), and re-anchoring at wake-up
        silently extended every window by that drift — each queued request
        paid the wait twice.
        """
        first = queue.get()
        if first is None:
            return []
        batch = [first]
        rows = item_rows(first)
        deadline = first.enqueue_s + self.policy.timeout_ms / 1e3
        while rows < self.policy.max_batch:
            remaining = deadline - self.clock()
            if remaining <= 0:
                break
            try:
                item = queue.get(timeout=remaining)
            except Empty:
                break
            if item is None:
                queue.put(None)  # keep shutdown signal visible
                break
            batch.append(item)
            rows += item_rows(item)
        return batch

    def _active_models(self) -> int:
        """Models with queued work right now (drives co-scheduling)."""
        with self._lock:
            queues = list(self._queues.values())
        return max(1, sum(1 for queue in queues if queue.depth_rows()))

    def _reject_expired(self, model: str, expired: List[_Pending]) -> None:
        """Deliver typed rejections to requests that died in queue."""
        now = self.clock()
        tracer = self.tracer
        for pending in expired:
            late = max(0.0, now - pending.deadline_s)
            if tracer.enabled and pending.trace is not None:
                tid, parent = pending.trace
                tracer.add_span("sched.expire", pending.enqueue_s, now,
                                tid, parent, category="sched", model=model,
                                late_ms=round(late * 1e3, 3))
            pending.error = DeadlineExceededError(model, late)
            pending.event.set()
        if self._expired is not None:
            self._expired[model].inc(len(expired))

    def _collect_sched(self, model: str,
                       queue: EdfQueue) -> Tuple[List[_Pending], float]:
        """Policy-driven assembly: EDF order, online batch size, expiry.

        Returns the batch plus the time assembly began — the anchor for
        ``sched.wait`` spans (policy-imposed wait, vs. backlog wait which is
        the rest of ``backend.queue``).
        """
        collect_start = self.clock()
        while True:
            batch, expired = queue.collect(
                self.sched, clock=self.clock,
                est_s=lambda rows: self.latency.estimate_s(model, rows),
                max_batch=self.policy.max_batch,
                timeout_s=self.policy.timeout_ms / 1e3,
                active_models=self._active_models)
            if expired:
                self._reject_expired(model, expired)
            if batch:
                return batch, collect_start
            if queue.finished:
                return [], collect_start

    # ------------------------------------------------------------ app stages
    @staticmethod
    def _by_app(requests: List[_Pending]):
        """``(app, its requests)`` groups, in first-seen order."""
        groups: Dict[int, Tuple[object, List[_Pending]]] = {}
        for p in requests:
            groups.setdefault(id(p.app), (p.app, []))[1].append(p)
        return groups.values()

    def _preprocess_stage(self, model: str, batch: List[_Pending],
                          rec: _BatchRecord) -> List[_Pending]:
        """Batched server-side preprocess of the raw payloads in ``batch``.

        Runs *before* any plan lock is taken (preprocess needs no arena)
        and skips requests that already carry rows.  Returns the surviving
        requests: a poisoned raw payload gets its typed ``error`` and drops
        out, the rest of the batch proceeds.  A worker batch of
        slot-eligible payloads under a proc pool is *deferred*: the raw
        items ship as slot rows and the worker process preprocesses them.
        """
        todo = [p for p in batch if p.app is not None and p.inputs is None]
        if not todo:
            return batch
        rec.pre_start = self.clock()
        injector = faultsite.active
        if injector is not None:
            for p in todo:
                try:
                    injector.on_preprocess(model)
                except Exception as exc:
                    p.error = exc
            todo = [p for p in todo if p.error is None]
            batch = [p for p in batch if p.error is None]
        pool = self.pool
        if (pool is not None and not rec.inline
                and 0 < len(todo) == len(batch) <= pool.max_batch):
            raw_shape = pool.raw_item_shape(model)
            if raw_shape is not None and all(
                    isinstance(p.raw, np.ndarray)
                    and tuple(p.raw.shape) == raw_shape for p in todo):
                # one raw item -> one slot row -> one DNN row; parent-side
                # cost is bookkeeping, so no preprocess window is recorded
                for p in todo:
                    p.inputs = np.asarray(p.raw, dtype=np.float32)[None]
                rec.deferred = True
                return batch
        for app, group in self._by_app(todo):
            try:
                inputs, counts = app.preprocess_batch([p.raw for p in group])
                inputs = np.asarray(inputs, dtype=np.float32)
                offset = 0
                for p, count in zip(group, counts):
                    p.inputs = inputs[offset:offset + count]
                    offset += count
            except Exception:
                # the vectorized call failed somewhere inside the block;
                # re-run per item so only the poisoned payload errors out
                for p in group:
                    try:
                        p.inputs = np.asarray(app.preprocess(p.raw),
                                              dtype=np.float32)
                    except Exception as exc:
                        p.error = exc
        pre_end = self.clock()
        rows = 0
        for p in todo:
            if p.error is None:
                p.pre_start, p.pre_end = rec.pre_start, pre_end
                rows += len(p.inputs)
        if rows:
            self.latency.observe(f"{model}:preprocess", rows,
                                 pre_end - rec.pre_start)
        return [p for p in batch if p.error is None]

    def _postprocess_stage(self, model: str, batch: List[_Pending],
                           rec: _BatchRecord) -> None:
        """Batched postprocess: app waiters get their final answer.

        A failing postprocess falls back to the per-item loop so only the
        offending request errors.
        """
        apps = [p for p in batch if p.app is not None]
        if not apps:
            return
        rec.app_start = self.clock()
        for app, group in self._by_app(apps):
            views = [p.result for p in group]
            block = views[0] if len(views) == 1 \
                else np.concatenate(views, axis=0)
            try:
                results = app.postprocess_batch(
                    block, [p.raw for p in group], [len(v) for v in views])
                for p, result in zip(group, results):
                    p.result = result
            except Exception:
                for p, view in zip(group, views):
                    try:
                        p.result = app.postprocess(view, p.raw)
                    except Exception as exc:
                        p.error = exc
        rec.app_end = self.clock()
        self.latency.observe(f"{model}:postprocess",
                             sum(len(p.inputs) for p in apps),
                             rec.app_end - rec.app_start)

    # ------------------------------------------------------- the one forward
    def _layer_cache_for(self, model: str, plan) -> Optional[LayerCache]:
        """The model's layer cache (built on first use), or ``None``."""
        if self.layer_cache is None:
            return None
        try:
            return self.layer_caches[model]
        except KeyError:
            try:
                cache = LayerCache.from_config(plan, self.layer_cache)
            except PlanError:  # no safe split: serve uncached
                cache = None
            return self.layer_caches.setdefault(model, cache)

    def _serve(self, model: str, batch: List[_Pending], rec: _BatchRecord,
               plan) -> None:
        """Serve one assembled batch: gather → forward → scatter → post.

        ``plan`` is the :class:`ExecutionPlan` to run on, its lock held by
        the caller — or ``None`` to ride a proc-pool slot.  Either way the
        forward yields an owned array, so the caller may release the plan
        as soon as this returns.  Raises on failure; the caller owns
        delivery of the error.
        """
        clock = self.clock
        if faultsite.active is not None:
            faultsite.active.on_batch(model)
        rec.start = rec.start or clock()
        rows = rec.rows = sum(len(p.inputs) for p in batch)
        if plan is not None:
            sample_shape = tuple(plan.net.input_shape)
            slab = plan.input_view(rows)
            offset = 0
            for p in batch:
                arr = p.inputs
                if tuple(arr.shape[1:]) != sample_shape:
                    # np.copyto would silently broadcast a wrong-width payload
                    raise ValueError(
                        f"request payload shape {arr.shape[1:]} does not "
                        f"match model input shape {sample_shape}")
                np.copyto(slab[offset:offset + len(arr)], arr)
                offset += len(arr)
        if (self.profile_layers and self.tracer.enabled
                and any(p.trace is not None for p in batch)):
            rec.timer = LayerTimer(clock)
        rec.forward_start = clock()
        if plan is None:
            # gather happens directly into the shm slot, and the pool copies
            # the result out before freeing it.  A deferred batch ships *raw*
            # rows: the worker process preprocesses in-slot before its
            # forward.
            outputs = self.pool.submit_parts(
                model, [p.inputs for p in batch], raw=rec.deferred)
        else:
            cache = self._layer_cache_for(model, plan)
            if cache is not None:
                rec.served = cache.serve(rows, timer=rec.timer, clock=clock,
                                         plan=plan)
                outputs = rec.served.outputs
            else:
                # the one copy out of the arena, so no waiter pins the plan
                outputs = plan.execute(rows, timer=rec.timer).copy()
                outputs.flags.writeable = False
        rec.forward_end = clock()
        if self.service_floor_s:
            # pace before scatter so the paced idle stays out of every span
            # (it is injected device time, honestly left unattributed)
            remaining = self.service_floor_s - (clock() - rec.start)
            if remaining > 0:
                time.sleep(remaining)
        rec.post_start = clock()
        # every runner hands back an owned read-only array: each waiter gets
        # its row slice, read-only too
        offset = 0
        for p in batch:
            n = len(p.inputs)
            p.result = outputs[offset:offset + n]
            offset += n
        self._postprocess_stage(model, batch, rec)
        self._account(model, batch, rec)

    def _account(self, model: str, batch: List[_Pending],
                 rec: _BatchRecord) -> None:
        """Derive all telemetry for one served batch from its record.

        Stages are exclusive and request-weighted (each waiter experienced
        the assemble and the forward; queue time is summed per request),
        matching the cost ledger: the policy wait goes to ``sched.wait``
        not ``backend.queue`` too, the layer-cache probe window moves from
        ``net.forward`` into ``engine.cache``.  Everything from scatter
        start to the delivery stamp taken here — slice hand-out and this
        accounting itself — is ``batch.scatter``, split around the app
        postprocess window; respond accounting takes over at the stamp.
        """
        n = len(batch)
        rows = rec.rows
        forward_s = rec.forward_end - rec.forward_start
        # refine the measured latency curve on every executed batch
        self.latency.observe(model, rows, forward_s)
        sizes = self.executed_batches.get(model)
        if sizes is None:
            sizes = self.executed_batches.setdefault(
                model, deque(maxlen=self.EXECUTED_WINDOW))
        sizes.append(rows)
        served = rec.served
        probe_s = 0.0 if served is None else max(
            0.0, min(forward_s, served.probe_end - served.probe_start))
        # with a preprocess stage in front, queueing ends when preprocess
        # picks the batch up — the stages stay exclusive
        queue_end = rec.pre_start or rec.start
        collect_start = rec.collect_start
        tracer = self.tracer
        traced = ([p for p in batch if p.trace is not None]
                  if tracer.enabled else ())
        for p in traced:
            tid, parent = p.trace
            if not rec.inline:
                qspan = tracer.add_span("backend.queue", p.enqueue_s,
                                        queue_end, tid, parent,
                                        category="queue", model=model)
                if collect_start is not None:
                    wait_from = max(p.enqueue_s, collect_start)
                    if queue_end > wait_from:
                        tracer.add_span("sched.wait", wait_from, queue_end,
                                        tid, qspan.span_id,
                                        category="sched", model=model)
            if p.pre_end:
                tracer.add_span("app.preprocess", p.pre_start, p.pre_end,
                                tid, parent, category="app", model=model,
                                rows=len(p.inputs))
            tracer.add_span("batch.assemble", rec.start, rec.forward_start,
                            tid, parent, category="batch",
                            batch_size=rows, requests=n)
            fspan = tracer.add_span("net.forward", rec.forward_start,
                                    rec.forward_end, tid, parent,
                                    category="compute", model=model,
                                    batch_size=rows)
            if served is not None:
                # nested child of net.forward: the cost ledger's
                # deepest-span-wins sweep carves the probe window out of
                # the forward's exclusive time
                tracer.add_span("engine.cache", served.probe_start,
                                served.probe_end, tid, fspan.span_id,
                                category="compute", model=model,
                                hits=served.hits, misses=served.misses)
            if rec.timer is not None:
                rec.timer.emit_spans(tracer, tid, fspan.span_id)
            if p.app is not None:
                tracer.add_span("app.postprocess", rec.app_start,
                                rec.app_end, tid, parent, category="app",
                                model=model)
        stage = self._stage_seconds
        if stage is not None:
            self._batch_size[model].observe(rows)
            if rec.inline:
                self._fast_hits[model].inc()
            else:
                queue_s = wait_s = 0.0
                for p in batch:
                    waited = max(0.0, queue_end - p.enqueue_s)
                    if collect_start is not None:
                        policy = max(0.0, queue_end
                                     - max(p.enqueue_s, collect_start))
                        wait_s += policy
                        waited -= policy
                    queue_s += waited
                if wait_s > 0:
                    stage[model, "sched.wait"].inc(wait_s)
                stage[model, "backend.queue"].inc(queue_s)
            pre_s = sum(p.pre_end - p.pre_start for p in batch)
            if pre_s:
                stage[model, "preprocess"].inc(pre_s)
            if served is not None:
                stage[model, "engine.cache"].inc(probe_s * n)
                events = self._layer_cache_events
                for event, count in (("hit", served.hits),
                                     ("miss", served.misses),
                                     ("collision", served.collisions)):
                    if count:
                        events[model, event].inc(count)
                self._layer_cache_fidelity[model].set(served.fidelity_max)
            stage[model, "net.forward"].inc((forward_s - probe_s) * n)
            if rec.app_end:
                stage[model, "postprocess"].inc(
                    (rec.app_end - rec.app_start)
                    * sum(1 for p in batch if p.app is not None))
        delivered = self.clock()
        for p in batch:
            p.delivered_s = delivered
        for p in traced:
            tid, parent = p.trace
            tracer.add_span("batch.scatter", rec.post_start,
                            rec.app_start or delivered, tid, parent,
                            category="batch", batch_size=rows)
            if rec.app_end:
                tracer.add_span("batch.scatter", rec.app_end, delivered,
                                tid, parent, category="batch",
                                batch_size=rows)
        if stage is not None:
            stage[model, "batch.assemble"].inc(
                ((rec.forward_start - rec.start)
                 + (delivered - rec.post_start)
                 - (rec.app_end - rec.app_start)) * n)

    # -------------------------------------------------------------- worker
    def _run_worker(self, model: str, queue, net, envelope) -> None:
        pool = self.pool
        while True:
            rec = _BatchRecord()
            if self.sched is not None:
                batch, rec.collect_start = self._collect_sched(model, queue)
            else:
                batch = self._collect(queue)
            if not batch:
                return
            collected = batch
            batch = self._preprocess_stage(model, batch, rec)
            for p in collected:
                if p.error is not None:
                    p.event.set()  # poisoned payloads fail on their own
            if not batch:
                continue
            rows = sum(len(p.inputs) for p in batch)
            plan = None
            try:
                if pool is None or rows > pool.max_batch:
                    # _collect admits one oversize request past max_batch;
                    # a batch overflowing the envelope (or the pool slot)
                    # runs on a throw-away plan compiled for its row count
                    plan = (envelope if envelope is not None
                            and rows <= envelope.max_batch
                            else ExecutionPlan(net, rows))
                    plan.lock.acquire()
                self._serve(model, batch, rec, plan)
            except Exception as exc:  # deliver failures to every waiter
                for p in batch:
                    p.error = exc
            finally:
                if plan is not None:
                    plan.lock.release()
                for p in batch:
                    p.event.set()
