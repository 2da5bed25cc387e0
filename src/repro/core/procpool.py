"""Process-based worker pool over shared-memory weights and slots.

Paper §3: the DjiNN server scales one model across many GPU SMs from a
single resident copy of the weights.  The CPU analogue is processes, not
threads — python layer glue serializes on the GIL, so a threaded replica
cannot use more than ~1 core outside BLAS.  :class:`ProcPoolExecutor`
gives one replica true core-level parallelism while keeping the paper's
"load once, share read-only" memory story:

* the parent exports every registry model into
  ``multiprocessing.shared_memory`` via :meth:`ModelRegistry.export_shm`
  and forks N workers; each worker attaches the manifest and binds
  ``writeable=False`` ndarray views — one physical copy of the weights
  per host, enforced by the MMU (a worker writing a weight gets
  ``ValueError`` from numpy before it could get anywhere near a page
  fault);
* requests travel through a shm **slot ring**: the parent copies payloads
  straight into a slot's input region, the worker runs an arena-backed
  :class:`~repro.nn.engine.ExecutionPlan` forward with
  :meth:`~repro.nn.engine.ExecutionPlan.run_into` targeting the slot's
  output region, and the parent hands the response out as a read-only
  view (:class:`PoolLease`) — no pickling, no sockets, no output copy in
  the parent;
* each worker owns *private* arena slabs (activations are written every
  forward) but maps the shared weights — exactly the paper's split of
  mutable scratch vs. immutable model state;
* a supervisor thread reaps dead workers, requeues the slot a dead worker
  was running (so a mid-batch crash loses nothing), and respawns a
  replacement with the same worker index;
* workers publish their :class:`~repro.obs.MetricsRegistry` dumps into
  seqlock'd shm regions; :meth:`worker_metric_dumps` feeds them to the
  existing :func:`repro.obs.merge_dumps` path, so fleet metrics include
  per-process counters for free;
* the :mod:`repro.core.faultsite` seam stays live inside workers: a
  :class:`~repro.faults.FaultPlan` handed to the pool is re-armed in each
  worker with a seed derived from the worker index, and the parent-side
  ``proc.dispatch`` site can deterministically mark a slot so the worker
  executing it dies (the ``worker_kill`` chaos scenario).

Slot header layout (little-endian, 64-byte aligned regions)::

    offset 0   u64  seq        monotone per-dispatch sequence number
    offset 8   u32  state      FREE/QUEUED/RUNNING/DONE/ERROR
    offset 12  u32  model      index into the sorted model table
    offset 16  u32  rows       batch rows in this slot
    offset 20  u32  flags      bit 0: kill-on-pickup (chaos); bit 1: raw
                               payload — the input region holds raw app
                               items and the worker preprocesses in-slot
    offset 24  u32  worker     index of the worker executing, else NO_WORKER
    offset 32  u16+bytes       error message (type-tagged, ERROR state only)
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import struct
import threading
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.engine import ExecutionPlan, PlanError
from ..obs.metrics import MetricsRegistry, read_dump_region, write_dump_region
from . import faultsite, shm as shmseg
from .registry import ModelRegistry

__all__ = ["ProcPoolExecutor", "ProcPoolError", "PoolLease", "parse_workers"]


class ProcPoolError(RuntimeError):
    """Pool-level failure: no slots, closed pool, or an unmapped worker error."""


# ------------------------------------------------------------ slot protocol
HEADER_BYTES = 320          #: per-slot header (struct + error message region)
_HDR_FMT = "<QIIIII"        #: seq, state, model, rows, flags, worker
_ERR_OFF = 32               #: error message: u16 length + utf-8 bytes
_ERR_CAP = HEADER_BYTES - _ERR_OFF - 2

STATE_FREE, STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_ERROR = range(5)
FLAG_KILL = 0x1
FLAG_RAW = 0x2
NO_WORKER = 0xFFFFFFFF
KILL_EXIT_CODE = 113        #: exit status of a chaos-killed worker

#: capacity of each worker's seqlock'd metrics-dump region
METRICS_REGION_BYTES = 64 * 1024

#: multiplier separating per-worker fault seeds; large enough that derived
#: streams never collide for realistic worker counts
_WORKER_SEED_STRIDE = 0x9E37


def _pack_header(buf, base: int, seq: int, state: int, model: int,
                 rows: int, flags: int, worker: int) -> None:
    struct.pack_into(_HDR_FMT, buf, base, seq, state, model, rows, flags, worker)


def _unpack_header(buf, base: int) -> Tuple[int, int, int, int, int, int]:
    return struct.unpack_from(_HDR_FMT, buf, base)


def _write_error(buf, base: int, message: str) -> None:
    raw = message.encode("utf-8", errors="replace")[:_ERR_CAP]
    struct.pack_into("<H", buf, base + _ERR_OFF, len(raw))
    buf[base + _ERR_OFF + 2:base + _ERR_OFF + 2 + len(raw)] = raw


def _read_error(buf, base: int) -> str:
    (length,) = struct.unpack_from("<H", buf, base + _ERR_OFF)
    raw = bytes(buf[base + _ERR_OFF + 2:base + _ERR_OFF + 2 + length])
    return raw.decode("utf-8", errors="replace")


def _rebuild_error(message: str) -> Exception:
    """Map a worker-side ``Type|text`` error back onto a parent exception.

    Request-shaped failures come back as the same exception types the
    threaded executor raises (so ``DjinnServer`` turns them into ERROR
    frames), injected faults come back as :class:`InjectedFault`
    (``ConnectionError`` — the connection dies, gateways retry), and
    anything else surfaces as :class:`ProcPoolError`.
    """
    kind, _, text = message.partition("|")
    if kind == "ValueError":
        return ValueError(text)
    if kind == "KeyError":
        return KeyError(text)
    if kind == "InjectedFault":
        return faultsite.InjectedFault(text)
    return ProcPoolError(f"worker error: {message}")


def parse_workers(spec) -> int:
    """Parse a ``--workers`` value: ``None``/""/0 -> 0, ``proc:N``/``N`` -> N."""
    if spec is None:
        return 0
    if isinstance(spec, int):
        count = spec
    else:
        text = str(spec).strip()
        if not text:
            return 0
        if text.startswith("proc:"):
            text = text[len("proc:"):]
        try:
            count = int(text)
        except ValueError:
            raise ValueError(
                f"invalid workers spec {spec!r}; expected 'proc:N' or an integer"
            ) from None
    if count < 0:
        raise ValueError(f"workers must be >= 0, got {count}")
    return count


class _ModelMeta:
    __slots__ = ("name", "in_shape", "out_shape", "in_sample", "out_sample",
                 "raw_shape", "raw_sample")

    def __init__(self, name: str, in_shape, out_shape):
        self.name = name
        self.in_shape = tuple(int(d) for d in in_shape)
        self.out_shape = tuple(int(d) for d in out_shape)
        self.in_sample = int(np.prod(self.in_shape, dtype=np.int64)) * 4
        self.out_sample = int(np.prod(self.out_shape, dtype=np.int64)) * 4
        # raw app-payload shape for in-worker preprocess (FLAG_RAW), or None
        from ..tonic.serve import raw_item_shape

        self.raw_shape = raw_item_shape(name, self.in_shape)
        self.raw_sample = (int(np.prod(self.raw_shape, dtype=np.int64)) * 4
                           if self.raw_shape is not None else 0)


class _Waiter:
    __slots__ = ("seq", "event")

    def __init__(self, seq: int):
        self.seq = seq
        self.event = threading.Event()


class PoolLease:
    """A served batch pinned in its response slot until released.

    :attr:`outputs` is a read-only ndarray view over the shm ring; call
    :meth:`release` (or use as a context manager) to hand the slot back.
    Mirrors :class:`repro.core.batching.ResultLease` so the server's
    serialize-from-the-lease path works unchanged.
    """

    __slots__ = ("_pool", "_slot", "_outputs", "_released")

    def __init__(self, pool: "ProcPoolExecutor", slot: int, outputs: np.ndarray):
        self._pool = pool
        self._slot = slot
        self._outputs = outputs
        self._released = False

    @property
    def outputs(self) -> np.ndarray:
        if self._released:
            raise RuntimeError("lease already released")
        return self._outputs

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._outputs = None
        self._pool._release_slot(self._slot)

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# -------------------------------------------------------------- worker side
def _derive_worker_plan(plan_dict: dict, index: int):
    from ..faults.plan import FaultPlan

    base = FaultPlan.from_dict(plan_dict)
    return FaultPlan(
        rules=base.rules,
        seed=base.seed * _WORKER_SEED_STRIDE + index + 1,
        name=f"{base.name}/worker{index}",
    )


def _worker_main(index: int, manifest: dict, ring_name: str, layout: dict,
                 work_q, resp_q, plan_dict: Optional[dict]) -> None:
    """Worker process entry point: attach, then serve slots until sentinel."""
    try:
        # A forked worker inherits whatever injector the parent had armed;
        # that one belongs to the parent's ordinal space.  Replace it with a
        # worker-seeded derivation so chaos stays deterministic per worker.
        faultsite.active = None
        if plan_dict is not None:
            from ..faults.plan import FaultInjector

            faultsite.install(FaultInjector(_derive_worker_plan(plan_dict, index)))

        registry = ModelRegistry.attach_shm(manifest)
        ring = shmseg.attach_segment(ring_name)
        _worker_loop(index, registry, ring, layout, work_q, resp_q)
    except KeyboardInterrupt:
        pass
    except BaseException:  # pragma: no cover - init failures surface via respawn cap
        import traceback

        traceback.print_exc()
        os._exit(1)


def _worker_loop(index: int, registry: ModelRegistry, ring, layout: dict,
                 work_q, resp_q) -> None:
    buf = ring.buf
    models: List[dict] = layout["models"]
    max_batch: int = layout["max_batch"]
    nets = {meta["name"]: registry.get(meta["name"]) for meta in models}
    plans: Dict[str, Optional[ExecutionPlan]] = {}
    apps: Dict[str, object] = {}  # lazily built per model for FLAG_RAW slots
    metrics = MetricsRegistry()
    served = metrics.counter(
        "djinn_proc_requests_total", "Requests served by pool workers",
        labelnames=("model", "worker"))
    forward_s = metrics.histogram(
        "djinn_proc_forward_seconds", "In-worker forward latency",
        labelnames=("model", "worker"))
    region_off = layout["metrics_off"] + index * layout["metrics_size"]
    region = buf[region_off:region_off + layout["metrics_size"]]

    while True:
        slot = work_q.get()
        if slot is None:
            break
        base = layout["slots_off"] + slot * layout["stride"]
        seq, _state, model_idx, rows, flags, _ = _unpack_header(buf, base)
        # Claim before the kill check: the supervisor requeues RUNNING slots
        # owned by a dead worker, so marking first makes the injected crash
        # (and any real crash mid-forward) lose nothing.
        _pack_header(buf, base, seq, STATE_RUNNING, model_idx, rows, flags, index)
        if flags & FLAG_KILL:
            os._exit(KILL_EXIT_CODE)
        meta = models[model_idx]
        name = meta["name"]
        try:
            if faultsite.active is not None:
                faultsite.active.on_batch(name)
            if flags & FLAG_RAW:
                # the slot holds raw app items; run the app's batched
                # preprocess *in this worker process* (stage-1 parallelism
                # across the pool), then forward the preprocessed block
                raw_shape = tuple(meta["raw_shape"])
                x = np.ndarray((rows,) + raw_shape, dtype=np.float32,
                               buffer=buf, offset=base + layout["in_off"])
            else:
                x = np.ndarray((rows,) + tuple(meta["in_shape"]),
                               dtype=np.float32, buffer=buf,
                               offset=base + layout["in_off"])
            out = np.ndarray((rows,) + tuple(meta["out_shape"]), dtype=np.float32,
                             buffer=buf, offset=base + layout["out_off"])
            start = time.monotonic()
            if flags & FLAG_RAW:
                if name not in apps:
                    from ..tonic.serve import _default_app

                    apps[name] = _default_app(name, nets[name])
                app = apps[name]
                if app is None:
                    raise ValueError(f"no serving app for model {name!r}")
                x, _counts = app.preprocess_batch(
                    [x[i] for i in range(rows)])
                x = np.ascontiguousarray(x, dtype=np.float32)
            if name not in plans:
                net = nets[name]
                try:
                    plans[name] = ExecutionPlan(net, max_batch)
                except PlanError:
                    plans[name] = None  # un-plannable: legacy forward below
            plan = plans[name]
            if plan is not None:
                plan.run_into(x, out)
            else:
                np.copyto(out, nets[name].forward(x))
            elapsed = time.monotonic() - start
            served.labels(model=name, worker=str(index)).inc()
            forward_s.labels(model=name, worker=str(index)).observe(elapsed)
            try:
                write_dump_region(region, metrics.dump())
            except ValueError:
                pass  # dump outgrew the region; stale stats beat a dead worker
            _pack_header(buf, base, seq, STATE_DONE, model_idx, rows, 0, index)
        except Exception as exc:
            _write_error(buf, base, f"{type(exc).__name__}|{exc}")
            _pack_header(buf, base, seq, STATE_ERROR, model_idx, rows, 0, index)
        resp_q.put((slot, seq))


# -------------------------------------------------------------- parent side
class ProcPoolExecutor:
    """Drop-in executor running forwards in N shared-memory worker processes.

    The submit surface mirrors :class:`repro.core.BatchingExecutor`:
    :meth:`submit` (copying), :meth:`submit_lease` (copy-free view), plus
    :meth:`submit_parts` for a batching front-end that gathers several
    payloads into one slot.  All three are thread-safe.
    """

    #: how long a submitter waits for a free slot before giving up
    SLOT_TIMEOUT_S = 30.0
    #: end-to-end per-request deadline (covers a worker respawn mid-request)
    REQUEST_TIMEOUT_S = 60.0
    #: give up respawning after this many deaths per worker slot (a worker
    #: that cannot even initialize would otherwise fork-bomb the host)
    MAX_RESPAWNS_PER_WORKER = 5

    def __init__(self, registry: ModelRegistry, workers: int = 2, *,
                 max_batch: int = 16, slots: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None, clock=time.monotonic,
                 fault_plan=None, start_method: Optional[str] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        names = registry.names()
        if not names:
            raise ValueError("cannot start a proc pool over an empty registry")
        self.registry = registry
        self.workers = workers
        self.max_batch = max_batch
        self.clock = clock
        from ..obs.trace import get_tracer

        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._dispatch_total = self.metrics.counter(
            "djinn_proc_dispatch_total", "Batches dispatched to pool workers",
            labelnames=("model",))
        self._respawn_total = self.metrics.counter(
            "djinn_proc_worker_respawns_total",
            "Workers reaped and replaced after unexpected death")
        self._workers_gauge = self.metrics.gauge(
            "djinn_proc_workers", "Live pool worker processes")

        #: weights: exported once per registry, shared by every pool/worker
        self.manifest = registry.export_shm()
        self._models = [
            _ModelMeta(name, registry.get(name).input_shape,
                       registry.get(name).output_shape)
            for name in names
        ]
        self._model_index = {meta.name: i for i, meta in enumerate(self._models)}

        slot_count = slots if slots is not None else max(workers + 2, 4)
        # the input region must hold either a preprocessed batch or a raw
        # app-payload batch, whichever is larger for any model
        in_cap = shmseg.align64(
            max(max(m.in_sample, m.raw_sample) for m in self._models)
            * max_batch)
        out_cap = shmseg.align64(max(m.out_sample for m in self._models) * max_batch)
        self._in_off = HEADER_BYTES
        self._out_off = HEADER_BYTES + in_cap
        stride = HEADER_BYTES + in_cap + out_cap
        self._layout = {
            "slots": slot_count,
            "stride": stride,
            "slots_off": 0,
            "in_off": self._in_off,
            "out_off": self._out_off,
            "metrics_off": slot_count * stride,
            "metrics_size": METRICS_REGION_BYTES,
            "max_batch": max_batch,
            "models": [
                {"name": m.name, "in_shape": list(m.in_shape),
                 "out_shape": list(m.out_shape),
                 "raw_shape": (list(m.raw_shape)
                               if m.raw_shape is not None else None)}
                for m in self._models
            ],
        }
        ring_bytes = slot_count * stride + workers * METRICS_REGION_BYTES
        self._ring = shared_memory.SharedMemory(create=True, size=ring_bytes)

        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._stopping = threading.Event()
        self._unlinked = False
        self._waiters: Dict[int, _Waiter] = {}
        self._free: "queue.Queue[int]" = queue.Queue()
        for slot in range(slot_count):
            self._free.put(slot)

        if start_method is None:
            start_method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                            else "spawn")
        self._ctx = multiprocessing.get_context(start_method)
        self._work_q = self._ctx.Queue()
        self._resp_q = self._ctx.Queue()
        self._plan_dict = fault_plan.to_dict() if fault_plan is not None else None

        self._procs: List[multiprocessing.Process] = [
            self._spawn(i) for i in range(workers)
        ]
        self._workers_gauge.labels().set(workers)

        self._collector = threading.Thread(
            target=self._collect_loop, name="procpool-collector", daemon=True)
        self._collector.start()
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="procpool-supervisor", daemon=True)
        self._supervisor.start()

    # ----------------------------------------------------------- lifecycle
    def _spawn(self, index: int):
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.manifest, self._ring.name, self._layout,
                  self._work_q, self._resp_q, self._plan_dict),
            name=f"djinn-proc-{index}",
            daemon=True,
        )
        proc.start()
        return proc

    def close(self) -> None:
        """Stop workers and release the ring segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stopping.set()
        for _ in self._procs:
            self._work_q.put(None)
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._resp_q.put(None)
        self._collector.join(timeout=5.0)
        self._supervisor.join(timeout=5.0)
        # fail anything still waiting: submitters see a non-DONE state
        with self._lock:
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.event.set()
        for q in (self._work_q, self._resp_q):
            q.close()
            q.cancel_join_thread()
        with self._lock:
            if not self._unlinked:
                self._unlinked = True
                shmseg.unlink_segment(self._ring)
        self._workers_gauge.labels().set(0)

    def __enter__(self) -> "ProcPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- serving
    def submit(self, model: str, inputs: np.ndarray, *, trace=None) -> np.ndarray:
        """Serve one batch and return an owned copy of the outputs."""
        lease = self.submit_lease(model, inputs, trace=trace)
        try:
            return np.array(lease.outputs, copy=True)
        finally:
            lease.release()

    def submit_lease(self, model: str, inputs: np.ndarray, *, trace=None) -> PoolLease:
        """Serve one batch; the result stays pinned in its slot until released."""
        return self.submit_parts(model, [inputs], trace=trace)

    def submit_parts(self, model: str, parts: Sequence[np.ndarray], *,
                     trace=None, raw: bool = False) -> PoolLease:
        """Gather ``parts`` into one slot, dispatch, wait, lease the result.

        With ``raw=True`` the parts are *raw app payload items* (shape
        :meth:`raw_item_shape`, one DNN row each); the worker process runs
        the model's app ``preprocess_batch`` inside the slot before its
        forward, moving stage-1 work off the parent's executor thread.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        index = self._model_index.get(model)
        if index is None:
            raise KeyError(
                f"model {model!r} not in pool; available: "
                f"{[m.name for m in self._models]}")
        meta = self._models[index]
        if raw and meta.raw_shape is None:
            raise ValueError(
                f"model {model!r} has no raw slot shape; raw dispatch is "
                f"only for slot-eligible app payloads")
        sample_shape = meta.raw_shape if raw else meta.in_shape
        arrays: List[np.ndarray] = []
        rows = 0
        for part in parts:
            arr = np.asarray(part, dtype=np.float32)
            if arr.ndim == len(sample_shape):
                arr = arr[None]
            if tuple(arr.shape[1:]) != sample_shape:
                raise ValueError(
                    f"model {model!r} expects sample shape {sample_shape}, "
                    f"got {tuple(arr.shape[1:])}")
            arrays.append(arr)
            rows += arr.shape[0]
        if rows < 1:
            raise ValueError("empty batch")
        if rows > self.max_batch:
            raise ValueError(
                f"batch of {rows} rows exceeds pool envelope {self.max_batch}")

        # the forward span starts here: slot acquisition and the copy into
        # the shm slot are the cost of issuing this batch to the executor
        start = self.clock()
        try:
            slot = self._free.get(timeout=self.SLOT_TIMEOUT_S)
        except queue.Empty:
            raise ProcPoolError(
                f"no free response slot after {self.SLOT_TIMEOUT_S}s "
                f"({self._layout['slots']} slots)") from None
        base = self._layout["slots_off"] + slot * self._layout["stride"]
        buf = self._ring.buf
        inp = np.ndarray((rows,) + sample_shape, dtype=np.float32,
                         buffer=buf, offset=base + self._in_off)
        row = 0
        for arr in arrays:
            np.copyto(inp[row:row + arr.shape[0]], arr)
            row += arr.shape[0]
        with self._lock:
            self._seq += 1
            seq = self._seq
        flags = FLAG_RAW if raw else 0
        if faultsite.active is not None and faultsite.active.on_dispatch(model):
            flags |= FLAG_KILL
        _pack_header(buf, base, seq, STATE_QUEUED, index, rows, flags, NO_WORKER)
        waiter = _Waiter(seq)
        with self._lock:
            self._waiters[slot] = waiter
        self._dispatch_total.labels(model=model).inc()
        self._work_q.put(slot)

        if not waiter.event.wait(self.REQUEST_TIMEOUT_S):
            with self._lock:
                self._waiters.pop(slot, None)
            # the worker may still write the slot later: leak it rather than
            # hand out a slot that could be scribbled on mid-flight
            raise ProcPoolError(
                f"request timed out after {self.REQUEST_TIMEOUT_S}s "
                f"(slot {slot} abandoned)")
        with self._lock:
            self._waiters.pop(slot, None)
        _seq, state, _model, _rows, _flags, _worker = _unpack_header(buf, base)
        if state == STATE_DONE:
            if trace is not None and self.tracer.enabled:
                trace_id, parent_id = trace
                self.tracer.add_span(
                    "net.forward", start, self.clock(), trace_id, parent_id,
                    category="compute", model=model, batch_size=rows,
                    executor="proc")
            out = np.ndarray((rows,) + meta.out_shape, dtype=np.float32,
                             buffer=buf, offset=base + self._out_off)
            out.flags.writeable = False
            return PoolLease(self, slot, out)
        if state == STATE_ERROR:
            message = _read_error(buf, base)
            self._release_slot(slot)
            raise _rebuild_error(message)
        self._release_slot(slot)
        raise ProcPoolError("pool closed while request was in flight")

    def raw_item_shape(self, model: str) -> Optional[Tuple[int, ...]]:
        """Shape of one raw payload item for ``submit_parts(raw=True)``,
        or ``None`` when the model is not slot-eligible for in-worker
        preprocess (ragged payloads, non-canonical input shapes)."""
        index = self._model_index.get(model)
        if index is None:
            return None
        return self._models[index].raw_shape

    def _release_slot(self, slot: int) -> None:
        if self._closed:
            return
        base = self._layout["slots_off"] + slot * self._layout["stride"]
        _pack_header(self._ring.buf, base, 0, STATE_FREE, 0, 0, 0, NO_WORKER)
        self._free.put(slot)

    # --------------------------------------------------------- background
    def _collect_loop(self) -> None:
        while True:
            try:
                item = self._resp_q.get()
            except (EOFError, OSError):  # pragma: no cover - teardown race
                return
            if item is None:
                return
            slot, seq = item
            with self._lock:
                waiter = self._waiters.get(slot)
            if waiter is not None and waiter.seq == seq:
                waiter.event.set()

    def _supervise_loop(self) -> None:
        from multiprocessing import connection

        respawns = 0
        while not self._stopping.is_set():
            sentinels = {}
            for i, proc in enumerate(self._procs):
                if proc.is_alive():
                    sentinels[proc.sentinel] = i
            if not sentinels:
                if self._stopping.wait(0.05):
                    return
                continue
            ready = connection.wait(list(sentinels), timeout=0.2)
            if self._stopping.is_set():
                return
            for sentinel in ready:
                index = sentinels[sentinel]
                proc = self._procs[index]
                proc.join()
                self._respawn_total.labels().inc()
                self._recover_slots(index)
                respawns += 1
                if respawns <= self.MAX_RESPAWNS_PER_WORKER * self.workers:
                    self._procs[index] = self._spawn(index)
                else:  # pragma: no cover - crash-loop backstop
                    self._workers_gauge.labels().dec()

    def _recover_slots(self, dead_worker: int) -> None:
        """Requeue whatever the dead worker was running; wake finished slots.

        A slot in RUNNING owned by the dead worker goes back on the work
        queue with the kill flag cleared (an injected kill fires once); a
        slot already DONE/ERROR whose response message died with the worker
        just needs its waiter signalled.
        """
        buf = self._ring.buf
        for slot in range(self._layout["slots"]):
            base = self._layout["slots_off"] + slot * self._layout["stride"]
            seq, state, model, rows, flags, worker = _unpack_header(buf, base)
            if state == STATE_RUNNING and worker == dead_worker:
                _pack_header(buf, base, seq, STATE_QUEUED, model, rows,
                             flags & ~FLAG_KILL, NO_WORKER)
                self._work_q.put(slot)
            elif state in (STATE_DONE, STATE_ERROR):
                with self._lock:
                    waiter = self._waiters.get(slot)
                if waiter is not None and waiter.seq == seq:
                    waiter.event.set()

    # ------------------------------------------------------------- reports
    def worker_metric_dumps(self) -> List[dict]:
        """Per-worker metrics dumps read from the seqlock'd shm regions."""
        if self._closed:
            return []
        dumps = []
        buf = self._ring.buf
        for i in range(self.workers):
            off = self._layout["metrics_off"] + i * self._layout["metrics_size"]
            dump = read_dump_region(buf[off:off + self._layout["metrics_size"]])
            if dump is not None:
                dumps.append(dump)
        return dumps

    def respawn_count(self) -> int:
        return int(self._respawn_total.labels().value)

    def segment_names(self) -> List[str]:
        """Every shm segment this pool depends on (weights + ring)."""
        names = [entry["segment"]
                 for entry in self.manifest["models"].values()]
        names.append(self._ring.name)
        return names
