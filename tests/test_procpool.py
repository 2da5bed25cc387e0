"""Process-pool serving: correctness, faults, and lifecycle.

The battery proves the three claims :mod:`repro.core.procpool` makes:

* **byte identity** — for every model in the golden zoo, a forward served
  through the proc pool is bit-equal to the in-process forward on the same
  input, and still matches the checked-in golden digests
  (``tests/golden/model_outputs.json``), so process hand-off adds exactly
  zero numeric drift;
* **one copy, isolation + recovery** — workers serve the weight pages they
  inherit, shared with the parent rather than copied; a write through a
  weight array raises numpy's ``ValueError`` in parent and workers alike;
  a worker killed mid-batch is reaped and its in-flight slot requeued
  with nothing lost; worker-side injected faults surface in the parent as
  the same typed exceptions the threaded executor raises;
* **lifecycle hygiene** — close is idempotent, a pool never creates a
  ``/dev/shm`` entry, and workers exit when their parent is SIGKILLed.

The longer mixed-load run lives in ``tests/test_soak.py``
(``@pytest.mark.slow``); the ``worker_kill`` chaos scenario rides the
catalog parametrization in ``tests/test_chaos.py``.
"""

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from _procfs import shared_bytes, smaps_over

from repro.core import (
    BatchPolicy,
    DjinnClient,
    DjinnServer,
    ModelRegistry,
    ProcPoolError,
    ProcPoolExecutor,
    parse_workers,
)
from repro.core.procpool import KILL_EXIT_CODE, _derive_worker_plan
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.models import build_spec
from repro.obs import merge_dumps

GOLDEN_PATH = Path(__file__).parent / "golden" / "model_outputs.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: same seeds the golden digests were generated from
SEED = 0
INPUT_SEED = 0xD1A77


def _shm_names():
    """Segment files currently present in /dev/shm (POSIX shm backing)."""
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-POSIX-shm platform
        return set()
    return {p.name for p in root.iterdir() if p.name.startswith("psm_")}


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _golden_input(net):
    rng = np.random.default_rng(INPUT_SEED)
    return rng.normal(size=(1,) + net.input_shape).astype(np.float32)


@pytest.fixture(scope="module")
def zoo_registry():
    """Every model the golden digests pin, weight seed 0 (the digest seed)."""
    registry = ModelRegistry()
    for app in sorted(GOLDEN):
        registry.register_spec(app, build_spec(app), seed=SEED)
    return registry


@pytest.fixture(scope="module")
def pool(zoo_registry):
    executor = ProcPoolExecutor(zoo_registry, workers=2, max_batch=4)
    yield executor
    executor.close()


# ------------------------------------------------------------ parse_workers
class TestParseWorkers:
    def test_absent_means_disabled(self):
        assert parse_workers(None) == 0
        assert parse_workers("") == 0
        assert parse_workers(0) == 0

    def test_proc_prefix_and_bare_int(self):
        assert parse_workers("proc:4") == 4
        assert parse_workers("3") == 3
        assert parse_workers(2) == 2

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="workers spec"):
            parse_workers("proc:lots")
        with pytest.raises(ValueError, match=">= 0"):
            parse_workers(-1)

    def test_pool_rejects_bad_construction(self, zoo_registry):
        with pytest.raises(ValueError, match="workers"):
            ProcPoolExecutor(zoo_registry, workers=0)
        with pytest.raises(ValueError, match="empty registry"):
            ProcPoolExecutor(ModelRegistry(), workers=1)


# ------------------------------------------------------------ byte identity
@pytest.mark.parametrize("app", sorted(GOLDEN))
class TestByteIdentity:
    """Cross-executor equivalence over the whole zoo: the pool's output is
    bit-equal to the in-process forward, not merely close."""

    def test_pool_matches_in_process_bitwise(self, app, zoo_registry, pool):
        net = zoo_registry.get(app)
        x = _golden_input(net)
        expected = net.forward(x)
        out = pool.submit(app, x)
        assert out.dtype == expected.dtype
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_pool_matches_golden_digest(self, app, zoo_registry, pool):
        """The checked-in digests pin the threaded path; the pool must land
        on the same numbers, so the digests now pin both executors."""
        golden = GOLDEN[app]
        net = zoo_registry.get(app)
        out = pool.submit(app, _golden_input(net))
        flat = out.reshape(-1)
        assert list(out.shape) == golden["output_shape"]
        assert int(flat.argmax()) == golden["argmax"]
        assert float(flat.sum()) == pytest.approx(golden["sum"], rel=1e-4)
        np.testing.assert_allclose(flat[: len(golden["sample"])],
                                   golden["sample"], rtol=1e-4, atol=1e-6)

    def test_multirow_batch_bitwise(self, app, zoo_registry, pool):
        net = zoo_registry.get(app)
        rng = np.random.default_rng(INPUT_SEED + 1)
        x = rng.normal(size=(3,) + net.input_shape).astype(np.float32)
        assert pool.submit(app, x).tobytes() == net.forward(x).tobytes()


class TestSubmitSurface:
    def test_unknown_model_is_keyerror(self, pool):
        with pytest.raises(KeyError, match="not in pool"):
            pool.submit("nope", np.zeros((1, 4), np.float32))

    def test_wrong_sample_shape_rejected(self, pool):
        with pytest.raises(ValueError, match="sample shape"):
            pool.submit("pos", np.zeros((1, 7), np.float32))

    def test_over_envelope_rejected(self, zoo_registry, pool):
        net = zoo_registry.get("pos")
        x = np.zeros((pool.max_batch + 1,) + net.input_shape, np.float32)
        with pytest.raises(ValueError, match="envelope"):
            pool.submit("pos", x)

    def test_parts_gather_into_one_slot(self, zoo_registry, pool):
        """submit_parts serves a batching front-end: several payloads, one
        dispatch, outputs in part order."""
        net = zoo_registry.get("pos")
        rng = np.random.default_rng(INPUT_SEED + 2)
        parts = [rng.normal(size=(n,) + net.input_shape).astype(np.float32)
                 for n in (1, 2, 1)]
        out = pool.submit_parts("pos", parts)
        expected = net.forward(np.concatenate(parts, axis=0))
        assert out.tobytes() == expected.tobytes()

    def test_results_are_read_only_and_free_their_slot(self, zoo_registry,
                                                       pool):
        net = zoo_registry.get("pos")
        x = np.full((1,) + net.input_shape, 0.5, np.float32)
        out = pool.submit("pos", x)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[...] = 0.0
        np.testing.assert_array_equal(out, net.forward(x))
        # the result is owned: the slot went back before submit returned
        assert pool._free.qsize() == pool._layout["slots"]


# ----------------------------------------------------- read-only weights
def _attempt_weight_write(net, q):
    """Forked child: try to scribble on a weight it inherited."""
    blob = net.params()[0]
    try:
        blob.data[...] = 0.0
        q.put("wrote")
    except ValueError:
        q.put("ValueError")


class TestReadOnlyWeights:
    def test_worker_process_cannot_write_weights(self, zoo_registry, pool):
        """A process forked after the pool exists — as every worker and
        respawn is — gets ValueError from numpy on a weight write: the
        worker half of the paper's load-once / share-read-only contract."""
        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_attempt_weight_write,
                           args=(zoo_registry.get("pos"), q))
        proc.start()
        verdict = q.get(timeout=30)
        proc.join(timeout=30)
        assert verdict == "ValueError"

    def test_parent_blobs_rebind_read_only_after_export(self, zoo_registry,
                                                        pool):
        """Once a pool exists every registry blob is read-only in the
        parent too, so no process holds a writable weight and parent- and
        worker-served answers cannot drift apart."""
        for app in zoo_registry.names():
            for blob in zoo_registry.get(app).params():
                assert not blob.require_data().flags.writeable

    def test_worker_shares_weight_pages_with_parent(self, zoo_registry):
        """One physical copy of the weights: after a worker serves imc, the
        pages behind fc6 are shared with the parent, not private to the
        worker.  fc6 (151 MB) is mapped on its own, and fork keeps
        addresses, so the worker's smaps entries over fc6's data are the
        inherited ones."""
        net = zoo_registry.get("imc")
        fc6 = next(blob for blob in net.params() if blob.name == "fc6.weight")
        # only the address: a reference to the array itself, inherited by
        # the worker, would keep these pages mapped there whatever it serves
        addr, nbytes = fc6.require_data().ctypes.data, fc6.nbytes
        pool = ProcPoolExecutor(zoo_registry, workers=1, max_batch=1)
        try:
            x = _golden_input(net)
            assert pool.submit("imc", x).tobytes() == net.forward(x).tobytes()
            entry = smaps_over(pool._procs[0].pid, addr, nbytes)
        finally:
            pool.close()
        assert entry is not None, "fc6's address is unmapped in the worker"
        assert shared_bytes(entry) >= nbytes
        assert entry["Private_Dirty"] * 1024 < nbytes // 2


# -------------------------------------------------------- crash recovery
class TestCrashRecovery:
    def test_killed_worker_is_reaped_and_request_survives(self, zoo_registry):
        """proc.dispatch:kill murders the worker that picks up request 1;
        the supervisor requeues the slot and a respawn serves it — the
        caller never notices."""
        plan = FaultPlan(rules=(FaultRule("proc.dispatch", "kill", nth=(1,)),),
                         seed=0, name="kill-one")
        pool = ProcPoolExecutor(zoo_registry, workers=1, max_batch=4)
        try:
            net = zoo_registry.get("pos")
            x = np.full((1,) + net.input_shape, 0.25, np.float32)
            # the dispatch site lives in the parent: arm the plan here
            with plan.armed() as injector:
                out = pool.submit("pos", x)
                assert injector.fires() == {"proc.dispatch:kill:*": 1}
            assert out.tobytes() == net.forward(x).tobytes()
            assert pool.respawn_count() == 1
        finally:
            pool.close()

    def test_queued_requests_survive_a_mid_batch_death(self, zoo_registry):
        """Several requests in flight when the (only) worker dies: the
        killed slot is requeued, the queue drains on the respawn, and every
        response carries the right payload."""
        import threading

        plan = FaultPlan(rules=(FaultRule("proc.dispatch", "kill", nth=(1,)),),
                         seed=0, name="kill-under-load")
        pool = ProcPoolExecutor(zoo_registry, workers=1, max_batch=4, slots=8)
        try:
            net = zoo_registry.get("pos")
            results: dict = {}

            def one(i):
                x = np.full((1,) + net.input_shape, 0.1, np.float32)
                x.reshape(-1)[0] = float(i + 1)
                results[i] = (pool.submit("pos", x), net.forward(x))

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(5)]
            with plan.armed():
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=90)
            assert len(results) == 5
            for out, expected in results.values():
                assert out.tobytes() == expected.tobytes()
            assert pool.respawn_count() == 1
        finally:
            pool.close()

    def test_worker_side_fault_surfaces_typed(self, zoo_registry):
        """batch.execute crash inside the worker comes back as
        InjectedFault (a ConnectionError) — the same contract the threaded
        executor honours — and the worker survives to serve the retry."""
        plan = FaultPlan(rules=(FaultRule("batch.execute", "crash", nth=(1,)),),
                         seed=0, name="worker-crash")
        pool = ProcPoolExecutor(zoo_registry, workers=1, max_batch=4,
                                fault_plan=plan)
        try:
            net = zoo_registry.get("pos")
            x = np.full((1,) + net.input_shape, 0.25, np.float32)
            with pytest.raises(InjectedFault):
                pool.submit("pos", x)
            assert pool.respawn_count() == 0  # an exception, not a death
            out = pool.submit("pos", x)
            assert out.tobytes() == net.forward(x).tobytes()
        finally:
            pool.close()

    def test_derived_worker_plans_differ_per_worker(self):
        base = FaultPlan(rules=(FaultRule("batch.execute", "crash",
                                          probability=0.5),),
                         seed=7, name="base")
        w0 = _derive_worker_plan(base.to_dict(), 0)
        w1 = _derive_worker_plan(base.to_dict(), 1)
        assert w0.rules == base.rules == w1.rules
        assert w0.seed != w1.seed != base.seed
        assert w0.name == "base/worker0" and w1.name == "base/worker1"

    def test_kill_exit_code_is_distinctive(self):
        """The chaos kill must be tellable apart from a real crash (1) and
        a clean exit (0) in worker post-mortems."""
        assert KILL_EXIT_CODE not in (0, 1)


# ----------------------------------------------------------- shm lifecycle
#: a proc:2 server that serves one request, prints its worker pids and
#: then blocks until it is killed
_SIGKILLED_PARENT = textwrap.dedent("""
    import sys

    import numpy as np

    from repro.core import DjinnClient, DjinnServer, ModelRegistry
    from repro.models import build_spec

    registry = ModelRegistry()
    net = registry.register_spec("pos", build_spec("pos"), seed=0)
    server = DjinnServer(registry, workers="proc:2")
    server.start()
    with DjinnClient(*server.address) as client:
        client.infer("pos", np.zeros((1,) + net.input_shape, np.float32))
    print(*(proc.pid for proc in server._pool._procs), flush=True)
    sys.stdin.read()
""")


class TestShmLifecycle:
    def test_repeated_start_stop_leaves_dev_shm_clean(self):
        before = _shm_names()
        for _ in range(3):
            registry = ModelRegistry()
            registry.register_spec("pos", build_spec("pos"), seed=SEED)
            pool = ProcPoolExecutor(registry, workers=1, max_batch=2)
            net = registry.get("pos")
            x = np.zeros((1,) + net.input_shape, np.float32)
            assert pool.submit("pos", x).shape == (1,) + net.output_shape
            assert _shm_names() == before  # nothing named, even while up
            pool.close()
        assert _shm_names() == before

    def test_pool_close_is_idempotent(self):
        registry = ModelRegistry()
        registry.register_spec("pos", build_spec("pos"), seed=SEED)
        pool = ProcPoolExecutor(registry, workers=1, max_batch=2)
        pool.close()
        pool.close()  # second close must be a no-op, not a crash

    def test_close_returns_while_the_reply_lock_is_held(self):
        """A worker killed inside its reply write leaves the reply pipe's
        shared write lock held for good; close must still return."""
        registry = ModelRegistry()
        registry.register_spec("pos", build_spec("pos"), seed=SEED)
        pool = ProcPoolExecutor(registry, workers=1, max_batch=2)
        # a process that takes the lock and exits without releasing it
        holder = multiprocessing.get_context("fork").Process(
            target=pool._resp_q._wlock.acquire)
        holder.start()
        holder.join()
        assert not pool._resp_q._wlock.acquire(block=False)
        closer = threading.Thread(target=pool.close, daemon=True)
        closer.start()
        closer.join(timeout=15.0)
        assert not closer.is_alive(), "close() hung on the reply lock"

    def test_submit_after_close_is_typed(self):
        registry = ModelRegistry()
        registry.register_spec("pos", build_spec("pos"), seed=SEED)
        pool = ProcPoolExecutor(registry, workers=1, max_batch=2)
        pool.close()
        with pytest.raises(ProcPoolError, match="closed"):
            pool.submit("pos", np.zeros((1,) + registry.get("pos").input_shape,
                                        np.float32))

    def test_sigkilled_parent_takes_its_workers_down(self):
        """A SIGKILLed server never sends the stop sentinel: its workers
        must notice the parent's death and exit within 5 s, leaving
        nothing behind in ``/dev/shm``."""
        before = _shm_names()
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
        parent = subprocess.Popen([sys.executable, "-c", _SIGKILLED_PARENT],
                                  env=env, text=True, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 120)
            assert ready, "server child printed no worker pids in 120 s"
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
            parent.stdout.close()
            parent.stdin.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
        for pid in survivors:  # do not leak them into the rest of the run
            os.kill(pid, signal.SIGKILL)
        assert survivors == []
        assert _shm_names() <= before


# ---------------------------------------------------------------- metrics
class TestWorkerMetrics:
    def test_worker_dumps_merge_into_fleet_view(self, zoo_registry, pool):
        net = zoo_registry.get("pos")
        x = np.zeros((1,) + net.input_shape, np.float32)
        for _ in range(3):
            pool.submit("pos", x)
        dumps = pool.worker_metric_dumps()
        assert dumps, "no worker published a metrics dump"
        merged = merge_dumps([pool.metrics.dump()] + dumps)
        names = set(merged["metrics"])
        assert {"djinn_proc_dispatch_total", "djinn_proc_requests_total",
                "djinn_proc_forward_seconds", "djinn_proc_workers"} <= names
        served = sum(s["value"]
                     for s in merged["metrics"]["djinn_proc_requests_total"]["samples"])
        dispatched = sum(s["value"]
                         for s in merged["metrics"]["djinn_proc_dispatch_total"]["samples"])
        assert served >= 3
        # every dispatch that did not die mid-flight was served in a worker
        assert served <= dispatched
        workers_seen = {s["labels"]["worker"]
                        for s in merged["metrics"]["djinn_proc_requests_total"]["samples"]}
        assert workers_seen <= {"0", "1"}


# ------------------------------------------------------- server integration
class TestServerIntegration:
    def test_server_pool_serves_bit_equal(self, zoo_registry):
        with DjinnServer(zoo_registry, workers="proc:2") as server:
            host, port = server.address
            with DjinnClient(host, port) as client:
                net = zoo_registry.get("dig")
                x = _golden_input(net)
                out = client.infer("dig", x)
                assert out.tobytes() == net.forward(x).tobytes()

    def test_oversize_request_falls_back_in_parent(self, zoo_registry):
        """A request wider than the pool envelope is served in-parent
        rather than rejected — the pool is an accelerator, not a cap."""
        with DjinnServer(zoo_registry, workers="proc:2") as server:
            host, port = server.address
            with DjinnClient(host, port) as client:
                net = zoo_registry.get("pos")
                rows = server.UNBATCHED.max_batch + 3
                x = np.full((rows,) + net.input_shape, 0.1, np.float32)
                out = client.infer("pos", x)
                assert out.tobytes() == net.forward(x).tobytes()

    def test_oversize_batch_behind_batching_runs_on_throwaway_plan(
            self, zoo_registry):
        """Twin of the threaded oversize test: with a batching front end a
        request wider than the pool slot goes through the executor's one
        serve routine on a parent-side plan compiled for its row count —
        byte-identical to ``net.forward`` — and the registry is left with
        no plan above the envelope bucket."""
        plans_before = set(zoo_registry._plans)
        with DjinnServer(zoo_registry, workers="proc:2",
                         batching=BatchPolicy(max_batch=4,
                                              timeout_ms=1.0)) as server:
            host, port = server.address
            with DjinnClient(host, port) as client:
                net = zoo_registry.get("pos")
                x = np.full((7,) + net.input_shape, 0.1, np.float32)
                out = client.infer("pos", x)
                assert out.tobytes() == net.forward(x).tobytes()
            assert list(server._executor.executed_batches["pos"]) == [7]
        grown = set(zoo_registry._plans) - plans_before
        assert all(bucket <= 4 for _, bucket in grown), grown

    def test_batching_front_end_rides_the_pool(self, zoo_registry):
        with DjinnServer(zoo_registry, workers="proc:2",
                         batching=BatchPolicy(max_batch=4,
                                              timeout_ms=1.0)) as server:
            host, port = server.address
            with DjinnClient(host, port) as client:
                net = zoo_registry.get("pos")
                for i in range(5):
                    x = np.full((1,) + net.input_shape, 0.1 * (i + 1),
                                np.float32)
                    out = client.infer("pos", x)
                    assert out.tobytes() == net.forward(x).tobytes()

    def test_busy_lanes_send_requests_to_slots_from_their_threads(
            self, zoo_registry, monkeypatch):
        """Without batching, requests that find every parent-side lane busy
        take pool slots from their own threads — no queue hand-off — so one
        model keeps every worker process busy at once."""
        monkeypatch.setattr(zoo_registry, "lanes", 1)
        lane0 = zoo_registry.plan("pos", 1)
        held, release = threading.Event(), threading.Event()

        def hold():
            with lane0.lock:
                held.set()
                release.wait(30.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(5.0)
            with DjinnServer(zoo_registry, workers="proc:2") as server:
                executor = server._executor
                both = threading.Barrier(2, timeout=10.0)
                real = executor.pool.submit_parts

                def submit_parts(*args, **kwargs):
                    both.wait()  # releases only with two slots in flight
                    return real(*args, **kwargs)

                executor.pool.submit_parts = submit_parts
                net = zoo_registry.get("pos")
                outs = {}

                def client(i):
                    x = np.full((1,) + net.input_shape, 0.1 * (i + 1),
                                np.float32)
                    outs[i] = (executor.submit("pos", x).tobytes(),
                               net.forward(x).tobytes())

                clients = [threading.Thread(target=client, args=(i,))
                           for i in range(2)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(30.0)
                assert len(outs) == 2
                assert all(got == want for got, want in outs.values())
                assert executor._fast_hits["pos"].value == 2
                assert "pos" not in executor._queues
        finally:
            release.set()
            holder.join()

    def test_metrics_endpoint_includes_worker_counters(self, zoo_registry):
        """METRICS over TCP returns the parent dump merged with every
        worker's seqlock'd dump — per-process serving counters included."""
        with DjinnServer(zoo_registry, workers="proc:2") as server:
            # a lone request on an idle model is served in the parent; turn
            # that off so this one reaches a worker process
            server._executor._fast_off.add("pos")
            host, port = server.address
            with DjinnClient(host, port) as client:
                net = zoo_registry.get("pos")
                client.infer("pos", np.zeros((1,) + net.input_shape,
                                             np.float32))
                dump = client.metrics()
                names = set(dump["metrics"])
                assert "djinn_proc_dispatch_total" in names
                assert "djinn_proc_requests_total" in names
                assert "djinn_proc_workers" in names
