"""Shared-memory process-pool serving: correctness, faults, and lifecycle.

The battery proves the three claims :mod:`repro.core.procpool` makes:

* **byte identity** — for every model in the golden zoo, a forward served
  through the proc pool is bit-equal to the in-process forward on the same
  input, and still matches the checked-in golden digests
  (``tests/golden/model_outputs.json``), so process hand-off adds exactly
  zero numeric drift;
* **isolation + recovery** — weights map read-only in workers (numpy
  ``ValueError`` on write, enforced by the MMU), a worker killed mid-batch
  is reaped and its in-flight slot requeued with nothing lost, and
  worker-side injected faults surface in the parent as the same typed
  exceptions the threaded executor raises;
* **lifecycle hygiene** — segments are unlinked exactly once by their
  creator, double-close is a no-op everywhere, and repeated pool
  start/stop cycles leave ``/dev/shm`` exactly as they found it.

The longer mixed-load run lives in ``tests/test_soak.py``
(``@pytest.mark.slow``); the ``worker_kill`` chaos scenario rides the
catalog parametrization in ``tests/test_chaos.py``.
"""

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BatchPolicy,
    DjinnClient,
    DjinnServer,
    ModelRegistry,
    PoolLease,
    ProcPoolError,
    ProcPoolExecutor,
    parse_workers,
)
from repro.core import shm as shmseg
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


def _golden_input(net):
    rng = np.random.default_rng(INPUT_SEED)
    return rng.normal(size=(1,) + net.input_shape).astype(np.float32)


@pytest.fixture(scope="module")
def zoo_registry():
    """Every model the golden digests pin, weight seed 0 (the digest seed)."""
    registry = ModelRegistry()
    for app in sorted(GOLDEN):
        registry.register_spec(app, build_spec(app), seed=SEED)
    yield registry
    registry.close_shm()


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
        with pool.submit_parts("pos", parts) as lease:
            expected = net.forward(np.concatenate(parts, axis=0))
            assert lease.outputs.tobytes() == expected.tobytes()

    def test_lease_views_are_read_only_and_expire(self, zoo_registry, pool):
        net = zoo_registry.get("pos")
        x = np.full((1,) + net.input_shape, 0.5, np.float32)
        lease = pool.submit_lease("pos", x)
        assert isinstance(lease, PoolLease)
        out = lease.outputs
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[...] = 0.0
        lease.release()
        lease.release()  # idempotent
        with pytest.raises(RuntimeError, match="released"):
            _ = lease.outputs


# ----------------------------------------------------- read-only weights
def _attempt_weight_write(manifest, q):
    """Forked child: attach the shared weights and try to scribble on one."""
    registry = ModelRegistry.attach_shm(manifest)
    blob = shmseg.net_blobs(registry.get("pos"))[0]
    try:
        blob.data[...] = 0.0
        q.put("wrote")
    except ValueError:
        q.put("ValueError")


class TestReadOnlyWeights:
    def test_worker_process_cannot_write_weights(self, zoo_registry, pool):
        """A real forked attacher gets ValueError from numpy — the worker
        half of the paper's load-once / share-read-only contract."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        if ctx.get_start_method() != "fork":  # pragma: no cover
            pytest.skip("manifest hand-off in this test relies on fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_attempt_weight_write,
                           args=(pool.manifest, q))
        proc.start()
        verdict = q.get(timeout=30)
        proc.join(timeout=30)
        assert verdict == "ValueError"

    def test_parent_blobs_rebind_read_only_after_export(self, zoo_registry,
                                                        pool):
        """export_shm points the parent at the same read-only views, so no
        process — parent included — holds a writable copy."""
        for app in zoo_registry.names():
            for blob in shmseg.net_blobs(zoo_registry.get(app)):
                assert not blob.require_data().flags.writeable

    def test_weight_digest_stable_across_export(self):
        registry = ModelRegistry()
        net = registry.register_spec("pos", build_spec("pos"), seed=SEED)
        before = shmseg.weight_digest(net)
        registry.export_shm()
        try:
            assert shmseg.weight_digest(net) == before
        finally:
            registry.close_shm()


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
            pool.close()
            registry.close_shm()
        assert _shm_names() == before

    def test_pool_close_is_idempotent(self):
        registry = ModelRegistry()
        registry.register_spec("pos", build_spec("pos"), seed=SEED)
        pool = ProcPoolExecutor(registry, workers=1, max_batch=2)
        pool.close()
        pool.close()  # second close must be a no-op, not a crash
        registry.close_shm()
        registry.close_shm()

    def test_submit_after_close_is_typed(self):
        registry = ModelRegistry()
        registry.register_spec("pos", build_spec("pos"), seed=SEED)
        pool = ProcPoolExecutor(registry, workers=1, max_batch=2)
        pool.close()
        try:
            with pytest.raises(ProcPoolError, match="closed"):
                pool.submit("pos", np.zeros((1,) + registry.get("pos").input_shape,
                                            np.float32))
        finally:
            registry.close_shm()

    def test_export_is_idempotent_one_copy_per_host(self, zoo_registry, pool):
        """A second export (e.g. a second pool over the same registry) must
        reuse the existing segments — never a second weight copy."""
        first = zoo_registry.shm_manifest()
        second = zoo_registry.export_shm()
        assert first == second
        segments = [entry["segment"] for entry in second["models"].values()]
        assert len(segments) == len(set(segments)) == len(GOLDEN)

    def test_double_close_and_double_unlink_tolerated(self):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=64)
        attached = shmseg.attach_segment(segment.name)
        shmseg.close_segment(attached)
        shmseg.close_segment(attached)          # double close: no-op
        shmseg.unlink_segment(segment)
        shmseg.unlink_segment(segment)          # double unlink: no-op

    def test_segment_names_cover_weights_and_ring(self, zoo_registry, pool):
        names = pool.segment_names()
        assert len(names) == len(GOLDEN) + 1     # one per model + the ring
        live = _shm_names()
        for name in names:
            assert name.lstrip("/") in live

    def test_shm_bytes_accounts_every_parameter(self, zoo_registry, pool):
        """The resident shm footprint is the parameter bytes plus only
        per-blob alignment slack — weights live in shm exactly once."""
        param_bytes = zoo_registry.total_param_bytes()
        blob_count = sum(len(shmseg.net_blobs(zoo_registry.get(app)))
                         for app in zoo_registry.names())
        shm_bytes = zoo_registry.shm_bytes()
        assert param_bytes <= shm_bytes <= param_bytes + 64 * blob_count


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
                rows = server.DEFAULT_POOL_BATCH + 3
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

    def test_metrics_endpoint_includes_worker_counters(self, zoo_registry):
        """METRICS over TCP returns the parent dump merged with every
        worker's seqlock'd dump — per-process serving counters included."""
        with DjinnServer(zoo_registry, workers="proc:2") as server:
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
