"""Unit tests for the model registry, service stats, and batching executor."""

import os
import threading

import numpy as np
import pytest

from repro.core import BatchingExecutor, BatchPolicy, ModelRegistry, RequestLedger
from repro.core.stats import summarize
from repro.obs import DEFAULT_LATENCY_BUCKETS_S, MetricsRegistry
from repro.models import lenet5, senna
from repro.nn import Net


@pytest.fixture
def registry():
    reg = ModelRegistry()
    reg.register_spec("pos", senna("pos"), seed=1)
    return reg


class TestRegistry:
    def test_register_and_get(self, registry):
        assert registry.get("pos").name == "senna_pos"
        assert "pos" in registry
        assert registry.names() == ["pos"]

    def test_rejects_unmaterialized(self):
        reg = ModelRegistry()
        with pytest.raises(ValueError, match="materialized"):
            reg.register("dig", Net(lenet5()))

    def test_rejects_duplicates(self, registry):
        with pytest.raises(ValueError, match="already"):
            registry.register_spec("pos", senna("pos"))

    def test_unknown_model_lists_available(self, registry):
        with pytest.raises(KeyError, match="available.*pos"):
            registry.get("face")

    def test_total_param_bytes(self, registry):
        assert registry.total_param_bytes() == registry.get("pos").param_bytes()

    def test_concurrent_reads_share_one_model(self, registry):
        """Many workers, one in-memory model (paper §3.1)."""
        nets = []

        def worker():
            nets.append(registry.get("pos"))

        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(n is nets[0] for n in nets)


class TestServiceStats:
    def test_snapshot_summary(self):
        metrics = MetricsRegistry()
        ledger = RequestLedger(metrics)
        for latency in (0.010, 0.020, 0.030):
            ledger.record("pos", latency, inputs=28)
        snap = summarize(metrics.dump())["pos"]
        assert snap["requests"] == 3
        assert snap["inputs"] == 84
        assert snap["mean_ms"] == pytest.approx(20.0)
        assert snap["p99_ms"] <= 30.0 + 1e-6

    def test_window_bounds_memory(self):
        """The ledger keeps bucket counts, not samples: its memory is
        fixed however many requests it records."""
        metrics = MetricsRegistry()
        ledger = RequestLedger(metrics)
        for i in range(100):
            ledger.record("x", 0.001 * i)
        assert ledger.requests["x"].value == 100
        assert (len(ledger.latency["x"].counts())
                == len(DEFAULT_LATENCY_BUCKETS_S) + 1)


class TestBatchingExecutor:
    def test_results_match_direct_forward(self, registry, rng):
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=8, timeout_ms=1.0))
        x = rng.normal(size=(3, 300)).astype(np.float32)
        try:
            out = executor.submit("pos", x)
            np.testing.assert_allclose(out, registry.get("pos").forward(x), rtol=1e-5)
        finally:
            executor.close()

    def test_concurrent_requests_coalesce(self, registry, rng):
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=64, timeout_ms=50.0))
        # force the queue path: this test pins coalescing, which the
        # batch-1 fast path legitimately skips on an idle model
        executor._fast_off.add("pos")
        results = {}
        barrier = threading.Barrier(8)

        def client(i):
            x = np.full((2, 300), float(i), dtype=np.float32)
            barrier.wait()
            results[i] = executor.submit("pos", x)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # each client got exactly its own 2 rows back
            for i in range(8):
                expected = registry.get("pos").forward(np.full((2, 300), float(i), np.float32))
                np.testing.assert_allclose(results[i], expected, rtol=1e-5)
            batches = executor.executed_batches["pos"]
            assert max(batches) > 2  # real coalescing happened
            assert sum(batches) == 16
        finally:
            executor.close()

    def test_unknown_model_fails_fast(self, registry):
        executor = BatchingExecutor(registry)
        try:
            with pytest.raises(KeyError):
                executor.submit("nope", np.zeros((1, 4), np.float32))
        finally:
            executor.close()

    def test_error_delivered_to_all_waiters(self, registry):
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=4, timeout_ms=20.0))
        errors = []
        barrier = threading.Barrier(2)

        def client():
            barrier.wait()
            try:
                executor.submit("pos", np.zeros((1, 7), np.float32))  # wrong width
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(errors) == 2
        finally:
            executor.close()

    def test_submit_after_close_raises(self, registry):
        executor = BatchingExecutor(registry)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit("pos", np.zeros((1, 300), np.float32))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(timeout_ms=-1.0)


class TestPlanLanes:
    """Up to ``registry.lanes`` plans per (model, bucket): the batch-1 fast
    path takes a free lane, so concurrent submitters on an idle model run
    in parallel instead of declining into the model's one queue."""

    @staticmethod
    def _executor(registry):
        return BatchingExecutor(registry, BatchPolicy(max_batch=4, timeout_ms=0.0),
                                metrics=MetricsRegistry())

    @staticmethod
    def _submit_with_lane_zero_held(registry, executor, x):
        lane0 = registry.plan("pos", 1)
        held, release = threading.Event(), threading.Event()

        def hold():
            with lane0.lock:  # an RLock: contend from another thread
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(5.0)
            return executor.submit("pos", x)
        finally:
            release.set()
            holder.join()

    def test_second_lane_serves_inline_while_first_is_held(self, registry, rng):
        registry.lanes = 2
        executor = self._executor(registry)
        x = rng.normal(size=(1, 300)).astype(np.float32)
        try:
            out = self._submit_with_lane_zero_held(registry, executor, x)
            assert executor._fast_hits["pos"].value == 1
            assert "pos" not in executor._queues  # the worker never started
        finally:
            executor.close()
        assert out.tobytes() == registry.get("pos").forward(x).tobytes()
        assert len(registry._plans["pos", 1]) == 2

    def test_single_lane_declines_while_held(self, registry, rng):
        registry.lanes = 1
        executor = self._executor(registry)
        x = rng.normal(size=(1, 300)).astype(np.float32)
        try:
            out = self._submit_with_lane_zero_held(registry, executor, x)
            assert executor._fast_hits["pos"].value == 0
            assert list(executor.executed_batches["pos"]) == [1]
        finally:
            executor.close()
        assert out.tobytes() == registry.get("pos").forward(x).tobytes()
        assert len(registry._plans["pos", 1]) == 1

    def test_coalescing_window_declines_while_lane_zero_is_held(self, registry,
                                                               rng):
        """A batched policy keeps one lane: the second concurrent request
        queues and coalesces instead of compiling another arena."""
        registry.lanes = 2
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                          timeout_ms=1.0),
                                    metrics=MetricsRegistry())
        x = rng.normal(size=(1, 300)).astype(np.float32)
        try:
            out = self._submit_with_lane_zero_held(registry, executor, x)
            assert executor._fast_hits["pos"].value == 0
            assert list(executor.executed_batches["pos"]) == [1]
        finally:
            executor.close()
        assert out.tobytes() == registry.get("pos").forward(x).tobytes()
        assert len(registry._plans["pos", 1]) == 1

    def test_lane_compiles_outside_the_registry_lock(self, registry,
                                                     monkeypatch):
        """A new lane is reserved under the registry lock and compiled
        outside it: other lookups never wait on the arena, and the
        reservation counts toward the lane limit."""
        from repro.core import registry as registry_mod

        registry.lanes = 2
        lane0 = registry.plan("pos", 1)
        compiling, finish = threading.Event(), threading.Event()
        real = registry_mod.ExecutionPlan

        def slow_compile(net, bucket):
            compiling.set()
            finish.wait(10.0)
            return real(net, bucket)

        monkeypatch.setattr(registry_mod, "ExecutionPlan", slow_compile)
        held, got = threading.Event(), []

        def hold():
            with lane0.lock:  # an RLock: contend from other threads
                held.set()
                finish.wait(10.0)

        def grow():
            got.append(registry.acquire("pos", 1))
            got[0].lock.release()

        threads = [threading.Thread(target=hold), threading.Thread(target=grow)]
        threads[0].start()
        try:
            assert held.wait(5.0)
            threads[1].start()
            assert compiling.wait(5.0)
            assert registry.plan("pos", 1) is lane0  # not blocked
            assert registry.acquire("pos", 1) is None  # lane 1 is reserved
        finally:
            finish.set()
            for thread in threads:
                thread.join(10.0)
        assert got[0] is not lane0
        assert registry._plans["pos", 1] == (lane0, got[0])

    def test_lane_count_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        assert ModelRegistry().lanes == (os.cpu_count() or 1)

    def test_acquire_never_compiles_past_the_lane_count(self, registry):
        registry.lanes = 2
        held = []
        arrived, release = threading.Barrier(4), threading.Event()

        def hold():
            plan = registry.acquire("pos", 1)
            held.append(plan)
            arrived.wait()
            release.wait(5.0)
            if plan is not None:
                plan.lock.release()

        holders = [threading.Thread(target=hold) for _ in range(3)]
        for holder in holders:
            holder.start()
        try:
            arrived.wait(5.0)
        finally:
            release.set()
            for holder in holders:
                holder.join()
        lanes = [plan for plan in held if plan is not None]
        assert len(lanes) == 2 and lanes[0] is not lanes[1]
        assert registry.plan("pos", 1) is registry._plans["pos", 1][0]

    def test_concurrent_submitters_stay_within_the_lane_count(self, registry):
        registry.lanes = 2
        executor = self._executor(registry)
        net = registry.get("pos")
        barrier = threading.Barrier(6)
        mismatches = []

        def client(i):
            x = np.full((1, 300), 0.01 * i, np.float32)
            want = net.forward(x).tobytes()
            barrier.wait()
            for _ in range(20):
                if executor.submit("pos", x).tobytes() != want:
                    mismatches.append(i)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            executor.close()
        assert not mismatches
        assert 1 <= len(registry._plans["pos", 1]) <= 2

    def test_one_sequential_client_compiles_one_lane(self, registry, rng):
        registry.lanes = 4
        executor = self._executor(registry)
        try:
            for _ in range(20):
                executor.submit("pos", rng.normal(size=(1, 300)).astype(np.float32))
            assert executor._fast_hits["pos"].value == 20
        finally:
            executor.close()
        assert len(registry._plans["pos", 1]) == 1
