"""Unit tests for the model registry, service stats, and batching executor."""

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
