"""End-to-end tests for server-side app serving (APP frames).

Covers the whole new request path: the server's APP_REQUEST handling
(inline and batched), the executor's ``submit_app`` staged pipeline, the
batch-1 fast path, the proc pool's in-worker raw preprocess (FLAG_RAW),
and the gateway relaying APP frames with its usual machinery.
"""

import json
import threading

import numpy as np
import pytest

from repro.core import (
    BatchPolicy,
    DjinnClient,
    DjinnServer,
    DjinnServiceError,
    ModelRegistry,
    ProcPoolExecutor,
)
from repro.core.batching import BatchingExecutor
from repro.gateway import ClusterLauncher, GatewayServer, RetryPolicy
from repro.models import lenet5, senna
from repro.obs import MetricsRegistry
from repro.tonic import (
    DigApp,
    PosApp,
    Vocabulary,
    WindowFeaturizer,
    digit_dataset,
    generate_corpus,
)


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register_spec("dig", lenet5(), seed=0)
    reg.register_spec("pos", senna("pos"), seed=1)
    return reg


@pytest.fixture(scope="module")
def dig_raw():
    images, _ = digit_dataset(4, seed=11)
    return images  # (4, 1, 28, 28) float32 in [0, 1]


def _local_answer(registry, raw):
    """The reference result: the app's own kernels around a local forward."""
    app = DigApp(backend=None)
    inputs = app.preprocess(raw)
    return app.postprocess(registry.get("dig").forward(inputs), raw)


# ------------------------------------------------------------------- server
class TestServerAppPath:
    @pytest.fixture
    def client(self, registry):
        with DjinnServer(registry) as srv:
            with DjinnClient(*srv.address) as cli:
                yield cli

    def test_float_payload_matches_local_pipeline(self, client, registry,
                                                  dig_raw):
        raw = dig_raw[0]
        assert client.infer_app("dig", raw) == _local_answer(registry, raw)

    def test_u8_payload_decodes_as_pixels(self, client, registry, dig_raw):
        """uint8 pixels on the wire (4x smaller) decode to float/255."""
        raw_u8 = (dig_raw[1] * 255).astype(np.uint8)
        raw = raw_u8.astype(np.float32) / np.float32(255.0)
        assert client.infer_app("dig", raw_u8) == _local_answer(registry, raw)

    def test_multi_image_query(self, client, registry, dig_raw):
        """One APP query carrying several images: one answer per image."""
        result = client.infer_app("dig", dig_raw)
        assert result == _local_answer(registry, dig_raw)
        assert len(result) == len(dig_raw)

    def test_unknown_app_is_typed_error(self, client):
        with pytest.raises(DjinnServiceError, match="no serving app"):
            client.infer_app("nope", np.zeros((1, 28, 28), np.float32))

    def test_nlp_has_no_default_app(self, client):
        """NLP taggers need trained featurizer state, so no default app."""
        with pytest.raises(DjinnServiceError, match="no serving app"):
            client.infer_app("pos", "some words here")

    def test_bad_payload_is_typed_and_connection_survives(self, client,
                                                          registry, dig_raw):
        with pytest.raises(DjinnServiceError, match="28, 28"):
            client.infer_app("dig", np.zeros((1, 30, 30), np.float32))
        raw = dig_raw[2]
        assert client.infer_app("dig", raw) == _local_answer(registry, raw)

    def test_stats_count_app_requests(self, registry, dig_raw):
        with DjinnServer(registry) as srv:
            with DjinnClient(*srv.address) as cli:
                cli.infer_app("dig", dig_raw[0])
                cli.infer_app("dig", dig_raw[1])
                assert cli.stats()["dig"]["requests"] == 2.0

    def test_custom_text_app(self, registry):
        """An explicit ``apps`` entry serves KIND_TEXT token payloads."""
        corpus = generate_corpus(16, seed=3)
        vocab = Vocabulary(w for s in corpus for w in s.words)
        pos = PosApp(None, WindowFeaturizer(vocab))
        words = corpus[0].words
        expected = pos.postprocess(
            registry.get("pos").forward(pos.preprocess(words)), words)
        with DjinnServer(registry, apps={"pos": pos}) as srv:
            with DjinnClient(*srv.address) as cli:
                assert cli.infer_app("pos", " ".join(words)) == expected


class TestBatchedServerAppPath:
    def test_concurrent_app_requests_all_correct(self, registry, dig_raw):
        """Coalesced raw requests each get their own (correct) answer."""
        policy = BatchPolicy(max_batch=8, timeout_ms=5.0)
        results = {}
        with DjinnServer(registry, batching=policy) as srv:
            def worker(idx):
                with DjinnClient(*srv.address) as cli:
                    results[idx] = cli.infer_app("dig", dig_raw[idx])

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(dig_raw))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i in range(len(dig_raw)):
            assert results[i] == _local_answer(registry, dig_raw[i])

    def test_app_and_tensor_traffic_coexist(self, registry, dig_raw, rng):
        policy = BatchPolicy(max_batch=8, timeout_ms=2.0)
        x = rng.normal(size=(2, 1, 32, 32)).astype(np.float32)
        with DjinnServer(registry, batching=policy) as srv:
            with DjinnClient(*srv.address) as cli:
                np.testing.assert_allclose(
                    cli.infer("dig", x), registry.get("dig").forward(x),
                    rtol=1e-5)
                raw = dig_raw[0]
                assert cli.infer_app("dig", raw) == _local_answer(registry,
                                                                  raw)


# ---------------------------------------------------------------- fast path
class TestBatch1FastPath:
    @pytest.fixture
    def executor(self, registry):
        ex = BatchingExecutor(registry, BatchPolicy(max_batch=8,
                                                    timeout_ms=2.0),
                              metrics=MetricsRegistry())
        yield ex
        ex.close()

    def _hits(self, executor, model="dig"):
        return executor._fast_hits[model].value

    def test_idle_submit_takes_fast_path(self, executor, registry, rng):
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        before = self._hits(executor)
        np.testing.assert_allclose(
            executor.submit("dig", x), registry.get("dig").forward(x),
            rtol=1e-5)
        assert self._hits(executor) == before + 1

    def test_app_submit_takes_fast_path(self, executor, registry, dig_raw):
        raw = dig_raw[0]
        before = self._hits(executor)
        result = executor.submit_app("dig", DigApp(backend=None), raw)
        assert result == _local_answer(registry, raw)
        assert self._hits(executor) == before + 1

    def test_kill_switch_forces_queue_path(self, executor, registry, rng):
        executor._fast_off.add("dig")
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        before = self._hits(executor)
        np.testing.assert_allclose(
            executor.submit("dig", x), registry.get("dig").forward(x),
            rtol=1e-5)
        assert self._hits(executor) == before  # no fast hit: slot ring path

    def test_oversize_batch_misses_fast_path(self, executor, registry, rng):
        x = rng.normal(size=(9, 1, 32, 32)).astype(np.float32)  # > max_batch
        before = self._hits(executor)
        np.testing.assert_allclose(
            executor.submit("dig", x), registry.get("dig").forward(x),
            rtol=1e-5)
        assert self._hits(executor) == before

    def test_service_floor_disables_fast_path(self, registry, rng):
        ex = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                    timeout_ms=1.0),
                              service_floor_s=0.001,
                              metrics=MetricsRegistry())
        try:
            x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
            assert ex.submit("dig", x).shape == (1, 10)
            assert ex._fast_hits["dig"].value == 0
        finally:
            ex.close()

    def test_fast_path_result_is_read_only(self, executor, rng):
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        out = executor.submit("dig", x)
        with pytest.raises(ValueError):
            out[0, 0] = 1.0


# ------------------------------------------------------------- proc pool raw
class TestPoolRawDispatch:
    @pytest.fixture(scope="class")
    def pool_registry(self):
        reg = ModelRegistry()
        reg.register_spec("dig", lenet5(), seed=0)
        reg.register_spec("pos", senna("pos"), seed=1)
        return reg

    @pytest.fixture(scope="class")
    def pool(self, pool_registry):
        executor = ProcPoolExecutor(pool_registry, workers=1, max_batch=8)
        yield executor
        executor.close()

    def test_raw_item_shape_exposed(self, pool):
        assert pool.raw_item_shape("dig") == (1, 28, 28)
        assert pool.raw_item_shape("pos") is None

    def test_worker_preprocesses_raw_parts(self, pool, pool_registry,
                                           dig_raw):
        """FLAG_RAW: raw pixels go into the slot; the worker runs the app's
        preprocess there, and the forward matches the in-process pipeline
        exactly."""
        app = DigApp(backend=None)
        expected = pool_registry.get("dig").forward(app.preprocess(dig_raw))
        np.testing.assert_array_equal(
            pool.submit_parts("dig", [dig_raw], raw=True), expected)

    def test_raw_dispatch_needs_raw_shape(self, pool, rng):
        with pytest.raises(ValueError, match="raw"):
            pool.submit_parts("pos", [rng.normal(size=(1, 300))], raw=True)


# ---------------------------------------------------------------- gateway
class TestGatewayAppForwarding:
    @pytest.fixture(scope="class")
    def fleet(self, registry):
        with ClusterLauncher(registry, backends=2) as cluster:
            gateway = GatewayServer(
                cluster.addresses, policy="round_robin",
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                  max_delay_s=0.05),
                health_interval_s=3600.0)
            with gateway:
                yield cluster, gateway

    def test_app_request_relayed(self, fleet, registry, dig_raw):
        _, gateway = fleet
        raw = dig_raw[0]
        with DjinnClient(*gateway.address) as cli:
            assert cli.infer_app("dig", raw) == _local_answer(registry, raw)

    def test_u8_payload_relayed(self, fleet, registry, dig_raw):
        _, gateway = fleet
        raw_u8 = (dig_raw[1] * 255).astype(np.uint8)
        raw = raw_u8.astype(np.float32) / np.float32(255.0)
        with DjinnClient(*gateway.address) as cli:
            assert cli.infer_app("dig", raw_u8) == _local_answer(registry,
                                                                 raw)

    def test_unknown_app_error_passes_through(self, fleet):
        _, gateway = fleet
        with DjinnClient(*gateway.address) as cli:
            with pytest.raises(DjinnServiceError, match="no serving app"):
                cli.infer_app("nope", np.zeros((1, 28, 28), np.float32))

    def test_app_load_spreads_across_backends(self, fleet, dig_raw):
        cluster, gateway = fleet
        with DjinnClient(*gateway.address) as cli:
            for _ in range(4):
                cli.infer_app("dig", dig_raw[0])
        served = [srv.ledger.requests["dig"].value for srv in cluster.servers]
        assert sum(served) >= 4  # every request landed on a backend
        assert all(count > 0 for count in served)  # round robin spread
