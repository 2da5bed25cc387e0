"""Integration tests: the DjiNN TCP service end-to-end."""

import threading

import numpy as np
import pytest

from repro.core import (
    BatchPolicy,
    DjinnClient,
    DjinnServer,
    DjinnServiceError,
    MessageType,
    ModelRegistry,
    RemoteBackend,
)
from repro.models import lenet5, senna
from repro.tonic import DigApp, digit_dataset


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register_spec("dig", lenet5(), seed=0)
    reg.register_spec("pos", senna("pos"), seed=1)
    reg.register_spec("chk", senna("chk"), seed=2)
    return reg


@pytest.fixture
def server(registry):
    with DjinnServer(registry) as srv:
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with DjinnClient(host, port) as cli:
        yield cli


class TestBasicService:
    def test_list_models(self, client):
        assert client.list_models() == ["chk", "dig", "pos"]

    def test_infer_matches_local_forward(self, client, registry, rng):
        x = rng.normal(size=(4, 1, 32, 32)).astype(np.float32)
        remote = client.infer("dig", x)
        local = registry.get("dig").forward(x)
        np.testing.assert_allclose(remote, local, rtol=1e-5)

    def test_multiple_models_on_one_connection(self, client, rng):
        assert client.infer("dig", rng.normal(size=(1, 1, 32, 32))).shape == (1, 10)
        assert client.infer("pos", rng.normal(size=(5, 300))).shape == (5, 45)

    def test_unknown_model_error(self, client):
        with pytest.raises(DjinnServiceError, match="not loaded"):
            client.infer("asr", np.zeros((1, 440), np.float32))

    def test_wrong_shape_error_and_connection_survives(self, client, rng):
        with pytest.raises(DjinnServiceError, match="expects inputs"):
            client.infer("dig", np.zeros((1, 3, 32, 32), np.float32))
        # the connection keeps working after an application-level error
        assert client.infer("dig", rng.normal(size=(1, 1, 32, 32))).shape == (1, 10)

    def test_stats_accumulate(self, client, rng):
        before = client.stats().get("pos", {}).get("requests", 0)
        client.infer("pos", rng.normal(size=(2, 300)))
        after = client.stats()["pos"]["requests"]
        assert after == before + 1


class TestConcurrency:
    def test_parallel_clients(self, server, registry, rng):
        host, port = server.address
        inputs = rng.normal(size=(8, 3, 300)).astype(np.float32)
        expected = [registry.get("pos").forward(x) for x in inputs]
        results = [None] * 8

        def worker(i):
            with DjinnClient(host, port) as cli:
                results[i] = cli.infer("pos", inputs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_server_with_batching_coalesces_concurrent_load(self, registry, rng):
        with DjinnServer(registry, batching=BatchPolicy(max_batch=16, timeout_ms=10.0)) as srv:
            host, port = srv.address
            outs = [None] * 6

            def worker(i):
                with DjinnClient(host, port) as cli:
                    outs[i] = cli.infer("pos", np.full((1, 300), float(i), np.float32))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i in range(6):
                expected = registry.get("pos").forward(np.full((1, 300), float(i), np.float32))
                np.testing.assert_allclose(outs[i], expected, rtol=1e-5)


class TestStuckSend:
    """A reply stuck in its socket send holds no model resource: the plan
    lock and the pool slot are back before the reply is encoded."""

    @staticmethod
    def _gate_first_reply(server):
        """Block the server's first INFER_RESPONSE send until ``gate`` is
        set; ``entered`` fires once that send is stuck."""
        entered, gate = threading.Event(), threading.Event()
        send, claim = server._safe_send, threading.Lock()

        def gated_send(conn, message):
            if (message.type == MessageType.INFER_RESPONSE
                    and claim.acquire(blocking=False)):  # first reply only
                entered.set()
                gate.wait(10.0)
            send(conn, message)

        server._safe_send = gated_send
        return entered, gate

    @staticmethod
    def _infer_async(server, x):
        box = {}

        def run():
            with DjinnClient(*server.address) as cli:
                box["out"] = cli.infer("dig", x)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, box

    def _check_b_answers_while_a_is_stuck(self, server, net, rng, stuck):
        x = rng.normal(size=(1,) + tuple(net.input_shape)).astype(np.float32)
        entered, gate = self._gate_first_reply(server)
        a, a_box = self._infer_async(server, x)
        try:
            assert entered.wait(10.0)  # A's reply is stuck in its send
            stuck()
            b, b_box = self._infer_async(server, x)
            b.join(1.0)
            assert "out" in b_box, "B waited on the model A's stuck reply holds"
        finally:
            gate.set()
            a.join(10.0)
        np.testing.assert_allclose(b_box["out"], net.forward(x), rtol=1e-5)
        np.testing.assert_allclose(a_box["out"], net.forward(x), rtol=1e-5)

    def test_stuck_reply_does_not_hold_the_plan(self, registry, rng):
        """With ``max_batch=1`` the fast path's plan is also the worker's
        envelope plan: a reply holding it would wedge the model."""
        with DjinnServer(registry, batching=BatchPolicy(
                max_batch=1, timeout_ms=0)) as server:
            self._check_b_answers_while_a_is_stuck(
                server, registry.get("dig"), rng, lambda: None)

    def test_stuck_reply_holds_no_pool_slot(self, rng):
        reg = ModelRegistry()
        reg.register_spec("dig", lenet5(), seed=0)
        with DjinnServer(reg, workers="proc:2") as server:
            pool = server._pool

            def every_slot_free():
                assert pool._free.qsize() == pool._layout["slots"]

            self._check_b_answers_while_a_is_stuck(
                server, reg.get("dig"), rng, every_slot_free)


class TestLifecycle:
    def test_port_zero_picks_free_port(self, registry):
        with DjinnServer(registry) as a, DjinnServer(registry) as b:
            assert a.address[1] != b.address[1]

    def test_double_start_rejected(self, registry):
        srv = DjinnServer(registry).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                srv.start()
        finally:
            srv.stop()

    def test_stop_is_idempotent(self, registry):
        srv = DjinnServer(registry).start()
        srv.stop()
        srv.stop()

    def test_shutdown_via_client(self, registry):
        srv = DjinnServer(registry).start()
        host, port = srv.address
        client = DjinnClient(host, port)
        client.shutdown_server()
        import time
        deadline = time.time() + 5
        while srv._running.is_set() and time.time() < deadline:
            time.sleep(0.01)
        assert not srv._running.is_set()

    def test_address_before_start_raises(self, registry):
        with pytest.raises(RuntimeError, match="not started"):
            DjinnServer(registry).address

    def test_connection_churn_retains_no_threads(self, server):
        """A health checker dials a fresh connection every probe; a worker
        thread must be garbage once its connection has unwound."""
        import gc
        import socket
        import time

        def worker_threads():
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, threading.Thread)
                       and obj.name == "djinn-worker")

        before = worker_threads()
        for _ in range(300):
            socket.create_connection(server.address).close()
        # the accept loop takes the backlog in order, so once one more
        # connection answers, every churned one has been accepted; before
        # that an empty _conns can be a lull between a worker unwinding
        # and the next accept, and the checks below would race it
        with DjinnClient(*server.address) as probe:
            probe.list_models()
        deadline = time.monotonic() + 10.0
        while ((server._conns or worker_threads() > before)
               and time.monotonic() < deadline):
            time.sleep(0.05)
            gc.collect()
        assert server._conns == []
        assert worker_threads() <= before

    def test_accepted_sockets_disable_nagle(self, server, client):
        """The client side always set TCP_NODELAY; the accepted side must
        too, or a second small reply waits out Nagle + delayed ACK."""
        import socket

        client.list_models()  # the connection is accepted and being served
        with server._conns_lock:
            (conn,) = server._conns
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestRemoteBackend:
    def test_tonic_app_over_the_wire(self, client):
        """A Tonic app runs unchanged against the live service (Fig 3)."""
        app = DigApp(RemoteBackend(client))
        images, _ = digit_dataset(5, seed=9)
        preds = app.run(images)
        assert len(preds) == 5

    def test_remote_equals_local_backend(self, client, registry):
        from repro.tonic import LocalBackend

        images, _ = digit_dataset(4, seed=11)
        remote = DigApp(RemoteBackend(client)).run(images)
        local = DigApp(LocalBackend(registry.get("dig"))).run(images)
        assert remote == local
