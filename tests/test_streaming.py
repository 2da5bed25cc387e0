"""Stream-lifecycle test battery: stream-frame sessions end-to-end.

Every test drives real sockets against a real :class:`DjinnServer` (and,
for the fleet tests, a real :class:`GatewayServer` over a 2-backend
cluster).  Payloads are stamped — each chunk's value encodes (stream,
ordinal) — so a transcript that mixes streams, drops a chunk, or replays
a stale result is caught by content, not just by count.  The closing
assertion of nearly every test is the no-leak invariant: the session
table returns to zero.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DjinnClient,
    DjinnServer,
    DjinnSessionLimitError,
    DjinnStreamClient,
    DjinnStreamError,
    ModelRegistry,
)
from repro.gateway import ClusterLauncher, GatewayServer
from repro.nn import LayerSpec, Net, NetSpec

from conftest import TEST_SEED


def tiny_spec(name="tiny", in_dim=8, out_dim=4):
    return NetSpec(name, (in_dim,), (
        LayerSpec("InnerProduct", "h", {"num_output": 16}),
        LayerSpec("Sigmoid", "s"),
        LayerSpec("InnerProduct", "out", {"num_output": out_dim}),
        LayerSpec("Softmax", "p"),
    ))


def stamp(stream_index: int, seq: int, dim: int = 8) -> np.ndarray:
    """A chunk whose content names its (stream, ordinal) coordinates."""
    x = np.full((1, dim), 0.1, dtype=np.float32)
    x[0, 0] = float(stream_index + 1)
    x[0, 1] = float(seq + 1)
    return x


def expected_label(net, chunk: np.ndarray) -> int:
    return int(np.argmax(net.forward(chunk)))


def metric_samples(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {tuple(lv): child.value for lv, child in family.children()}


def wait_until(predicate, timeout_s=5.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register_spec("tiny", tiny_spec(), seed=0)
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


class TestStreamLifecycle:
    def test_open_send_close_transcript(self, server, client, registry):
        net = registry.get("tiny")
        stream = client.open_stream("tiny")
        expected = []
        for seq in range(4):
            chunk = stamp(0, seq)
            expected.append(expected_label(net, chunk))
            partial = stream.send(chunk)
            assert not partial.final
            assert partial.seq == seq + 1
            assert partial.data["count"] == seq + 1
            assert partial.data["labels"] == expected[-1:]
        final = stream.close()
        assert final.final
        assert final.data["labels"] == expected
        assert server.sessions.count() == 0

    def test_interleaved_streams_one_connection(self, server, client,
                                                registry):
        """8 streams on one connection, chunks round-robined across them:
        every stream's transcript must contain exactly its own labels."""
        net = registry.get("tiny")
        streams = [client.open_stream("tiny") for _ in range(8)]
        expected = [[] for _ in streams]
        for seq in range(3):
            for i, stream in enumerate(streams):
                chunk = stamp(i, seq)
                expected[i].append(expected_label(net, chunk))
                partial = stream.send(chunk)
                assert partial.data["count"] == seq + 1
        for i, stream in enumerate(streams):
            final = stream.close()
            assert final.final
            assert final.data["labels"] == expected[i], f"stream {i}"
        assert server.sessions.count() == 0

    def test_concurrent_streams_many_connections(self, server, registry):
        """16 threads, each with its own connection and stream, all
        chunking simultaneously — transcripts never cross streams."""
        net = registry.get("tiny")
        host, port = server.address
        failures = []

        def worker(index):
            try:
                with DjinnClient(host, port) as cli:
                    stream = cli.open_stream("tiny")
                    expected = []
                    for seq in range(5):
                        chunk = stamp(index, seq)
                        expected.append(expected_label(net, chunk))
                        stream.send(chunk)
                    final = stream.close()
                    if final.data["labels"] != expected:
                        failures.append(
                            (index, final.data["labels"], expected))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append((index, repr(exc)))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not failures
        assert wait_until(lambda: server.sessions.count() == 0)

    def test_chunk_after_close_is_typed_error(self, server, client):
        stream = client.open_stream("tiny")
        stream.send(stamp(0, 0))
        stream.close()
        with pytest.raises(DjinnStreamError, match="unknown or closed") as ei:
            stream.send(stamp(0, 1))
        assert ei.value.stream_id == stream.stream_id
        # the connection survives the stream-scoped error
        follow_up = client.open_stream("tiny")
        assert follow_up.close().final

    def test_open_unknown_model_is_typed_error(self, server, client):
        with pytest.raises(DjinnStreamError, match="not loaded"):
            client.open_stream("nope")
        assert server.sessions.count() == 0

    def test_duplicate_stream_id_rejected(self, server, client):
        client.open_stream("tiny", stream_id=77)
        with pytest.raises(DjinnStreamError, match="already open"):
            client.open_stream("tiny", stream_id=77)

    def test_chunk_without_tensor_aborts_stream(self, server, client):
        from repro.core.protocol import Message, MessageType

        stream = client.open_stream("tiny")
        with pytest.raises(DjinnStreamError, match="no tensor"):
            client._stream_roundtrip(
                Message(MessageType.STREAM_CHUNK, name="tiny",
                        stream_id=stream.stream_id, stream_seq=1))
        assert server.sessions.count() == 0

    def test_wrong_chunk_shape_aborts_stream(self, server, client):
        stream = client.open_stream("tiny")
        with pytest.raises(DjinnStreamError, match="chunk"):
            stream.send(np.zeros((1, 5), np.float32))
        assert server.sessions.count() == 0
        aborted = metric_samples(server.metrics, "djinn_stream_aborted_total")
        assert aborted.get(("tiny", "error"), 0) == 1


class TestSessionLimits:
    def test_session_limit_is_typed_client_exception(self, registry):
        with DjinnServer(registry, session_limit=3) as srv:
            host, port = srv.address
            with DjinnClient(host, port) as cli:
                streams = [cli.open_stream("tiny") for _ in range(3)]
                with pytest.raises(DjinnSessionLimitError) as ei:
                    cli.open_stream("tiny")
                assert ei.value.limit == 3
                # closing one stream frees a slot immediately
                streams[0].close()
                reopened = cli.open_stream("tiny")
                assert reopened.close().final
                for stream in streams[1:]:
                    stream.close()
            rejected = metric_samples(srv.metrics, "djinn_streams_total")
            assert rejected.get(("tiny", "rejected"), 0) == 1

    def test_mid_stream_disconnect_reaps_sessions(self, registry):
        with DjinnServer(registry) as srv:
            host, port = srv.address
            cli = DjinnClient(host, port)
            streams = [cli.open_stream("tiny") for _ in range(4)]
            for i, stream in enumerate(streams):
                stream.send(stamp(i, 0))
            assert srv.sessions.count() == 4
            cli.close()  # vanish without closing any stream
            assert wait_until(lambda: srv.sessions.count() == 0)
            aborted = metric_samples(srv.metrics,
                                     "djinn_stream_aborted_total")
            assert aborted.get(("tiny", "disconnect"), 0) == 4
            gauge = metric_samples(srv.metrics, "djinn_stream_sessions")
            assert gauge.get((), -1) == 0

    def test_open_without_close_reaped_by_idle_timeout(self, registry):
        with DjinnServer(registry, session_idle_s=0.15) as srv:
            host, port = srv.address
            with DjinnClient(host, port) as cli:
                stream = cli.open_stream("tiny")
                stream.send(stamp(0, 0))
                # the opener goes quiet but keeps the connection alive
                assert wait_until(lambda: srv.sessions.count() == 0,
                                  timeout_s=5.0)
                aborted = metric_samples(srv.metrics,
                                         "djinn_stream_aborted_total")
                assert aborted.get(("tiny", "idle"), 0) == 1
                # the reaped stream is gone: the next chunk is a typed error
                with pytest.raises(DjinnStreamError, match="unknown or closed"):
                    stream.send(stamp(0, 1))

    def test_stream_outcome_metrics(self, registry):
        with DjinnServer(registry, session_limit=2) as srv:
            host, port = srv.address
            with DjinnClient(host, port) as cli:
                done = cli.open_stream("tiny")
                done.send(stamp(0, 0))
                done.close()
            totals = metric_samples(srv.metrics, "djinn_streams_total")
            assert totals.get(("tiny", "completed"), 0) == 1
            chunks = metric_samples(srv.metrics, "djinn_stream_chunks_total")
            assert chunks.get(("tiny",), 0) == 1


class TestAsyncStreamClient:
    def test_async_streams_multiplex_connections(self, server, registry):
        net = registry.get("tiny")
        host, port = server.address

        async def main():
            async with DjinnStreamClient(host, port, connections=2) as cli:
                streams = [await cli.open("tiny") for _ in range(6)]

                async def drive(index, stream):
                    expected = []
                    for seq in range(4):
                        chunk = stamp(index, seq)
                        expected.append(expected_label(net, chunk))
                        partial = await stream.send(chunk)
                        assert partial.data["count"] == seq + 1
                    final = await stream.close()
                    assert final.final
                    assert final.data["labels"] == expected

                await asyncio.gather(*[
                    drive(i, stream) for i, stream in enumerate(streams)])

        asyncio.run(main())
        assert wait_until(lambda: server.sessions.count() == 0)

    def test_async_session_limit_typed(self, registry):
        with DjinnServer(registry, session_limit=2) as srv:
            host, port = srv.address

            async def main():
                async with DjinnStreamClient(host, port) as cli:
                    streams = [await cli.open("tiny") for _ in range(2)]
                    with pytest.raises(DjinnSessionLimitError) as ei:
                        await cli.open("tiny")
                    assert ei.value.limit == 2
                    for stream in streams:
                        await stream.close()

            asyncio.run(main())
            assert srv.sessions.count() == 0

    def test_async_chunk_after_close_typed(self, server):
        host, port = server.address

        async def main():
            async with DjinnStreamClient(host, port) as cli:
                stream = await cli.open("tiny")
                await stream.send(stamp(0, 0))
                await stream.close()
                # route is gone locally; re-register to talk to the server
                cli._conns[0].routes[stream.stream_id] = asyncio.Queue()
                with pytest.raises(DjinnStreamError, match="unknown or closed"):
                    await stream.send(stamp(0, 1))

        asyncio.run(main())


class TestGatewayStreaming:
    """The acceptance scenario: concurrent streams through the gateway
    against a 2-backend fleet, pinned per-stream by rendezvous affinity."""

    def test_32_concurrent_streams_through_gateway(self, registry):
        with ClusterLauncher(registry, backends=2) as cluster:
            gateway = GatewayServer(cluster.addresses)
            gateway.start()
            try:
                net = registry.get("tiny")
                host, port = gateway.address
                failures = []

                def worker(index):
                    try:
                        with DjinnClient(host, port) as cli:
                            stream = cli.open_stream("tiny")
                            expected = []
                            for seq in range(4):
                                chunk = stamp(index, seq)
                                expected.append(expected_label(net, chunk))
                                partial = stream.send(chunk)
                                if partial.data["count"] != seq + 1:
                                    failures.append((index, "count",
                                                     partial.data))
                                    return
                            final = stream.close()
                            if final.data["labels"] != expected:
                                failures.append((index, final.data["labels"],
                                                 expected))
                    except Exception as exc:  # noqa: BLE001
                        failures.append((index, repr(exc)))

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(32)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not failures
                # zero leaked sessions on every backend
                assert wait_until(lambda: all(
                    srv.sessions.count() == 0 for srv in cluster.servers))
                # both backends and the gateway saw completed streams
                gw = metric_samples(gateway.metrics, "gateway_streams_total")
                assert gw.get(("tiny", "completed"), 0) == 32
                per_backend = [
                    metric_samples(srv.metrics, "djinn_streams_total")
                    .get(("tiny", "completed"), 0)
                    for srv in cluster.servers
                ]
                assert sum(per_backend) == 32
                # rendezvous affinity spreads streams over the fleet
                assert all(count > 0 for count in per_backend), per_backend
            finally:
                gateway.stop()

    def test_gateway_unknown_stream_is_typed_error(self, registry):
        with ClusterLauncher(registry, backends=2) as cluster:
            gateway = GatewayServer(cluster.addresses)
            gateway.start()
            try:
                host, port = gateway.address
                with DjinnClient(host, port) as cli:
                    stream = cli.open_stream("tiny")
                    stream.send(stamp(0, 0))
                    stream.close()
                    with pytest.raises(DjinnStreamError,
                                       match="unknown or closed"):
                        stream.send(stamp(0, 1))
            finally:
                gateway.stop()

    def test_gateway_disconnect_cleans_backend_sessions(self, registry):
        with ClusterLauncher(registry, backends=2) as cluster:
            gateway = GatewayServer(cluster.addresses)
            gateway.start()
            try:
                host, port = gateway.address
                cli = DjinnClient(host, port)
                streams = [cli.open_stream("tiny") for _ in range(6)]
                for i, stream in enumerate(streams):
                    stream.send(stamp(i, 0))
                assert sum(srv.sessions.count()
                           for srv in cluster.servers) == 6
                cli.close()  # gateway must close its pinned upstreams
                assert wait_until(lambda: all(
                    srv.sessions.count() == 0 for srv in cluster.servers))
                disconnects = sum(
                    metric_samples(srv.metrics, "djinn_stream_aborted_total")
                    .get(("tiny", "disconnect"), 0)
                    for srv in cluster.servers)
                assert disconnects == 6
            finally:
                gateway.stop()

    def test_streams_and_unary_share_a_gateway_connection(self, registry):
        with ClusterLauncher(registry, backends=2) as cluster:
            gateway = GatewayServer(cluster.addresses)
            gateway.start()
            try:
                net = registry.get("tiny")
                host, port = gateway.address
                with DjinnClient(host, port) as cli:
                    stream = cli.open_stream("tiny")
                    stream.send(stamp(0, 0))
                    x = stamp(9, 9)
                    np.testing.assert_allclose(
                        cli.infer("tiny", x), net.forward(x), rtol=1e-5)
                    final = stream.close()
                    assert final.final and final.data["count"] == 1
            finally:
                gateway.stop()


class TestAsrStreamingService:
    """The real incremental pipeline through the wire: a (440,)-input model
    named ``asr`` gets the AsrStream app — partial transcripts per chunk,
    exact final equal to the unary decode."""

    @pytest.fixture(scope="class")
    def asr_registry(self):
        spec = NetSpec("tiny_am", (440,), (
            LayerSpec("InnerProduct", "h", {"num_output": 32}),
            LayerSpec("Sigmoid", "s"),
            LayerSpec("InnerProduct", "out", {"num_output": 48}),
            LayerSpec("Softmax", "p"),
        ))
        reg = ModelRegistry()
        reg.register("asr", Net(spec).materialize(0))
        return reg

    def test_streamed_transcript_equals_unary(self, asr_registry):
        from repro.tonic import LocalBackend, synthesize_words
        from repro.tonic.asr import AsrApp

        net = asr_registry.get("asr")
        app = AsrApp(LocalBackend(net), num_senones=48)
        audio, _ = synthesize_words(["go", "stop"], seed=TEST_SEED)
        unary = app.run(audio.astype(np.float32))

        with DjinnServer(asr_registry) as srv:
            host, port = srv.address
            with DjinnClient(host, port) as cli:
                stream = cli.open_stream("asr")
                partials = []
                for start in range(0, len(audio), 1600):
                    result = stream.send(
                        audio[start:start + 1600].astype(np.float32))
                    partials.append(result.data["partial"])
                    if result.final:
                        break
                final = stream.close()
            assert srv.sessions.count() == 0
        assert final.data["transcript"] == unary.text
        assert final.data["log_score"] == pytest.approx(unary.log_score)
        # partials are plain strings and the last state is coherent
        assert all(isinstance(p, str) for p in partials)

    def test_streamed_partials_deterministic(self, asr_registry):
        from repro.tonic import synthesize_words

        audio, _ = synthesize_words(["left"], seed=TEST_SEED)

        def run_once():
            with DjinnServer(asr_registry) as srv:
                host, port = srv.address
                with DjinnClient(host, port) as cli:
                    stream = cli.open_stream("asr")
                    partials = []
                    for start in range(0, len(audio), 2000):
                        result = stream.send(
                            audio[start:start + 2000].astype(np.float32))
                        partials.append(result.data["partial"])
                        if result.final:
                            break
                    final = stream.close()
                    return partials, final.data["transcript"]

        assert run_once() == run_once()
