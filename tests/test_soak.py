"""Soak test: a proc-pool fleet under sustained concurrent mixed load.

Eight client threads push 200 stamped requests each (mixed ``pos``/``dig``
traffic) through a real TCP :class:`DjinnServer` whose batching front-end
rides a :class:`ProcPoolExecutor`.  Every response is checked against the
in-process forward of its own stamped input, so a lost, stale, or
cross-wired response is caught by payload — not by count.  The comparison
uses the golden-test tolerance rather than byte equality: the server
coalesces concurrent requests into batches, and BLAS reassociates
reductions differently at different batch widths (~1e-8 drift).  A wrong
payload differs by O(1) — whole different stamped input — so the tight
tolerance loses no detection power.  Bit-exact cross-executor identity at
*matching* batch shapes is pinned separately in ``tests/test_procpool.py``.

After the load drains, the run must leave no residue:

* the weight digest of every served model is unchanged (nothing scribbled
  on the shared read-only weights);
* in every worker, the pages behind each served model's largest weight
  are still shared with the parent — load does not duplicate model state;
* parent RSS growth over the whole soak stays bounded — the copy-free
  slot ring does not leak per-request memory.

Marked ``slow``: this is the longest-running test in the suite and CI runs
it in the dedicated soak/chaos job (``make soak``).
"""

import threading

import numpy as np
import pytest
from _procfs import shared_bytes, smaps_over

from repro.core import BatchPolicy, DjinnClient, DjinnServer, ModelRegistry
from repro.models import build_spec
from repro.nn import weight_digest

CLIENTS = 8
REQUESTS_PER_CLIENT = 200
MODELS = ("pos", "dig")

#: generous bound on parent RSS growth over the soak (bytes); the run moves
#: ~hundreds of MB through the slot ring, so an unbounded per-request leak
#: blows through this immediately while steady-state noise never does
RSS_GROWTH_LIMIT = 80 * 1024 * 1024


def _rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found in /proc/self/status")


def _stamped_input(net, client_id: int, index: int) -> np.ndarray:
    """A payload that names its request: client id and ordinal are baked
    into the tensor, so the only byte-equal response is its own."""
    x = np.full((1,) + net.input_shape, 0.125, dtype=np.float32)
    flat = x.reshape(-1)
    flat[0] = float(client_id + 1)
    flat[1] = float(index + 1)
    return x


@pytest.mark.slow
def test_proc_pool_fleet_survives_concurrent_soak():
    registry = ModelRegistry()
    for seed, name in enumerate(MODELS):
        registry.register_spec(name, build_spec(name), seed=seed)
    nets = {name: registry.get(name) for name in MODELS}

    server = DjinnServer(registry, workers="proc:2",
                         batching=BatchPolicy(max_batch=8, timeout_ms=1.0))
    server.start()
    rss_before = _rss_bytes()
    digests_before = {name: weight_digest(net) for name, net in nets.items()}

    failures: list = []
    done = [0] * CLIENTS

    def client_loop(client_id: int) -> None:
        host, port = server.address
        try:
            with DjinnClient(host, port, timeout_s=120.0) as client:
                for i in range(REQUESTS_PER_CLIENT):
                    name = MODELS[(client_id + i) % len(MODELS)]
                    x = _stamped_input(nets[name], client_id, i)
                    out = client.infer(name, x)
                    expected = nets[name].forward(x)
                    if (out.shape != expected.shape
                            or not np.allclose(out, expected,
                                               rtol=1e-4, atol=1e-6)):
                        failures.append(
                            f"client {client_id} request {i} ({name}): "
                            f"response does not match its stamped input")
                        return
                    done[client_id] += 1
        except Exception as exc:  # noqa: BLE001 - any client error fails the soak
            failures.append(f"client {client_id}: {type(exc).__name__}: {exc}")

    try:
        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"soak-client-{i}")
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=560)
        assert not any(t.is_alive() for t in threads), "soak clients hung"
        assert failures == []
        assert done == [REQUESTS_PER_CLIENT] * CLIENTS, (
            f"lost requests: {done}")

        # ---- residue checks, while the pool is still up ----------------
        # nothing scribbled on the shared weights
        for name, net in nets.items():
            assert weight_digest(net) == digests_before[name], (
                f"{name}: weight digest changed under load")
        # weights still resident once: the worker maps the parent's pages
        for proc in server._pool._procs:
            for name, net in nets.items():
                data = max((blob.require_data() for blob in net.params()),
                           key=lambda array: array.nbytes)
                entry = smaps_over(proc.pid, data.ctypes.data, data.nbytes)
                assert entry is not None, f"{name}: weight unmapped in worker"
                assert shared_bytes(entry) >= data.nbytes, (
                    f"{name}: worker {proc.pid} holds a private weight copy")
        # no per-request leak in the parent
        growth = _rss_bytes() - rss_before
        assert growth < RSS_GROWTH_LIMIT, (
            f"parent RSS grew {growth / 1e6:.1f} MB over "
            f"{CLIENTS * REQUESTS_PER_CLIENT} requests")
    finally:
        server.stop()


# --------------------------------------------------------------- streaming
STREAM_CLIENTS = 8
STREAMS_PER_CLIENT = 50
CHUNKS_PER_STREAM = 3


@pytest.mark.slow
def test_stream_soak_leaves_no_sessions_behind():
    """Stream soak: 8 client threads open and close 50 streams each (3
    stamped chunks per stream) against a proc:2-backed server.  Every
    stream's final transcript is checked against the in-process forwards
    of its own chunks, the session table must return to exactly zero, the
    completed-stream counter must equal the stream count, and parent RSS
    growth stays bounded — sessions do not leak memory or table slots."""
    from repro.nn import LayerSpec, Net, NetSpec

    spec = NetSpec("soak_tiny", (8,), (
        LayerSpec("InnerProduct", "h", {"num_output": 16}),
        LayerSpec("Sigmoid", "s"),
        LayerSpec("InnerProduct", "out", {"num_output": 4}),
        LayerSpec("Softmax", "p"),
    ))
    registry = ModelRegistry()
    registry.register("soak_tiny", Net(spec).materialize(0))
    net = registry.get("soak_tiny")

    server = DjinnServer(registry, workers="proc:2",
                         batching=BatchPolicy(max_batch=8, timeout_ms=1.0),
                         session_limit=STREAM_CLIENTS * 2)
    server.start()
    rss_before = _rss_bytes()

    failures: list = []
    completed = [0] * STREAM_CLIENTS

    def stream_loop(client_id: int) -> None:
        host, port = server.address
        try:
            with DjinnClient(host, port, timeout_s=120.0) as client:
                for s in range(STREAMS_PER_CLIENT):
                    stream = client.open_stream("soak_tiny")
                    expected = []
                    for c in range(CHUNKS_PER_STREAM):
                        x = np.full((1, 8), 0.1, dtype=np.float32)
                        x[0, 0] = float(client_id + 1)
                        x[0, 1] = float(s * CHUNKS_PER_STREAM + c + 1)
                        expected.append(int(np.argmax(net.forward(x))))
                        stream.send(x)
                    final = stream.close()
                    if (not final.final
                            or final.data.get("labels") != expected):
                        failures.append(
                            f"client {client_id} stream {s}: transcript "
                            f"{final.data.get('labels')} != {expected}")
                        return
                    completed[client_id] += 1
        except Exception as exc:  # noqa: BLE001 - any error fails the soak
            failures.append(f"client {client_id}: {type(exc).__name__}: {exc}")

    try:
        threads = [threading.Thread(target=stream_loop, args=(i,),
                                    name=f"stream-soak-{i}")
                   for i in range(STREAM_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=560)
        assert not any(t.is_alive() for t in threads), "stream clients hung"
        assert failures == []
        assert completed == [STREAMS_PER_CLIENT] * STREAM_CLIENTS, (
            f"lost streams: {completed}")

        # ---- residue checks -------------------------------------------
        assert server.sessions.count() == 0, "sessions leaked after soak"
        family = server.metrics.get("djinn_streams_total")
        totals = {tuple(lv): child.value for lv, child in family.children()}
        assert totals.get(("soak_tiny", "completed"), 0) == (
            STREAM_CLIENTS * STREAMS_PER_CLIENT)
        assert totals.get(("soak_tiny", "rejected"), 0) == 0
        growth = _rss_bytes() - rss_before
        assert growth < RSS_GROWTH_LIMIT, (
            f"parent RSS grew {growth / 1e6:.1f} MB over "
            f"{STREAM_CLIENTS * STREAMS_PER_CLIENT} streams")
    finally:
        server.stop()


# ------------------------------------------------------------ dup-heavy
DUP_CLIENTS = 6
DUP_REQUESTS_PER_CLIENT = 150
DUP_FRAC = 0.6


@pytest.mark.slow
def test_dup_heavy_cache_soak_bounded_and_exact():
    """Dup-heavy soak with both caches armed: 6 client threads push a
    shared seeded duplicate stream (60% byte-identical replays, the
    response cache's food) through a gateway with an 8 MiB response cache
    fronting a batching backend with a lossless layer cache.  Every
    response is checked against the in-process forward of its own input
    (lost or cross-served answers are caught by payload), the response
    cache must stay inside its bytes budget while actually hitting, the
    layer cache must report *exact* fidelity (tolerance=0 means every hit
    verified byte-equal), and parent RSS growth stays bounded — neither
    cache may turn duplicate traffic into a leak."""
    from repro.core.duplication import plan_duplicates
    from repro.gateway import GatewayServer
    from repro.nn import LayerCacheConfig

    registry = ModelRegistry()
    registry.register_spec("pos", build_spec("pos"), seed=0)
    net = registry.get("pos")

    total = DUP_CLIENTS * DUP_REQUESTS_PER_CLIENT
    dup_of = plan_duplicates(total, DUP_FRAC, 0xD1A77)

    def input_for(i: int) -> np.ndarray:
        # jitter=0 semantics: a planned duplicate replays its source's
        # exact bytes, so its content key matches at the gateway
        x = np.full((1,) + net.input_shape, 0.25, dtype=np.float32)
        x.reshape(-1)[0] = float(dup_of.get(i, i) + 1)
        return x

    server = DjinnServer(registry,
                         batching=BatchPolicy(max_batch=8, timeout_ms=1.0),
                         layer_cache=LayerCacheConfig(max_entries=1024,
                                                      tolerance=0.0))
    server.start()
    gateway = GatewayServer([server.address], cache_mb=8.0,
                            health_interval_s=30.0)
    gateway.start()
    rss_before = _rss_bytes()

    failures: list = []
    done = [0] * DUP_CLIENTS

    def client_loop(client_id: int) -> None:
        host, port = gateway.address
        try:
            with DjinnClient(host, port, timeout_s=120.0) as client:
                for i in range(DUP_REQUESTS_PER_CLIENT):
                    index = client_id * DUP_REQUESTS_PER_CLIENT + i
                    x = input_for(index)
                    out = client.infer("pos", x)
                    expected = net.forward(x)
                    if (out.shape != expected.shape
                            or not np.allclose(out, expected,
                                               rtol=1e-4, atol=1e-6)):
                        failures.append(
                            f"client {client_id} request {i}: response "
                            f"does not match its own input")
                        return
                    done[client_id] += 1
        except Exception as exc:  # noqa: BLE001 - any error fails the soak
            failures.append(f"client {client_id}: {type(exc).__name__}: {exc}")

    try:
        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"dup-soak-{i}")
                   for i in range(DUP_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=560)
        assert not any(t.is_alive() for t in threads), "dup-soak clients hung"
        assert failures == []
        assert done == [DUP_REQUESTS_PER_CLIENT] * DUP_CLIENTS, (
            f"lost requests: {done}")

        # ---- residue checks -------------------------------------------
        stats = gateway.cache.stats()
        assert stats["hits"] > 0, "dup-heavy stream never hit the cache"
        assert stats["hits"] + stats["misses"] == total
        assert stats["bytes"] <= gateway.cache.budget_bytes
        layer_cache = server._executor.layer_caches.get("pos")
        assert layer_cache is not None
        assert layer_cache.stats()["fidelity_max"] == 0.0, (
            "lossless layer cache reported non-exact fidelity")
        growth = _rss_bytes() - rss_before
        assert growth < RSS_GROWTH_LIMIT, (
            f"parent RSS grew {growth / 1e6:.1f} MB over {total} requests")
    finally:
        gateway.stop()
        server.stop()
