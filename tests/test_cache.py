"""Cross-layer caching battery: correctness pins for the gateway's
content-addressed response cache and the engine's activation layer cache.

The battery is organized around the PR's load-bearing claims:

* **byte identity** — a cache hit is indistinguishable on the wire from
  the miss that populated it, for every golden-zoo model, and
  ``ExecutionPlan.run_from(k)`` reproduces the full execution byte-for-
  byte at every safe split point;
* **budget invariants** — the response cache never retains more bytes
  than its budget, and the layer cache never more entries than its cap,
  with eviction counters that account exactly;
* **collision honesty** — a digest collision (forced via the injectable
  digest hooks) degrades to a counted miss, never a wrong answer;
* **key discipline** — the response key covers exactly the QoS-invariant
  identity of a request: distinct (model, kind, payload) never share a
  key (fuzzed), while QoS-only differences always do;
* **shared duplication semantics** — the seeded near-duplicate planner is
  one source of truth: the load generator and the Tonic dataset surface
  must draw identical duplicate streams per seed.
"""

import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchPolicy,
    DjinnClient,
    DjinnServer,
    ModelRegistry,
)
from repro.core.duplication import (
    apply_duplicates,
    jitter_duplicate,
    plan_duplicates,
)
from repro.core.protocol import (
    Message,
    MessageType,
    encode_message,
    recv_message,
    send_message,
)
from repro.gateway import (
    ClusterLauncher,
    GatewayServer,
    ResponseCache,
    response_key,
)
from repro.models import build_net
from repro.nn import (
    ExecutionPlan,
    GraphLayerSpec,
    GraphNet,
    GraphSpec,
    LayerCache,
    LayerCacheConfig,
    PlanError,
)
from repro.obs import Tracer

from conftest import TEST_SEED

SETTINGS = dict(max_examples=25, deadline=None)

#: every golden-zoo model with an affordable plan width (FACE is 120M
#: params; width 2 keeps its arena and forward cost CI-sized)
ZOO_WIDTHS = {"imc": 2, "dig": 8, "face": 2, "asr": 8, "pos": 8}


@pytest.fixture(scope="module")
def zoo():
    """Materialized golden-zoo nets, built once for the whole battery."""
    return {app: build_net(app, materialize=True) for app in ZOO_WIDTHS}


@pytest.fixture(scope="module")
def zoo_registry(zoo):
    reg = ModelRegistry()
    for app, net in zoo.items():
        reg.register(app, net)
    return reg


def batch_for(net, n, seed=TEST_SEED):
    gen = np.random.default_rng(seed)
    return gen.standard_normal((n,) + tuple(net.input_shape)).astype(np.float32)


# ============================================================ response key
class TestResponseKey:
    def test_distinct_identity_distinct_keys(self):
        x = np.arange(6, dtype=np.float32)
        keys = {
            response_key("dig", 0, x),
            response_key("imc", 0, x),          # model participates
            response_key("dig", 1, x),          # payload kind participates
            response_key("dig", 0, x + 1.0),    # bytes participate
            response_key("dig", 0, x.reshape(2, 3)),  # shape participates
            response_key("dig", 0, x.astype(np.float64)),  # dtype too
            response_key("dig", 0, "hello"),    # text vs tensor tag
        }
        assert len(keys) == 7

    def test_equal_identity_equal_keys(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert response_key("dig", 0, x) == response_key("dig", 0, x.copy())
        assert response_key("dig", 2, "abc") == response_key("dig", 2, "abc")

    @settings(**SETTINGS)
    @given(
        model_a=st.text(max_size=8),
        model_b=st.text(max_size=8),
        kind_a=st.integers(0, 255),
        kind_b=st.integers(0, 255),
        data_a=st.binary(max_size=48),
        data_b=st.binary(max_size=48),
    )
    def test_fuzz_no_cross_identity_collisions(self, model_a, model_b,
                                               kind_a, kind_b,
                                               data_a, data_b):
        """Distinct (model, kind, bytes) identities never share a key."""
        key_a = response_key(model_a, kind_a,
                             np.frombuffer(data_a, dtype=np.uint8))
        key_b = response_key(model_b, kind_b,
                             np.frombuffer(data_b, dtype=np.uint8))
        same = (model_a, kind_a, data_a) == (model_b, kind_b, data_b)
        assert (key_a == key_b) == same

    def test_length_prefixing_blocks_field_slides(self):
        """Bytes migrating between fields must change the key (the
        structural-collision shape length prefixes exist to prevent)."""
        assert (response_key("ab", 0, "c")
                != response_key("a", 0, "bc"))
        assert (response_key("", 0, "abc")
                != response_key("abc", 0, ""))


# ======================================================== response cache
class TestResponseCacheUnit:
    @staticmethod
    def _tensor(i, floats=8):
        return np.full((floats,), float(i), dtype=np.float32)

    def test_bytes_never_exceed_budget(self):
        budget = 10 * self._tensor(0).nbytes
        cache = ResponseCache(budget)
        evicted_total = 0
        for i in range(50):
            key = response_key("m", 0, self._tensor(i))
            evicted_total += cache.put(key, "m", 0, tensor=self._tensor(i))
            assert cache.bytes <= budget
        stats = cache.stats()
        assert stats["entries"] == 10
        assert stats["evictions"] == evicted_total == 40
        assert stats["bytes"] == cache.bytes <= budget

    def test_oversize_insert_refused_and_counted(self):
        cache = ResponseCache(16)
        evicted = cache.put(b"k", "m", 0,
                            tensor=np.zeros(64, dtype=np.float32))
        assert evicted == 1
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 1
        assert cache.bytes == 0

    def test_lru_recency_decides_eviction(self):
        one = self._tensor(0).nbytes
        cache = ResponseCache(3 * one)
        keys = [response_key("m", 0, self._tensor(i)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, "m", 0, tensor=self._tensor(i))
        assert cache.get(keys[0], "m", 0) is not None  # refresh entry 0
        cache.put(response_key("m", 0, self._tensor(9)), "m", 0,
                  tensor=self._tensor(9))
        assert cache.get(keys[0], "m", 0) is not None  # survived
        assert cache.get(keys[1], "m", 0) is None      # LRU victim

    def test_digest_collision_refused_not_cross_served(self):
        cache = ResponseCache(1 << 20)
        cache.put(b"same-digest", "dig", 0, tensor=self._tensor(1))
        # same key arriving under a different identity must not be served
        assert cache.get(b"same-digest", "imc", 0) is None
        assert cache.get(b"same-digest", "dig", 3) is None
        stats = cache.stats()
        assert stats["collisions"] == 2
        assert stats["misses"] == 2
        # the honest identity still hits
        entry = cache.get(b"same-digest", "dig", 0)
        assert entry is not None
        np.testing.assert_array_equal(entry.tensor, self._tensor(1))

    def test_concurrent_probe_insert_stays_invariant(self):
        one = self._tensor(0).nbytes
        budget = 8 * one
        cache = ResponseCache(budget)
        probes_per_thread, threads_n = 200, 8
        errors = []

        def worker(tid):
            try:
                for i in range(probes_per_thread):
                    which = (tid * 3 + i) % 16
                    key = response_key("m", 0, self._tensor(which))
                    entry = cache.get(key, "m", 0)
                    if entry is None:
                        cache.put(key, "m", 0, tensor=self._tensor(which))
                    else:
                        np.testing.assert_array_equal(
                            entry.tensor, self._tensor(which))
                    assert cache.bytes <= budget
            except Exception as exc:  # surface across the thread boundary
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == probes_per_thread * threads_n
        assert stats["bytes"] <= budget
        assert stats["entries"] <= 8


# ==================================================== gateway end to end
class TestGatewayCache:
    @pytest.fixture()
    def fleet(self, zoo_registry):
        with ClusterLauncher(zoo_registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, cache_mb=32.0,
                                    health_interval_s=30.0)
            gateway.start()
            try:
                yield gateway
            finally:
                gateway.stop()

    def test_hit_byte_identical_per_zoo_model(self, fleet, zoo):
        """For every golden-zoo model: the cached answer is byte-equal to
        the miss that populated it, and the hit/miss counters move."""
        with DjinnClient(*fleet.address) as cli:
            for app, net in zoo.items():
                x = batch_for(net, 1)
                before = fleet.cache.stats()
                miss = cli.infer(app, x)
                hit = cli.infer(app, x)
                after = fleet.cache.stats()
                assert miss.tobytes() == hit.tobytes(), app
                assert after["misses"] == before["misses"] + 1, app
                assert after["hits"] == before["hits"] + 1, app

    def test_wire_frames_byte_identical(self, fleet, zoo):
        """Raw frames: hit and miss responses encode to identical bytes."""
        x = batch_for(zoo["dig"], 2)
        frames = []
        for _ in range(2):
            with socket.create_connection(fleet.address) as sock:
                send_message(sock, Message(MessageType.INFER_REQUEST,
                                           name="dig", tensor=x))
                frames.append(encode_message(recv_message(sock)))
        assert frames[0] == frames[1]

    def test_qos_only_differences_share_an_entry(self, fleet, zoo):
        """Deadline/priority/tenant are not part of the key: the same
        payload under different QoS must hit the same entry."""
        x = batch_for(zoo["pos"], 1, seed=TEST_SEED + 1)
        with DjinnClient(*fleet.address) as cli:
            base = cli.infer("pos", x)
            before = fleet.cache.stats()
            variants = [
                dict(deadline_ms=2500.0),
                dict(priority=7),
                dict(tenant="other-tenant"),
                dict(deadline_ms=2500.0, priority=-3, tenant="third"),
            ]
            for qos in variants:
                out = cli.infer("pos", x, **qos)
                assert out.tobytes() == base.tobytes()
        after = fleet.cache.stats()
        assert after["hits"] == before["hits"] + len(variants)
        assert after["misses"] == before["misses"]

    def test_cache_metrics_exported(self, fleet, zoo):
        with DjinnClient(*fleet.address) as cli:
            x = batch_for(zoo["dig"], 1, seed=TEST_SEED + 2)
            cli.infer("dig", x)
            cli.infer("dig", x)
        dump = fleet.metrics.dump()["metrics"]
        assert "gateway_cache_hits_total" in dump
        assert "gateway_cache_misses_total" in dump
        assert "gateway_cache_evictions_total" in dump
        assert "gateway_cache_bytes" in dump

    def test_cache_off_exports_no_cache_surface(self, zoo_registry, zoo):
        """Disabled cache: no cache metric families, no gateway.cache
        span — the pre-PR observability surface, unchanged."""
        tracer = Tracer(enabled=True)
        with ClusterLauncher(zoo_registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, tracer=tracer,
                                    health_interval_s=30.0)
            gateway.start()
            try:
                with DjinnClient(*gateway.address, tracer=tracer) as cli:
                    x = batch_for(zoo["pos"], 1)
                    cli.infer("pos", x)
                    cli.infer("pos", x)
            finally:
                gateway.stop()
        assert gateway.cache is None
        dump = gateway.metrics.dump()["metrics"]
        assert not any(name.startswith("gateway_cache") for name in dump)
        assert "gateway.cache" not in {s.name for s in tracer.spans()}

    def test_hit_and_miss_emit_gateway_cache_span(self, zoo_registry, zoo):
        tracer = Tracer(enabled=True)
        with ClusterLauncher(zoo_registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, cache_mb=8.0,
                                    tracer=tracer, health_interval_s=30.0)
            gateway.start()
            try:
                with DjinnClient(*gateway.address, tracer=tracer) as cli:
                    x = batch_for(zoo["pos"], 1)
                    cli.infer("pos", x)   # miss
                    cli.infer("pos", x)   # hit
            finally:
                gateway.stop()
        probes = [s for s in tracer.spans() if s.name == "gateway.cache"]
        assert len(probes) == 2
        assert {s.attrs.get("outcome") for s in probes} == {"hit", "miss"}
        assert all(s.end_s is not None for s in probes)


# ===================================================== run_from / splits
class TestRunFromSplits:
    @pytest.mark.parametrize("app", sorted(ZOO_WIDTHS))
    def test_suffix_byte_identical_at_every_safe_split(self, app, zoo):
        """run_from(k, snapshot) == the full execution, byte for byte, at
        every safe split point of every golden-zoo model."""
        net = zoo[app]
        plan = ExecutionPlan(net, ZOO_WIDTHS[app])
        n = 1 if app in ("imc", "face") else 3
        x = batch_for(net, n)
        full = plan.run(x)
        splits = plan.safe_splits()
        assert splits, f"{app} plan unexpectedly has no safe splits"
        for k in splits:
            with plan.lock:
                np.copyto(plan.input_view(n), x)
                plan.execute_range(n, 0, k + 1)
                snap = plan.snapshot(k, n)
                out = plan.run_from(k, snap)
            np.testing.assert_array_equal(out, full, err_msg=f"{app}@{k}")

    def test_fanout_region_is_not_a_safe_split(self):
        """DAG fan-out: while more than one top is live, a single
        activation does not determine the suffix — those splits must be
        excluded, and run_from must demand the full live set."""
        spec = GraphSpec(
            name="fanout",
            input_shape=(6,),
            layers=(
                GraphLayerSpec("InnerProduct", "ip1", ("input",),
                               {"num_output": 6}),
                GraphLayerSpec("ReLU", "act", ("ip1",)),
                GraphLayerSpec("EltwiseSum", "sum", ("ip1", "act")),
                GraphLayerSpec("InnerProduct", "head", ("sum",),
                               {"num_output": 3}),
                GraphLayerSpec("Softmax", "prob", ("head",)),
            ),
            output="prob",
        )
        net = GraphNet(spec).materialize(3)
        plan = ExecutionPlan(net, 4)
        splits = plan.safe_splits()
        # step 1 (relu) keeps ip1 live for the sum: not a safe split
        assert 1 not in splits
        x = batch_for(net, 2)
        full = plan.run(x)
        for k in splits:
            with plan.lock:
                np.copyto(plan.input_view(2), x)
                plan.execute_range(2, 0, k + 1)
                out = plan.run_from(k, plan.snapshot(k, 2))
            np.testing.assert_array_equal(out, full)
        # a bare array at the fan-out point is rejected, not misread
        with plan.lock:
            np.copyto(plan.input_view(2), x)
            plan.execute_range(2, 0, 2)
            with pytest.raises(PlanError):
                plan.run_from(1, np.zeros((2, 6), dtype=np.float32))

    def test_run_from_rejects_wrong_shape_and_tops(self, zoo):
        plan = ExecutionPlan(zoo["pos"], 4)
        k = plan.safe_splits()[0]
        with pytest.raises(PlanError):
            plan.run_from(k, {"no-such-top": np.zeros((1, 4), np.float32)})
        name = plan.live_tops(k)[0]
        good = plan.snapshot(k, 1)  # shapes from a real (if stale) arena
        bad = {name: np.zeros(good[name].shape + (2,), dtype=np.float32)}
        with pytest.raises(PlanError):
            plan.run_from(k, bad)


# ========================================================== layer cache
class TestLayerCacheServe:
    def test_all_miss_serve_matches_uncached_then_hits_byte_equal(self, zoo):
        net = zoo["dig"]
        plan = ExecutionPlan(net, 8)
        cache = LayerCache(plan, max_entries=64)
        x = batch_for(net, 4)
        with plan.lock:
            np.copyto(plan.input_view(4), x)
            first = cache.serve(4)
            first_bytes = first.outputs.tobytes()
        # a cold serve is one full-width pass: byte-equal to the net
        np.testing.assert_array_equal(first.outputs, net.forward(x))
        assert (first.hits, first.misses) == (0, 4)
        with plan.lock:
            np.copyto(plan.input_view(4), x)
            second = cache.serve(4)
            assert second.outputs.tobytes() == first_bytes
        assert (second.hits, second.misses) == (4, 0)
        assert not second.outputs.flags.writeable

    def test_partial_hits_mix_rows_correctly(self, zoo):
        # same batch width on both serves: the exact digest is honest
        # about BLAS width reassociation, so only same-width replays are
        # guaranteed to re-derive the same activation bits
        net = zoo["pos"]
        plan = ExecutionPlan(net, 8)
        cache = LayerCache(plan, max_entries=64)
        warm = batch_for(net, 4)
        with plan.lock:
            np.copyto(plan.input_view(4), warm)
            warmed = cache.serve(4)
        cold = batch_for(net, 2, seed=TEST_SEED + 5)
        mixed = np.concatenate([warm[:1], cold, warm[3:]], axis=0)
        with plan.lock:
            np.copyto(plan.input_view(4), mixed)
            served = cache.serve(4)
        assert (served.hits, served.misses) == (2, 2)
        # hit rows are byte-equal to the serve that inserted them
        assert served.outputs[0].tobytes() == warmed.outputs[0].tobytes()
        assert served.outputs[3].tobytes() == warmed.outputs[3].tobytes()
        # miss rows match the net (the suffix ran at the miss width)
        np.testing.assert_allclose(served.outputs[1:3], net.forward(cold),
                                   rtol=1e-5, atol=1e-6)

    def test_forced_collision_degrades_to_counted_miss(self, zoo):
        """A deliberately constant digest makes every key collide; the
        verified probe must refuse the entry and still answer right."""
        net = zoo["pos"]
        plan = ExecutionPlan(net, 4)
        cache = LayerCache(plan, max_entries=8,
                           digest=lambda data: b"constant")
        a = batch_for(net, 2)
        b = batch_for(net, 2, seed=TEST_SEED + 9)
        with plan.lock:
            np.copyto(plan.input_view(2), a)
            cache.serve(2)
            np.copyto(plan.input_view(2), b)
            served = cache.serve(2)
        assert served.hits == 0
        assert served.collisions >= 1
        assert served.misses == 2
        np.testing.assert_array_equal(served.outputs, net.forward(b))

    def test_entry_cap_and_eviction_counters(self, zoo):
        net = zoo["pos"]
        plan = ExecutionPlan(net, 4)
        cache = LayerCache(plan, max_entries=2)
        for i in range(5):
            x = batch_for(net, 1, seed=TEST_SEED + 20 + i)
            with plan.lock:
                np.copyto(plan.input_view(1), x)
                cache.serve(1)
            assert len(cache) <= 2
        assert cache.stats()["evictions"] == 3

    def test_unsafe_split_and_planless_nets_are_rejected(self, zoo):
        plan = ExecutionPlan(zoo["pos"], 4)
        unsafe = [k for k in range(len(plan._steps))
                  if k not in plan.safe_splits()]
        if unsafe:
            with pytest.raises(PlanError):
                LayerCache(plan, split=unsafe[0])
        with pytest.raises(PlanError):
            LayerCache(plan, split=len(plan._steps) + 3)

    def test_concurrent_probe_insert_thread_safe(self, zoo):
        plan = ExecutionPlan(zoo["pos"], 4)
        cache = LayerCache(plan, max_entries=8)
        acts = [np.full((16,), float(i), dtype=np.float32)
                for i in range(16)]
        outs = [np.full((4,), float(i), dtype=np.float32)
                for i in range(16)]
        probes_per_thread, threads_n = 300, 8
        errors = []

        def worker(tid):
            try:
                for i in range(probes_per_thread):
                    which = (tid + i) % 16
                    key = cache.digest(acts[which])
                    got = cache.probe(key, acts[which])
                    if got is None:
                        cache.insert(key, acts[which], outs[which])
                    else:
                        np.testing.assert_array_equal(got, outs[which])
                    assert len(cache) <= 8
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == \
            probes_per_thread * threads_n
        assert stats["entries"] <= 8

    @settings(**SETTINGS)
    @given(
        jitter=st.floats(0.0, 0.02, allow_nan=False),
        tolerance=st.sampled_from([0.0, 0.05, 0.25]),
        seed=st.integers(0, 1000),
    )
    def test_near_duplicates_respect_fidelity_threshold(self, jitter,
                                                        tolerance, seed):
        """Whatever the digest decides for a near-duplicate, fidelity
        stays inside the configured tolerance: a hit's activation
        distance never exceeds it, lossless mode never hits on changed
        bytes, and outputs are either byte-replays or fresh suffixes."""
        net = _near_dup_state["net"]
        plan = _near_dup_state["plan"]
        cache = LayerCache(plan, max_entries=8, tolerance=tolerance)
        base = batch_for(net, 1, seed=TEST_SEED + 77)
        near = jitter_duplicate(base, index=1, seed=seed, jitter=jitter)
        with plan.lock:
            np.copyto(plan.input_view(1), base)
            first = cache.serve(1)
            np.copyto(plan.input_view(1), near)
            second = cache.serve(1)
        assert second.hits + second.misses == 1
        assert second.fidelity_max <= tolerance
        if second.hits:
            # a hit replays the inserted row byte-for-byte
            assert second.outputs.tobytes() == first.outputs.tobytes()
        else:
            np.testing.assert_allclose(second.outputs, net.forward(near),
                                       rtol=1e-5, atol=1e-6)
        # a jitter below float32 resolution can change input bytes yet leave
        # every activation identical — a legitimate lossless hit; identity
        # is only blurred when an input that *answers* differently hits
        if tolerance == 0.0 and not np.array_equal(net.forward(near),
                                                   net.forward(base)):
            assert second.hits == 0  # lossless mode never blurs identity


#: hypothesis redraws examples inside one test call, so the expensive
#: plan is built once at import, not per example
_near_dup_state = {}


def _build_near_dup_state():
    net = build_net("pos", materialize=True)
    _near_dup_state["net"] = net
    _near_dup_state["plan"] = ExecutionPlan(net, 2)


_build_near_dup_state()


# ============================================== executor / server wiring
class TestExecutorLayerCache:
    @pytest.fixture()
    def registry(self, zoo):
        reg = ModelRegistry()
        reg.register("pos", zoo["pos"])
        return reg

    def test_served_through_batching_executor_byte_identical(self, registry,
                                                             zoo):
        reference = DjinnServer(registry, port=0,
                                batching=BatchPolicy(max_batch=4,
                                                     timeout_ms=1.0))
        cached = DjinnServer(registry, port=0,
                             batching=BatchPolicy(max_batch=4,
                                                  timeout_ms=1.0),
                             layer_cache=LayerCacheConfig(max_entries=64))
        reference.start()
        cached.start()
        try:
            x = batch_for(zoo["pos"], 2)
            with DjinnClient(*reference.address) as ref_cli, \
                    DjinnClient(*cached.address) as hot_cli:
                want = ref_cli.infer("pos", x)
                cold = hot_cli.infer("pos", x)
                warm = hot_cli.infer("pos", x)
            assert cold.tobytes() == want.tobytes()
            assert warm.tobytes() == want.tobytes()
            dump = cached.metrics.dump()["metrics"]
            # the counter family exists and recorded both outcomes
            events = str(dump["djinn_layer_cache_events_total"])
            assert "hit" in events and "miss" in events
            ref_dump = reference.metrics.dump()["metrics"]
            assert not any(name.startswith("djinn_layer_cache")
                           for name in ref_dump)
        finally:
            cached.stop()
            reference.stop()

    def test_layer_cache_requires_batching(self, registry):
        with pytest.raises(ValueError):
            DjinnServer(registry, port=0,
                        layer_cache=LayerCacheConfig())

    def test_engine_cache_span_emitted_for_traced_requests(self, registry,
                                                           zoo):
        tracer = Tracer(enabled=True)
        server = DjinnServer(registry, port=0,
                             batching=BatchPolicy(max_batch=4,
                                                  timeout_ms=1.0),
                             layer_cache=LayerCacheConfig(),
                             tracer=tracer)
        server.start()
        try:
            with DjinnClient(*server.address, tracer=tracer) as cli:
                x = batch_for(zoo["pos"], 1)
                cli.infer("pos", x)
                cli.infer("pos", x)
        finally:
            server.stop()
        probes = [s for s in tracer.spans() if s.name == "engine.cache"]
        assert probes, "traced cached request must emit an engine.cache span"
        assert all(s.end_s is not None for s in probes)


# ===================================================== shared duplication
class TestDuplicationUnified:
    def test_plan_is_deterministic_and_bounded(self):
        plan = plan_duplicates(64, 0.5, TEST_SEED)
        assert plan == plan_duplicates(64, 0.5, TEST_SEED)
        assert 0 not in plan                     # item 0 never duplicates
        assert all(0 <= src < idx for idx, src in plan.items())
        assert plan_duplicates(64, 0.0, TEST_SEED) == {}
        assert plan_duplicates(1, 1.0, TEST_SEED) == {}
        assert all(idx in plan_duplicates(64, 1.0, TEST_SEED)
                   for idx in range(1, 64))

    def test_loadgen_and_dataset_surfaces_draw_identical_streams(self):
        """Regression pin for the unification: a request stream's per-index
        input_for() composition and the dataset surface's
        apply_duplicates() must produce the same stream per seed."""
        count, dup_frac, seed, jitter = 40, 0.4, TEST_SEED, 0.01
        gen = np.random.default_rng(3)
        items = gen.standard_normal((count, 5)).astype(np.float32)

        # the per-request composition: plan once, jitter each replay by index
        dup_of = plan_duplicates(count, dup_frac, seed)

        def input_for(i):
            src = dup_of.get(i)
            if src is None:
                return items[i]
            return jitter_duplicate(items[src], i, seed, jitter)

        loadgen_stream = np.stack([input_for(i) for i in range(count)])
        # the dataset composition (repro.tonic.datasets.with_duplicates)
        dataset_stream = apply_duplicates(items, dup_frac=dup_frac,
                                          seed=seed, jitter=jitter)
        np.testing.assert_array_equal(loadgen_stream, dataset_stream)
        assert dup_of, "chosen (count, dup_frac, seed) must exercise dups"

    def test_zero_jitter_duplicates_are_byte_identical(self):
        gen = np.random.default_rng(4)
        items = gen.standard_normal((32, 3)).astype(np.float32)
        out = apply_duplicates(items, dup_frac=0.6, seed=TEST_SEED,
                               jitter=0.0)
        plan = plan_duplicates(32, 0.6, TEST_SEED)
        assert plan
        for idx, src in plan.items():
            assert out[idx].tobytes() == items[src].tobytes()

    def test_duplicate_sources_are_originals_not_jittered_copies(self):
        """A duplicate of a duplicate replays the pristine item: noise
        must not accumulate along duplication chains."""
        items = np.zeros((48, 4), dtype=np.float32)
        out = apply_duplicates(items, dup_frac=1.0, seed=TEST_SEED,
                               jitter=0.05)
        plan = plan_duplicates(48, 1.0, TEST_SEED)
        for idx, src in plan.items():
            expected = jitter_duplicate(items[src], idx, TEST_SEED, 0.05)
            np.testing.assert_array_equal(out[idx], expected)

    def test_labels_ride_along_with_their_sources(self):
        gen = np.random.default_rng(5)
        items = gen.standard_normal((32, 3)).astype(np.float32)
        labels = np.arange(32, dtype=np.int64)
        out, out_labels = apply_duplicates(items, labels, dup_frac=0.5,
                                           seed=TEST_SEED, jitter=0.0)
        plan = plan_duplicates(32, 0.5, TEST_SEED)
        for idx in range(32):
            assert out_labels[idx] == labels[plan.get(idx, idx)]

    def test_dup_frac_validation_is_shared(self):
        with pytest.raises(ValueError):
            plan_duplicates(8, -0.1, 0)
        with pytest.raises(ValueError):
            plan_duplicates(8, 1.5, 0)
