"""Gateway tests: routing policies, fault tolerance, the per-request ledger,
response-cache hit replay."""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    DjinnClient,
    DjinnConnectionError,
    DjinnServer,
    DjinnServiceError,
    ModelRegistry,
)
from repro.gateway import (
    BackendHandle,
    ClusterLauncher,
    GatewayServer,
    HealthChecker,
    BackendPool,
    RetryPolicy,
    Router,
    rendezvous_score,
)
from repro.core.protocol import Message, MessageType
from repro.core.server import TcpServiceBase
from repro.core.stats import RequestLedger, summarize
from repro.obs import MetricsRegistry, merge_dumps, parse_exposition
from repro.models import lenet5, senna


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register_spec("dig", lenet5(), seed=0)
    reg.register_spec("pos", senna("pos"), seed=1)
    return reg


def make_handles(n, models=("dig", "pos")):
    handles = [BackendHandle("127.0.0.1", 9000 + i) for i in range(n)]
    for handle in handles:
        handle.mark_up(models)
    return handles


class FakePool:
    """A BackendPool stand-in for policy unit tests (no sockets)."""

    def __init__(self, handles):
        self.backends = handles

    def healthy(self):
        return [b for b in self.backends if b.healthy]

    def __iter__(self):
        return iter(self.backends)


class TestRoutingPolicies:
    def test_round_robin_cycles(self):
        handles = make_handles(3)
        router = Router(FakePool(handles), policy="round_robin")
        first = [router.route("dig")[0].key for _ in range(6)]
        assert first == [h.key for h in handles] * 2

    def test_round_robin_skips_unhealthy(self):
        handles = make_handles(3)
        handles[1].mark_down()
        router = Router(FakePool(handles), policy="round_robin")
        chosen = {router.route("dig")[0].key for _ in range(4)}
        assert handles[1].key not in chosen
        assert chosen == {handles[0].key, handles[2].key}

    def test_least_outstanding_picks_idle_backend(self):
        handles = make_handles(3)
        handles[0]._outstanding = 5
        handles[1]._outstanding = 1
        handles[2]._outstanding = 3
        router = Router(FakePool(handles), policy="least_outstanding")
        assert [b.key for b in router.route("dig")] == [
            handles[1].key, handles[2].key, handles[0].key]

    def test_model_affinity_is_stable_and_spreads_models(self):
        handles = make_handles(5, models=())
        router = Router(FakePool(handles), policy="model_affinity")
        # same model always lands on the same backend while the fleet is stable
        assert len({router.route("dig")[0].key for _ in range(10)}) == 1
        # ...and different models spread over more than one backend
        firsts = {router.route(m)[0].key for m in ("dig", "pos", "chk", "ner", "imc", "asr")}
        assert len(firsts) > 1

    def test_model_affinity_prefers_hot_backends(self):
        handles = make_handles(4, models=())
        # exactly one backend reports the model loaded; it must win over hashing
        cold = sorted(handles, key=lambda b: -rendezvous_score("dig", b.key))
        hot = cold[-1]  # worst hash rank, but it has the model hot
        hot.mark_up(("dig",))
        router = Router(FakePool(handles), policy="model_affinity")
        assert router.route("dig")[0].key == hot.key

    def test_model_affinity_fails_over_on_mark_down(self):
        handles = make_handles(4, models=())
        router = Router(FakePool(handles), policy="model_affinity")
        primary = router.route("dig")[0]
        primary.mark_down()
        fallback = router.route("dig")[0]
        assert fallback.key != primary.key
        # recovery restores the original preference
        primary.mark_up()
        assert router.route("dig")[0].key == primary.key

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            Router(FakePool(make_handles(1)), policy="random")

    def test_empty_route_when_all_down(self):
        handles = make_handles(2)
        for handle in handles:
            handle.mark_down()
        router = Router(FakePool(handles), policy="round_robin")
        assert router.route("dig") == []


class TestRetryPolicy:
    def test_delays_grow_and_cap(self, py_rng):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.01, max_delay_s=0.05,
                             jitter_frac=0.0)
        delays = [policy.delay_s(k, py_rng) for k in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_stays_in_band(self, py_rng):
        policy = RetryPolicy(base_delay_s=0.02, jitter_frac=0.5)
        rng = py_rng
        for attempt in range(4):
            cap = min(0.02 * 2 ** attempt, policy.max_delay_s)
            for _ in range(50):
                d = policy.delay_s(attempt, rng)
                assert cap * 0.5 <= d <= cap

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.5)


def ledger_dump(model, latencies, inputs=1):
    """A backend registry dump holding one ledger's records."""
    metrics = MetricsRegistry()
    ledger = RequestLedger(metrics)
    for latency in latencies:
        ledger.record(model, latency, inputs=inputs)
    return metrics.dump()


class TestMergeStats:
    """Fleet stats: the summary of bucket-merged backend dumps."""

    def test_counts_sum_and_means_weight(self):
        a = ledger_dump("pos", [0.010] * 3, inputs=2)
        b = ledger_dump("pos", [0.050], inputs=2)
        merged = summarize(merge_dumps([a, b]))["pos"]
        assert merged["requests"] == 4.0
        assert merged["inputs"] == 8.0
        assert merged["mean_ms"] == pytest.approx(20.0)  # (3*10 + 1*50) / 4
        assert 10.0 <= merged["p50_ms"] <= 12.8  # inside the 10 ms bucket
        assert merged["p99_ms"] <= merged["max_ms"] == pytest.approx(50.0)

    def test_disjoint_models_pass_through(self):
        merged = summarize(merge_dumps([ledger_dump("dig", [0.001] * 2),
                                        ledger_dump("pos", [0.003] * 5)]))
        assert merged["dig"]["requests"] == 2.0
        assert merged["pos"]["mean_ms"] == pytest.approx(3.0)

    def test_zero_request_snapshot_does_not_divide_by_zero(self):
        metrics = MetricsRegistry()
        RequestLedger(metrics).latency["dig"]  # bound, nothing recorded
        assert summarize(metrics.dump()) == {}


@pytest.fixture
def fleet(registry):
    """Three live backends behind a gateway, fast health checking."""
    with ClusterLauncher(registry, backends=3) as cluster:
        gateway = GatewayServer(
            cluster.addresses, policy="round_robin",
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=0.05),
            health_interval_s=0.2, backend_timeout_s=5.0,
        )
        with gateway:
            yield cluster, gateway


class TestGatewayService:
    def test_list_models_is_fleet_union(self, fleet):
        _, gateway = fleet
        with DjinnClient(*gateway.address) as cli:
            assert cli.list_models() == ["dig", "pos"]

    def test_infer_matches_local_forward(self, fleet, registry, rng):
        _, gateway = fleet
        x = rng.normal(size=(4, 1, 32, 32)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            np.testing.assert_allclose(
                cli.infer("dig", x), registry.get("dig").forward(x), rtol=1e-5)

    def test_accepted_sockets_disable_nagle(self, fleet, rng):
        """Both services set TCP_NODELAY on the sockets they accept (the
        dialing side always did)."""
        import socket

        cluster, gateway = fleet
        with DjinnClient(*gateway.address) as cli:
            cli.infer("pos", rng.normal(size=(1, 300)).astype(np.float32))
            accepted = []
            for service in (gateway, *cluster.servers):
                with service._conns_lock:
                    accepted.extend(service._conns)
            # the client's connection at the gateway + >= 1 pooled backend one
            assert len(accepted) >= 2
            for conn in accepted:
                assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_round_robin_spreads_load_across_backends(self, fleet, rng):
        cluster, gateway = fleet
        x = rng.normal(size=(1, 300)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            for _ in range(6):
                cli.infer("pos", x)
        served = [srv.ledger.requests["pos"].value for srv in cluster.servers]
        assert sum(served) == 6
        assert all(count == 2 for count in served)

    def test_stats_aggregate_across_fleet(self, fleet, rng):
        cluster, gateway = fleet
        x = rng.normal(size=(2, 300)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            for _ in range(5):
                cli.infer("pos", x)
            stats = cli.stats()
        assert stats["pos"]["requests"] == 5.0
        assert stats["pos"]["inputs"] == 10.0
        # round-robin touched everyone, and the summary is their sum
        assert all(srv.ledger.requests["pos"].value for srv in cluster.servers)
        assert stats["pos"]["p95_ms"] >= 0.0
        # the gateway's own end-to-end accounting rides along
        assert stats["gateway:pos"]["requests"] == 5.0

    def test_model_error_not_retried(self, fleet, rng):
        cluster, gateway = fleet
        with DjinnClient(*gateway.address) as cli:
            with pytest.raises(DjinnServiceError, match="not loaded"):
                cli.infer("asr", np.zeros((1, 440), np.float32))
        # a model-level error burns one backend attempt, not the whole budget
        assert sum(srv.ledger.requests["asr"].value
                   for srv in cluster.servers) == 0

    def test_killed_backend_marked_down_and_requests_survive(self, fleet, rng):
        cluster, gateway = fleet
        x = rng.normal(size=(1, 300)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            for _ in range(3):  # warm pooled connections to every backend
                cli.infer("pos", x)
            dead_host, dead_port = cluster.kill_backend(0)
            # every request after the kill must still succeed (retry on survivors)
            for _ in range(6):
                assert cli.infer("pos", x).shape == (1, 45)
        dead_key = f"{dead_host}:{dead_port}"
        assert dead_key not in {b.key for b in gateway.pool.healthy()}
        backend = gateway.pool.get(dead_key)
        assert backend is not None and not backend.healthy

    def test_kill_mid_run_under_concurrent_load(self, registry, rng):
        """The acceptance scenario: a backend dies mid-run, no client errors.

        Backends are device-paced (5 ms/request) so the run provably spans
        the kill — without pacing the whole load can drain before the kill
        lands and nothing would be exercised.
        """
        x = rng.normal(size=(1, 300)).astype(np.float32)
        errors = []
        done = []
        with ClusterLauncher(registry, backends=3, service_floor_s=0.005) as cluster:
            gateway = GatewayServer(
                cluster.addresses, policy="round_robin",
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=0.05),
                health_interval_s=0.2, backend_timeout_s=5.0,
            )
            with gateway:

                def client_loop(n):
                    try:
                        with DjinnClient(*gateway.address) as cli:
                            for _ in range(n):
                                out = cli.infer("pos", x)
                                assert out.shape == (1, 45)
                                done.append(1)
                    except Exception as exc:  # noqa: BLE001 - recorded for the assert
                        errors.append(exc)

                threads = [threading.Thread(target=client_loop, args=(15,))
                           for _ in range(3)]
                for t in threads:
                    t.start()
                time.sleep(0.05)  # let the run get going, then yank a backend
                dead_host, dead_port = cluster.kill_backend(1)
                for t in threads:
                    t.join(timeout=30)
                assert not errors
                assert sum(done) == 45
                # the run outlived the kill, so some request hit the dead
                # backend and was retried — which is what marked it down
                backend = gateway.pool.get(f"{dead_host}:{dead_port}")
                assert backend is not None and not backend.healthy

    def test_all_backends_down_surfaces_service_error(self, registry, rng):
        with ClusterLauncher(registry, backends=2) as cluster:
            gateway = GatewayServer(
                cluster.addresses,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02),
                health_interval_s=5.0,  # keep the prober out of the way
            )
            with gateway:
                with DjinnClient(*gateway.address) as cli:
                    cluster.kill_backend(0)
                    cluster.kill_backend(1)
                    with pytest.raises(DjinnServiceError, match="failed after 2 attempts"):
                        cli.infer("pos", rng.normal(size=(1, 300)).astype(np.float32))


class TestHealthChecker:
    def test_probe_marks_down_then_up_again(self, registry):
        server = DjinnServer(registry).start()
        host, port = server.address
        pool = BackendPool([(host, port)], timeout_s=2.0)
        checker = HealthChecker(pool, interval_s=0.1, probe_timeout_s=2.0)
        backend = pool.backends[0]
        assert checker.probe(backend)
        assert backend.models == ("dig", "pos")
        server.stop()
        assert not checker.probe(backend)
        assert not backend.healthy
        # a replacement instance on the same port brings it back
        server2 = DjinnServer(registry, host=host, port=port).start()
        try:
            assert checker.probe(backend)
            assert backend.healthy
        finally:
            server2.stop()
            pool.close()

    def test_background_prober_recovers_fleet_state(self, registry):
        server = DjinnServer(registry).start()
        host, port = server.address
        pool = BackendPool([(host, port)], timeout_s=2.0)
        checker = HealthChecker(pool, interval_s=0.05, probe_timeout_s=2.0).start()
        try:
            server.stop()
            deadline = time.time() + 5
            while pool.backends[0].healthy and time.time() < deadline:
                time.sleep(0.02)
            assert not pool.backends[0].healthy
        finally:
            checker.stop()
            pool.close()


class TestClusterLauncher:
    def test_registry_factory_builds_per_backend(self):
        built = []

        def factory(index):
            reg = ModelRegistry()
            reg.register_spec("pos", senna("pos"), seed=index)
            built.append(index)
            return reg

        with ClusterLauncher(factory, backends=2) as cluster:
            assert built == [0, 1]
            assert len(cluster.addresses) == 2

    def test_validation_and_double_start(self, registry):
        with pytest.raises(ValueError, match="at least one backend"):
            ClusterLauncher(registry, backends=0)
        cluster = ClusterLauncher(registry, backends=1).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                cluster.start()
        finally:
            cluster.stop()


class TestClientReconnect:
    def test_reconnect_after_server_restart(self, registry, rng):
        server = DjinnServer(registry).start()
        host, port = server.address
        client = DjinnClient(host, port, timeout_s=5.0)
        x = rng.normal(size=(1, 300)).astype(np.float32)
        assert client.infer("pos", x).shape == (1, 45)
        server.stop()
        with pytest.raises(DjinnConnectionError):
            client.infer("pos", x)
        # reconnect with nothing listening fails too — and drops the dead
        # socket, releasing the port for the replacement instance
        with pytest.raises(DjinnConnectionError):
            client.reconnect()
        time.sleep(0.05)
        server2 = DjinnServer(registry, host=host, port=port).start()
        try:
            client.reconnect()
            assert client.infer("pos", x).shape == (1, 45)
        finally:
            client.close()
            server2.stop()

    def test_connection_error_is_both_service_error_and_oserror(self):
        import socket as _socket

        with _socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(DjinnServiceError):
            DjinnClient("127.0.0.1", free_port, timeout_s=0.5)
        with pytest.raises(OSError):
            DjinnClient("127.0.0.1", free_port, timeout_s=0.5)


class TestServiceStatsExtensions:
    def test_snapshot_has_p95_and_qps(self):
        metrics = MetricsRegistry()
        ledger = RequestLedger(metrics)
        for _ in range(20):
            ledger.record("pos", 0.01)
        snap = summarize(metrics.dump())["pos"]
        assert snap["p95_ms"] == pytest.approx(10.0)
        assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"]

    def test_single_sample_reads_as_every_quantile(self):
        snap = summarize(ledger_dump("dig", [0.005]))["dig"]
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert snap[key] == pytest.approx(5.0), key


class TestServiceStatsObservability:
    def test_snapshot_has_max_and_window(self):
        metrics = MetricsRegistry()
        ledger = RequestLedger(metrics)
        for latency in (0.001, 0.040, 0.002):
            ledger.record("dig", latency)
        assert summarize(metrics.dump())["dig"]["max_ms"] == pytest.approx(40.0)
        for _ in range(6):
            ledger.record("dig", 0.001)
        snap = summarize(metrics.dump())["dig"]
        assert snap["requests"] == 9.0
        assert snap["max_ms"] == pytest.approx(40.0)  # all-time

    def test_stats_surface_in_metrics_registry(self):
        """The ledger's families are what METRICS exposes."""
        metrics = MetricsRegistry()
        ledger = RequestLedger(metrics)
        for _ in range(3):
            ledger.record("dig", 0.004, inputs=2)
        samples = parse_exposition(metrics.expose())
        key = (("model", "dig"),)
        assert samples["djinn_requests_total"][key] == 3
        assert samples["djinn_inputs_total"][key] == 6
        assert samples["djinn_request_latency_seconds_count"][key] == 3


class TestMergeStatsObservability:
    def test_max_and_window_merge(self):
        a = ledger_dump("pos", [0.005, 0.011])
        b = ledger_dump("pos", [0.005, 0.005, 0.040])
        merged = summarize(merge_dumps([a, b]))["pos"]
        assert merged["max_ms"] == pytest.approx(40.0)  # fleet max, not a sum
        assert merged["requests"] == 5.0


class TestGatewayObservability:
    def test_metrics_request_aggregates_fleet(self, fleet, rng):
        from repro.obs import parse_exposition

        _, gateway = fleet
        x = rng.normal(size=(1, 300)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            for _ in range(6):
                cli.infer("pos", x)
            dump = cli.metrics()
            text = cli.metrics_text()
        # backend request counters merge across the 3 replicas
        samples = dump["metrics"]["djinn_requests_total"]["samples"]
        assert sum(s["value"] for s in samples
                   if s["labels"]["model"] == "pos") == 6.0
        # the gateway's own accounting rides along under its prefix
        gw = dump["metrics"]["gateway_requests_total"]["samples"]
        assert sum(s["value"] for s in gw
                   if s["labels"]["model"] == "pos") == 6.0
        # latency histograms merged bucket-wise
        (hist,) = [s for s in
                   dump["metrics"]["djinn_request_latency_seconds"]["samples"]
                   if s["labels"]["model"] == "pos"]
        assert hist["count"] == 6
        # and the rendered exposition is strictly parseable
        parsed = parse_exposition(text)
        assert parsed["djinn_requests_total"][(("model", "pos"),)] == 6.0

    def test_backend_death_increments_transition_counter(self, fleet, caplog):
        import logging as _logging

        cluster, gateway = fleet
        dead = cluster.kill_backend(0)
        handle = next(b for b in gateway.pool if b.key == f"{dead[0]}:{dead[1]}")
        with caplog.at_level(_logging.INFO, logger="repro.gateway"):
            gateway.health.probe(handle)
        counter = gateway.metrics.get("gateway_backend_transitions_total")
        assert counter.labels(backend=handle.key, event="mark_down").value == 1.0
        assert any("event=backend.mark_down" in r.getMessage()
                   and f"backend={handle.key}" in r.getMessage()
                   for r in caplog.records)
        # a second failed probe is not a transition — no double counting
        gateway.health.probe(handle)
        assert counter.labels(backend=handle.key, event="mark_down").value == 1.0

    def test_mark_up_transition_counted(self, registry):
        with ClusterLauncher(registry, backends=1) as cluster:
            gateway = GatewayServer(cluster.addresses, health_interval_s=30.0)
            with gateway:
                (handle,) = list(gateway.pool)
                handle.mark_down()
                gateway.health.probe(handle)  # backend is alive -> back up
                counter = gateway.metrics.get("gateway_backend_transitions_total")
                assert counter.labels(backend=handle.key,
                                      event="mark_up").value == 1.0

    def test_retry_and_exhausted_counters(self, caplog):
        import logging as _logging
        import socket as _socket

        # reserve a port that nothing listens on
        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        gateway = GatewayServer(
            [dead], retry=RetryPolicy(max_attempts=3, base_delay_s=0.001,
                                      max_delay_s=0.002),
            health_interval_s=30.0)
        with gateway:
            with caplog.at_level(_logging.WARNING, logger="repro.gateway"):
                with DjinnClient(*gateway.address) as cli:
                    with pytest.raises(DjinnServiceError, match="failed after"):
                        cli.infer("pos", np.zeros((1, 300), np.float32))
            retries = gateway.metrics.get("gateway_retries_total")
            exhausted = gateway.metrics.get("gateway_retry_exhausted_total")
            assert retries.labels(model="pos").value == 2.0  # attempts 2 and 3
            assert exhausted.labels(model="pos").value == 1.0
            messages = [r.getMessage() for r in caplog.records]
            assert any(m.startswith("event=retry ") for m in messages)
            assert any(m.startswith("event=retry.exhausted") for m in messages)


# ------------------------------------------------------------- gateway QoS
class TestGatewayQos:
    """Admission control, deadline gating, and hedged requests."""

    @pytest.fixture
    def qos_fleet(self, registry):
        """Two sched-armed backends behind a QoS-armed gateway."""
        from repro.core import BatchPolicy
        from repro.sched import QosConfig

        with ClusterLauncher(registry, backends=2,
                             batching=BatchPolicy(max_batch=4, timeout_ms=1.0),
                             sched="adaptive") as cluster:
            gateway = GatewayServer(
                cluster.addresses, policy="round_robin",
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                                  max_delay_s=0.05),
                health_interval_s=0.5,
                # tenant_qps deliberately tiny: the throttle test relies on
                # the spent burst token NOT refilling between two
                # back-to-back requests, even on a slow loaded host
                qos=QosConfig(admission=True, tenant_qps=0.5,
                              tenant_burst=1.0, hedge_ms=60.0),
            )
            with gateway:
                yield cluster, gateway

    def test_qos_request_served_end_to_end(self, qos_fleet, registry, rng):
        _, gateway = qos_fleet
        x = rng.normal(size=(2, 1, 32, 32)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            out = cli.infer("dig", x, deadline_ms=5000.0, priority=2)
            np.testing.assert_allclose(out, registry.get("dig").forward(x),
                                       rtol=1e-5)

    def test_dead_on_arrival_deadline_is_typed(self, qos_fleet, rng):
        from repro.core import DjinnDeadlineError

        _, gateway = qos_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            with pytest.raises(DjinnDeadlineError, match="deadline exceeded"):
                cli.infer("dig", x, deadline_ms=0.0001)
            # the rejection is accounted, and the connection still works
            assert cli.infer("dig", x, deadline_ms=5000.0).shape == (1, 10)
        expired = gateway.metrics.get("gateway_expired_total")
        assert expired.labels(model="dig").value == 1.0

    def test_tenant_throttle_sheds_with_retry_hint(self, qos_fleet, rng):
        from repro.core import DjinnOverloadedError

        _, gateway = qos_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            assert cli.infer("dig", x, tenant="greedy").shape == (1, 10)
            with pytest.raises(DjinnOverloadedError) as excinfo:
                cli.infer("dig", x, tenant="greedy")  # burst of 1 is spent
            assert excinfo.value.reason == "tenant_throttle"
            assert excinfo.value.retry_after_ms > 0.0
            # other tenants are unaffected
            assert cli.infer("dig", x, tenant="polite").shape == (1, 10)
        shed = gateway.metrics.get("gateway_admission_rejected_total")
        assert shed.labels(model="dig", reason="tenant_throttle").value == 1.0

    def test_injected_admission_reject_is_typed(self, qos_fleet, rng):
        from repro.core import DjinnOverloadedError, faultsite
        from repro.faults import FaultInjector, FaultPlan, FaultRule

        _, gateway = qos_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        plan = FaultPlan(rules=(FaultRule("sched.admit", "reject",
                                          scope="dig", nth=(1,)),), seed=0)
        with DjinnClient(*gateway.address) as cli:
            faultsite.install(FaultInjector(plan))
            try:
                with pytest.raises(DjinnOverloadedError) as excinfo:
                    cli.infer("dig", x)
            finally:
                faultsite.uninstall()
            assert excinfo.value.reason == "injected"
            assert cli.infer("dig", x).shape == (1, 10)  # rule was one-shot

    def test_hedge_cancels_slow_primary(self, qos_fleet, rng):
        """The tail-latency race: the primary arm is stalled by an injected
        delay, the hedge arm answers from the other backend well before the
        stall clears, and the loser's roundtrip is cancelled first-wins —
        without marking the stalled backend down."""
        from repro.core import faultsite
        from repro.faults import FaultInjector, FaultPlan, FaultRule

        _, gateway = qos_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        plan = FaultPlan(rules=(FaultRule("sched.hedge", "delay",
                                          scope="dig", nth=(1,),
                                          delay_s=1.0),), seed=0)
        with DjinnClient(*gateway.address) as cli:
            faultsite.install(FaultInjector(plan))
            try:
                start = time.monotonic()
                out = cli.infer("dig", x)
                elapsed = time.monotonic() - start
            finally:
                faultsite.uninstall()
            assert out.shape == (1, 10)
            # the hedge (fires at 60 ms) must beat the 1 s primary stall
            assert elapsed < 0.8, f"hedge did not win: {elapsed:.3f}s"
            hedges = gateway.metrics.get("gateway_hedges_total")
            wins = gateway.metrics.get("gateway_hedge_wins_total")
            assert hedges.labels(model="dig").value == 1.0
            assert wins.labels(model="dig", winner="hedge").value == 1.0
            # cancellation is not a backend failure: the fleet stays whole
            assert len(gateway.pool.healthy()) == 2
            assert cli.infer("dig", x).shape == (1, 10)

    def test_qos_off_by_default(self, fleet, rng):
        """Without a QosConfig the gateway has no admission path at all —
        the pre-QoS behavior, bit for bit."""
        _, gateway = fleet
        assert gateway.qos is None
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        with DjinnClient(*gateway.address) as cli:
            assert cli.infer("dig", x).shape == (1, 10)
        assert gateway.metrics.get("gateway_admission_rejected_total") \
            .labels(model="dig", reason="predicted_late").value == 0.0


# ------------------------------------------- one relay for both frame kinds
def _unary_frame(kind, payload, **fields):
    if kind == "app":
        return DjinnClient.app_message("dig", payload, **fields)
    return Message(MessageType.INFER_REQUEST, name="dig", tensor=payload,
                   **fields)


_PAYLOADS = {"infer": np.zeros((1, 1, 32, 32), np.float32),
             "app": np.zeros((1, 28, 28), np.uint8)}


class TestOneTraceTree:
    """An INFER and an APP request leave the same tree behind them: the
    edge client's span is the only root and every backend span descends
    from the gateway's own ``gateway.backend`` hop."""

    @pytest.mark.parametrize("kind", ["infer", "app"])
    def test_backend_spans_descend_from_the_gateway_hop(self, registry, kind):
        from repro.cli import REQUIRED_SPANS
        from repro.core import BatchPolicy
        from repro.obs import coverage, get_tracer

        tracer = get_tracer()  # the fleet's servers trace into the process one
        tracer.clear()
        tracer.enable()
        try:
            with ClusterLauncher(registry, backends=2,
                                 batching=BatchPolicy(4, 1.0)) as cluster:
                with GatewayServer(cluster.addresses) as gateway:
                    with DjinnClient(*gateway.address) as cli:
                        if kind == "app":
                            assert cli.infer_app("dig", _PAYLOADS[kind]) is not None
                        else:
                            assert cli.infer("dig", _PAYLOADS[kind]).shape == (1, 10)
            # the backend closes its container span after it has replied
            deadline = time.monotonic() + 5.0
            while (f"backend.{kind}" not in {s.name for s in tracer.spans()}
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            spans = tracer.spans()
        finally:
            tracer.disable()
            tracer.clear()
        assert len({s.trace_id for s in spans}) == 1
        by_id = {s.span_id: s for s in spans}
        names = [s.name for s in spans]
        roots = [s.name for s in spans if s.parent_id not in by_id]
        assert roots == [f"client.{kind}"]
        # the gateway's pooled hop no longer opens a client span of its own
        assert sum(n.startswith("client.") for n in names) == 1
        (hop,) = [s for s in spans if s.name == "gateway.backend"]
        backend = [s for s in spans if s.name.startswith("backend.")]
        assert f"backend.{kind}" in {s.name for s in backend}
        for span in backend:
            lineage = []
            while span.parent_id in by_id:
                span = by_id[span.parent_id]
                lineage.append(span.name)
            assert "gateway.backend" in lineage, lineage
            assert lineage[-3:] == ["gateway.backend", "gateway.infer",
                                    f"client.{kind}"]
        assert by_id[hop.parent_id].name == "gateway.infer"
        required = {name.replace(".infer", f".{kind}")
                    if name.startswith(("client.", "backend.")) else name
                    for name in REQUIRED_SPANS}
        assert required <= set(names)
        assert coverage(spans) >= 0.95


class _CannedBackend(TcpServiceBase):
    """A backend that answers every unary frame with one canned refusal."""

    def __init__(self, mtype, text):
        super().__init__()
        self.canned = mtype, text
        self._data_plane = dict.fromkeys(
            (MessageType.INFER_REQUEST, MessageType.APP_REQUEST), self._refuse)

    def _refuse(self, conn, request):
        return self._reply(request, self.canned[0], text=self.canned[1])

    def _model_names(self):
        return ["dig"]


class TestTypedRefusalsRelayedVerbatim:
    """Typing happens at the edge client, never mid-path: whatever refusal
    a backend sends reaches the caller as the frame it was — not decoded,
    raised and re-encoded by the gateway — and costs the backend nothing."""

    CANNED = [
        (MessageType.ERROR, "model 'dig' said no: ☃"),
        (MessageType.DEADLINE_EXCEEDED,
         "deadline exceeded for 'dig': request expired in queue "
         "(1.250 ms past deadline)"),
        # key order and spacing no json.dumps of ours would produce
        (MessageType.OVERLOADED,
         '{"retry_after_ms":12.5,  "reason":"tenant_throttle",'
         '"error":"slow down"}'),
    ]

    @pytest.mark.parametrize("kind", ["infer", "app"])
    @pytest.mark.parametrize("mtype,text", CANNED,
                             ids=[t.name for t, _ in CANNED])
    def test_same_frame_as_a_direct_connection(self, kind, mtype, text):
        with _CannedBackend(mtype, text) as backend:
            with GatewayServer([backend.address],
                               health_interval_s=30.0) as gateway:
                frame = _unary_frame(kind, _PAYLOADS[kind], trace_id=7,
                                     span_id=9, deadline_ms=5000.0)
                with DjinnClient(*backend.address) as direct:
                    want = direct.exchange(frame)
                with DjinnClient(*gateway.address) as edge:
                    got = edge.exchange(frame)
                    typed = pytest.raises(DjinnServiceError)
                    with typed as relayed:
                        if kind == "app":
                            edge.infer_app("dig", _PAYLOADS[kind])
                        else:
                            edge.infer("dig", _PAYLOADS[kind])
                assert (got.type, got.text) == (want.type, want.text) == (mtype, text)
                assert (got.trace_id, got.span_id) == (7, 9)
                if mtype == MessageType.OVERLOADED:
                    assert relayed.value.reason == "tenant_throttle"
                    assert relayed.value.retry_after_ms == 12.5
                # a refusal is an answer: no retry burnt, nobody marked down
                assert not gateway.metrics.get("gateway_retries_total").children()
                assert not any(
                    key[1] == "mark_down" for key, _ in gateway.metrics.get(
                        "gateway_backend_transitions_total").children())
                assert [b.key for b in gateway.pool.healthy()] == [
                    "%s:%d" % backend.address]

    @pytest.mark.parametrize("kind", ["infer", "app"])
    def test_live_backend_rejection_reads_the_same_through_the_gateway(
            self, registry, kind):
        bad = (np.zeros((1, 20, 20), np.float32) if kind == "app"
               else np.zeros((1, 1, 30, 30), np.float32))
        with ClusterLauncher(registry, backends=1) as cluster:
            with GatewayServer(cluster.addresses) as gateway:
                with DjinnClient(*cluster.addresses[0]) as direct:
                    want = direct.exchange(_unary_frame(kind, bad))
                with DjinnClient(*gateway.address) as edge:
                    got = edge.exchange(_unary_frame(kind, bad))
                assert want.text and (got.type, got.text) == (want.type, want.text)
                assert not gateway.metrics.get("gateway_retries_total").children()


# ============================================== response-cache hit replay
def _reply_frame(address, request: Message) -> bytes:
    """One raw exchange: the reply frame exactly as the gateway encoded it."""
    import socket

    from repro.core.protocol import encode_message, recv_message, send_message

    with socket.create_connection(address) as sock:
        send_message(sock, request)
        return encode_message(recv_message(sock))


@pytest.fixture
def cached_fleet(registry):
    """One backend behind a gateway with the response cache armed."""
    with ClusterLauncher(registry, backends=1) as cluster:
        with GatewayServer(cluster.addresses, cache_mb=1.0,
                           health_interval_s=30.0) as gateway:
            yield cluster, gateway


class TestCacheHitReplay:
    @staticmethod
    def _request(x, trace=(0, 0)):
        return Message(MessageType.INFER_REQUEST, name="dig", tensor=x,
                       trace_id=trace[0], span_id=trace[1])

    def test_hit_frame_is_the_miss_frame_with_the_callers_trace(
            self, cached_fleet, rng):
        import struct

        _, gateway = cached_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        miss = _reply_frame(gateway.address, self._request(x, (5, 6)))
        hit = _reply_frame(gateway.address, self._request(x, (7, 8)))
        untraced = _reply_frame(gateway.address, self._request(x))
        assert gateway.cache.stats()["hits"] == 2
        assert miss[9:25] == struct.pack("<QQ", 5, 6)
        assert hit[9:25] == struct.pack("<QQ", 7, 8)
        assert untraced[9:25] == bytes(16)
        for frame in (hit, untraced):
            assert (frame[:9], frame[25:]) == (miss[:9], miss[25:])

    def test_hit_never_encodes(self, cached_fleet, rng, monkeypatch):
        """A hit sends the stored frame: with ``encode_message`` broken
        everywhere the gateway's serve path could reach it, the hit is
        still answered."""
        import socket

        import repro.core.server
        import repro.gateway.cache
        import repro.gateway.server
        from repro.core.protocol import encode_message, recv_message

        _, gateway = cached_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        request = encode_message(self._request(x))
        with socket.create_connection(gateway.address) as sock:
            sock.sendall(request)
            want = recv_message(sock)

            def broken(message):
                raise AssertionError("a cache hit encoded a frame")

            for module in (repro.core.server, repro.gateway.cache,
                           repro.gateway.server):
                monkeypatch.setattr(module, "encode_message", broken)
            sock.sendall(request)
            got = recv_message(sock)
        assert got.type == MessageType.INFER_RESPONSE
        assert got.tensor.tobytes() == want.tensor.tobytes()
        assert gateway.cache.stats()["hits"] == 1

    def test_send_fault_site_fires_on_a_hit_as_on_a_miss(
            self, cached_fleet, registry, rng):
        """A ``protocol.send`` truncate rule on INFER_RESPONSE: on a miss
        the backend's reply is event 1 and the gateway's event 2; a hit
        sends only the gateway's.  Firing on 2 and 3 truncates the miss
        and the hit that follows it alike."""
        from repro.faults import FaultPlan, FaultRule

        _, gateway = cached_fleet
        x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        plan = FaultPlan(rules=(FaultRule(
            "protocol.send", "truncate", scope="INFER_RESPONSE",
            nth=(2, 3)),))
        with DjinnClient(*gateway.address) as cli:
            with plan.armed() as injector:
                for _ in range(2):  # the miss, then the hit
                    with pytest.raises(DjinnConnectionError):
                        cli.infer("dig", x)
                assert injector.fires() == {
                    "protocol.send:truncate:INFER_RESPONSE": 2}
                out = cli.infer("dig", x)  # event 4: a clean hit
        np.testing.assert_allclose(out, registry.get("dig").forward(x),
                                   rtol=1e-5)
        assert gateway.cache.stats()["hits"] == 2
        assert gateway.cache.stats()["misses"] == 1

    def test_budget_still_charged_in_payload_bytes(self, registry, rng):
        """At ``cache_mb=0.02`` a dig reply charges its 40 payload bytes,
        not its frame: 20971 // 40 = 524 entries, as before frames were
        kept."""
        budget = int(0.02 * 1024 * 1024)
        with ClusterLauncher(registry, backends=1) as cluster:
            with GatewayServer(cluster.addresses, cache_mb=0.02,
                               health_interval_s=30.0) as gateway:
                xs = rng.normal(size=(530, 1, 1, 32, 32)).astype(np.float32)
                with DjinnClient(*gateway.address) as cli:
                    for x in xs:
                        cli.infer("dig", x)
                stats = gateway.cache.stats()
        assert len(xs) - stats["evictions"] == stats["entries"] \
            == budget // 40 == 524
        assert stats["bytes"] == 524 * 40


# ================================================== one ledger per request
def _ledger_totals(dump, prefix):
    """``(requests, inputs, histogram count)`` of one tier's dig ledger."""
    metrics = dump["metrics"]

    def value(name, field):
        entry = metrics.get(name, {"samples": ()})
        return sum(s[field] for s in entry["samples"]
                   if s["labels"]["model"] == "dig")

    return (value(f"{prefix}_requests_total", "value"),
            value(f"{prefix}_inputs_total", "value"),
            value(f"{prefix}_request_latency_seconds", "count"))


class TestLedgerConservation:
    def test_each_tier_records_what_it_served_once(self, cached_fleet, rng):
        """Hits, misses, APP frames and typed refusals through gateway →
        backend: each tier's request counter, input counter and latency
        histogram move by exactly what that tier answered, and
        ``client.stats()`` reads the same histograms."""
        _, gateway = cached_fleet
        one = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
        two = rng.normal(size=(2, 1, 32, 32)).astype(np.float32)
        raw = (rng.random((1, 28, 28)) * 255).astype(np.uint8)
        with DjinnClient(*gateway.address) as cli:
            before = cli.metrics()
            cli.infer("dig", one)          # miss      gateway 1 / backend 1
            cli.infer("dig", one)          # hit       gateway 1
            cli.infer("dig", two)          # miss      gateway 2 / backend 2
            cli.infer_app("dig", raw)      # APP miss  gateway 1 / backend 1
            cli.infer_app("dig", raw)      # APP hit   gateway 1
            with pytest.raises(DjinnServiceError):   # typed refusal
                cli.infer("dig", np.zeros((1, 1, 30, 30), np.float32))
            after = cli.metrics()
            stats = cli.stats()
        served = {"gateway": (5, 6, 5), "djinn": (3, 4, 3)}
        for prefix, want in served.items():
            delta = tuple(a - b for a, b in zip(_ledger_totals(after, prefix),
                                                _ledger_totals(before, prefix)))
            assert delta == want, prefix
        for key, prefix in (("dig", "djinn"), ("gateway:dig", "gateway")):
            (hist,) = [s for s in after["metrics"][
                f"{prefix}_request_latency_seconds"]["samples"]
                if s["labels"]["model"] == "dig"]
            summary = stats[key]
            assert summary["requests"] == hist["count"]
            assert summary["mean_ms"] == pytest.approx(
                hist["sum"] / hist["count"] * 1e3)
            assert summary["max_ms"] == pytest.approx(hist["max"] * 1e3)
            assert (hist["min"] * 1e3 <= summary["p50_ms"]
                    <= summary["p95_ms"] <= summary["p99_ms"]
                    <= summary["max_ms"])
