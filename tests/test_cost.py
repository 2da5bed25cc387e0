"""Cost-ledger attribution and SLO burn-rate monitoring unit tests.

The ledger tests drive :func:`repro.obs.build_ledger` with hand-built span
trees whose exclusive times are exact by construction, so every assertion
is on a closed-form value — including the adversarial shapes (overlapping
hedge siblings, container residuals, rootless fragments) that a naive
per-span-duration sum gets wrong.  One test then folds the traces of real
requests served by a live ``DjinnServer`` and asks the same of them.
"""

import logging
import statistics

import numpy as np
import pytest

from repro.core import BatchPolicy, DjinnClient, DjinnServer, ModelRegistry
from repro.models import lenet5
from repro.obs import (
    STAGES,
    BurnRateMonitor,
    Span,
    Tracer,
    aggregate_shares,
    build_ledger,
    build_ledgers,
    format_ledger,
    parse_exposition,
    render_exposition,
)


class FakeClock:
    """Hand-driven monotonic clock for deterministic timing tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


_next_span_id = iter(range(1, 1_000_000))


def make_span(name, start, end, trace_id=1, parent_id=0, span_id=None,
              **attrs):
    span = Span(name, "test", trace_id,
                span_id if span_id is not None else next(_next_span_id),
                parent_id, start)
    span.end_s = end
    span.attrs.update(attrs)
    return span


class TestBuildLedger:
    def test_simple_request_fully_attributed(self):
        spans = [
            make_span("client.infer", 0.0, 10.0, span_id=1, parent_id=999,
                      model="dig"),
            make_span("backend.infer", 1.0, 9.0, span_id=2, parent_id=1),
            make_span("backend.queue", 1.0, 3.0, span_id=3, parent_id=2),
            make_span("net.forward", 3.0, 8.0, span_id=4, parent_id=2),
            make_span("backend.respond", 8.0, 9.0, span_id=5, parent_id=2),
        ]
        ledger = build_ledger(spans)
        assert ledger is not None
        assert ledger.model == "dig"
        assert ledger.wall_s == pytest.approx(10.0)
        # root exclusive = [0,1] + [9,10]; container is fully covered
        assert ledger.stages["client.serialize"] == pytest.approx(2.0)
        assert ledger.stages["backend.queue"] == pytest.approx(2.0)
        assert ledger.stages["net.forward"] == pytest.approx(5.0)
        assert ledger.stages["respond"] == pytest.approx(1.0)
        assert ledger.residual_s == pytest.approx(0.0)
        assert ledger.coverage == pytest.approx(1.0)
        assert ledger.span_count == 5

    def test_container_exclusive_time_is_residual(self):
        # backend.infer's own time (request parse, bookkeeping) must land in
        # the residual, not flatter any stage
        spans = [
            make_span("client.infer", 0.0, 10.0, span_id=1),
            make_span("backend.infer", 1.0, 9.0, span_id=2, parent_id=1),
            make_span("net.forward", 2.0, 8.0, span_id=3, parent_id=2),
        ]
        ledger = build_ledger(spans)
        assert ledger.residual_s == pytest.approx(2.0)  # [1,2] + [8,9]
        assert ledger.coverage == pytest.approx(0.8)

    def test_overlapping_siblings_do_not_double_count(self):
        # hedged duplicate arms overlap in wall time; the sweep charges the
        # union, a per-span sum would charge 4+4=8 out of a 6s union
        spans = [
            make_span("client.infer", 0.0, 10.0, span_id=1),
            make_span("gateway.backend", 2.0, 6.0, span_id=2, parent_id=1),
            make_span("gateway.backend", 4.0, 8.0, span_id=3, parent_id=1),
        ]
        ledger = build_ledger(spans)
        assert ledger.stages["gateway.rpc"] == pytest.approx(6.0)
        assert ledger.stages["client.serialize"] == pytest.approx(4.0)
        total = sum(ledger.stages.values()) + ledger.residual_s
        assert total == pytest.approx(ledger.wall_s)

    def test_layer_spans_subdivide_net_forward(self):
        spans = [
            make_span("client.infer", 0.0, 12.0, span_id=1),
            make_span("net.forward", 1.0, 11.0, span_id=2, parent_id=1),
            make_span("layer.conv1", 1.0, 5.0, span_id=3, parent_id=2),
            make_span("layer.fc", 5.0, 9.0, span_id=4, parent_id=2),
        ]
        ledger = build_ledger(spans)
        # layer.* exclusive time still counts as net.forward at stage level
        assert ledger.stages["net.forward"] == pytest.approx(10.0)
        assert ledger.layers == {"conv1": pytest.approx(4.0),
                                 "fc": pytest.approx(4.0)}
        assert sum(ledger.layers.values()) <= ledger.stages["net.forward"]

    def test_batch_scatter_maps_to_assemble(self):
        spans = [
            make_span("client.infer", 0.0, 10.0, span_id=1),
            make_span("batch.assemble", 1.0, 3.0, span_id=2, parent_id=1),
            make_span("batch.scatter", 6.0, 8.0, span_id=3, parent_id=1),
        ]
        ledger = build_ledger(spans)
        assert ledger.stages["batch.assemble"] == pytest.approx(4.0)

    def test_prefers_client_infer_root(self):
        # an orphan fragment (parent never recorded) starts earlier, but the
        # client.infer envelope is still the wall-time anchor
        spans = [
            make_span("backend.infer", 0.0, 5.0, span_id=1, parent_id=777),
            make_span("client.infer", 1.0, 9.0, span_id=2, parent_id=888),
        ]
        ledger = build_ledger(spans)
        assert ledger.wall_s == pytest.approx(8.0)

    def test_no_finished_spans_returns_none(self):
        open_span = Span("client.infer", "test", 1, 1, 0, 0.0)  # end_s None
        assert build_ledger([]) is None
        assert build_ledger([open_span]) is None

    def test_model_found_on_child_span(self):
        spans = [
            make_span("client.infer", 0.0, 4.0, span_id=1),
            make_span("net.forward", 1.0, 3.0, span_id=2, parent_id=1,
                      model="pos"),
        ]
        assert build_ledger(spans).model == "pos"

    def test_shares_include_every_stage_and_sum_to_one(self):
        spans = [
            make_span("client.infer", 0.0, 10.0, span_id=1),
            make_span("backend.infer", 1.0, 9.0, span_id=2, parent_id=1),
            make_span("net.forward", 2.0, 8.0, span_id=3, parent_id=2),
        ]
        shares = build_ledger(spans).shares()
        assert set(shares) == set(STAGES) | {"unattributed"}
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["unattributed"] == pytest.approx(0.2)

    def test_to_dict_round_trips_key_fields(self):
        spans = [make_span("client.infer", 0.0, 2.0, span_id=1, model="dig")]
        out = build_ledger(spans).to_dict()
        assert out["trace_id"] == f"{1:016x}"
        assert out["model"] == "dig"
        assert out["wall_s"] == pytest.approx(2.0)
        assert out["coverage"] == pytest.approx(1.0)
        assert set(out["stages_s"]) == set(STAGES)

    def test_build_ledgers_groups_by_trace(self):
        spans = [
            make_span("client.infer", 0.0, 1.0, trace_id=1, span_id=1),
            make_span("client.infer", 0.0, 3.0, trace_id=2, span_id=2),
        ]
        ledgers = build_ledgers(spans)
        assert sorted(l.trace_id for l in ledgers) == [1, 2]

    def test_aggregate_shares_wall_weighted(self):
        # 1s of pure forward + 3s of pure serialize: the aggregate reads as
        # "share of total serving seconds", so forward = 1/4
        a = build_ledger([
            make_span("client.infer", 0.0, 1.0, trace_id=1, span_id=1),
            make_span("net.forward", 0.0, 1.0, trace_id=1, span_id=2,
                      parent_id=1),
        ])
        b = build_ledger([
            make_span("client.infer", 0.0, 3.0, trace_id=2, span_id=3),
        ])
        shares = aggregate_shares([a, b])
        assert shares["net.forward"] == pytest.approx(0.25)
        assert shares["client.serialize"] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_aggregate_shares_empty(self):
        shares = aggregate_shares([])
        assert sum(shares.values()) == 0.0

    def test_format_ledger_lists_all_stages(self):
        spans = [
            make_span("client.infer", 0.0, 10.0, span_id=1, model="dig"),
            make_span("net.forward", 1.0, 9.0, span_id=2, parent_id=1),
            make_span("layer.conv1", 1.0, 5.0, span_id=3, parent_id=2),
        ]
        text = format_ledger(build_ledger(spans))
        for stage in STAGES:
            assert stage in text
        assert "unattributed" in text
        assert "coverage" in text
        assert "slowest layers" in text


# ------------------------------------------------------ live, served traces
@pytest.fixture(scope="module")
def dig_registry():
    registry = ModelRegistry()
    registry.register_spec("dig", lenet5(), seed=0)
    return registry


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("workers", [None, "proc:2"],
                         ids=["threaded", "proc:2"])
def test_served_traces_fold_into_complete_ledgers(dig_registry, workers,
                                                  batch):
    """Traced DIG requests, tensor and raw-pixel APP frames alike, served
    by a batching ``DjinnServer``: every trace folds into a ledger whose
    stage shares plus residual sum to 1, the instrumentation explains all
    but <= 5 % of the median tensor request, APP requests charge all of
    their server-side Tonic preprocess to ``preprocess``, the latency
    histogram's tail exemplars resolve back to ledgers, and the metrics
    exposition carries the request, stage and latency families."""
    tracer = Tracer(enabled=True)
    gen = np.random.default_rng(batch)
    x = gen.standard_normal((batch, 1, 32, 32)).astype(np.float32)
    pixels = gen.integers(0, 256, size=(batch, 1, 28, 28), dtype=np.uint8)
    server = DjinnServer(dig_registry, tracer=tracer, profile_layers=True,
                         batching=BatchPolicy(max_batch=batch, timeout_ms=2.0),
                         workers=workers)
    with server, DjinnClient(*server.address, tracer=tracer) as client:
        for _ in range(2):  # compile plans, build the app table
            client.infer("dig", x)
            client.infer_app("dig", pixels)
        # the connection serves in order: a METRICS round trip means the
        # last request's spans are closed
        client.metrics()
        tracer.clear()
        for _ in range(8):
            client.infer("dig", x)
            client.infer_app("dig", pixels)
        dump = client.metrics()
    roots = {span.trace_id: span.name for span in tracer.spans()
             if span.name in ("client.infer", "client.app")}
    ledgers = {ledger.trace_id: ledger
               for ledger in build_ledgers(tracer.spans())}
    assert set(ledgers) == set(roots) and len(roots) == 16

    for ledger in ledgers.values():
        assert sum(ledger.shares().values()) == pytest.approx(1.0)
    assert sum(aggregate_shares(list(ledgers.values())).values()) == \
        pytest.approx(1.0)
    tensor = [ledger for tid, ledger in ledgers.items()
              if roots[tid] == "client.infer"]
    app = [ledger for tid, ledger in ledgers.items()
           if roots[tid] == "client.app"]
    residual = statistics.median(l.residual_s / l.wall_s for l in tensor)
    assert residual <= 0.05, f"median unattributed share {residual:.1%}"
    for ledger in app:  # the Tonic kernel's own span, charged in full
        kernel_s = sum(span.end_s - span.start_s
                       for span in tracer.spans(ledger.trace_id)
                       if span.name == "app.preprocess")
        assert 0.0 < kernel_s <= ledger.stages["preprocess"] + 1e-9

    (sample,) = dump["metrics"]["djinn_request_latency_seconds"]["samples"]
    resolved = [build_ledger(tracer.spans(int(label, 16)))
                for _, label in sample["exemplars"]]
    assert any(ledger is not None for ledger in resolved)
    assert {"djinn_requests_total", "djinn_stage_seconds_total",
            "djinn_request_latency_seconds_bucket"} <= \
        set(parse_exposition(render_exposition(dump)))


class TestBurnRateMonitor:
    def _monitor(self, clock, **kwargs):
        kwargs.setdefault("objective", 0.9)
        kwargs.setdefault("windows_s", (60.0, 600.0))
        kwargs.setdefault("threshold", 2.0)
        kwargs.setdefault("bucket_s", 10.0)
        return BurnRateMonitor(clock=clock, **kwargs)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BurnRateMonitor(objective=0.0)
        with pytest.raises(ValueError):
            BurnRateMonitor(objective=1.0)
        with pytest.raises(ValueError):
            BurnRateMonitor(windows_s=())
        with pytest.raises(ValueError):
            BurnRateMonitor(threshold=0.0)

    def test_burn_rate_math(self):
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        for _ in range(95):
            monitor.record("dig", attained=True)
        for _ in range(5):
            monitor.record("dig", attained=False)
        # 5% miss rate against a 10% budget = 0.5x burn, in every window
        assert monitor.burn_rate("dig", 60.0) == pytest.approx(0.5)
        assert monitor.burn_rate("dig", 600.0) == pytest.approx(0.5)
        assert monitor.burn_rate("dig", 60.0) == \
            pytest.approx(monitor.snapshot("dig")["burn_60s"])

    def test_no_traffic_burns_zero(self):
        monitor = self._monitor(FakeClock(1000.0))
        assert monitor.burn_rate("missing", 60.0) == 0.0

    def test_fires_and_resolves(self):
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        monitor.record("dig", attained=True, count=80)
        monitor.record("dig", attained=False, count=20)  # 20% miss = 2.0x
        events = monitor.check()
        assert [e["state"] for e in events] == ["firing"]
        assert events[0]["key"] == "dig"
        assert events[0]["burn_60s"] == pytest.approx(2.0)
        assert monitor.snapshot("dig")["firing"] == 1.0
        # steady state: no transition, no duplicate event
        assert monitor.check() == []
        # recovery traffic dilutes the short window below threshold
        clock.now = 1030.0
        monitor.record("dig", attained=True, count=100)
        events = monitor.check()
        assert [e["state"] for e in events] == ["resolved"]
        assert monitor.snapshot("dig")["firing"] == 0.0

    def test_requires_every_window_over_threshold(self):
        # a burst that torches the short window but is diluted over the hour
        # must NOT fire: the long window proves the problem is sustained
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        monitor.record("dig", attained=True, count=1000)
        clock.now = 1500.0
        monitor.record("dig", attained=False, count=10)
        assert monitor.burn_rate("dig", 60.0) == pytest.approx(10.0)
        assert monitor.burn_rate("dig", 600.0) < 2.0
        assert monitor.check() == []

    def test_old_traffic_ages_out(self):
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        monitor.record("dig", attained=False, count=10)
        clock.now = 1000.0 + 600.0 + 20.0  # past the longest window
        assert monitor.burn_rate("dig", 600.0) == 0.0

    def test_record_totals_deltas(self):
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        monitor.record_totals("dig", attained_total=90.0, total=100.0)
        assert monitor.burn_rate("dig", 60.0) == pytest.approx(1.0)
        monitor.record_totals("dig", attained_total=180.0, total=200.0)
        # second poll adds only the delta: 100 more, 10 more missed
        assert monitor.burn_rate("dig", 60.0) == pytest.approx(1.0)

    def test_record_totals_counter_reset(self):
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        monitor.record_totals("dig", attained_total=180.0, total=200.0)
        # process restart: totals drop; the new values are a fresh baseline,
        # never a negative delta
        monitor.record_totals("dig", attained_total=5.0, total=10.0)
        # window now holds 200+10 total, 20+5 missed
        assert monitor.burn_rate("dig", 60.0) == \
            pytest.approx((25.0 / 210.0) / 0.1)

    def test_record_totals_no_delta_no_bucket(self):
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock)
        monitor.record_totals("dig", attained_total=0.0, total=0.0)
        assert monitor.keys() == []

    def test_firing_emits_structured_log_line(self, caplog):
        logger = logging.getLogger("test.slo.burn")
        clock = FakeClock(1000.0)
        monitor = self._monitor(clock, logger=logger)
        monitor.record("dig", attained=False, count=10)
        with caplog.at_level(logging.INFO, logger="test.slo.burn"):
            events = monitor.check()
        assert len(events) == 1
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("event=slo.burn" in msg and "state=firing" in msg
                   and "key=dig" in msg for msg in messages)

    def test_keys_sorted(self):
        monitor = self._monitor(FakeClock(1000.0))
        monitor.record("pos", attained=True)
        monitor.record("dig", attained=True)
        assert monitor.keys() == ["dig", "pos"]
