"""Unit tests for repro.obs: metrics, tracing, and per-layer profiling."""

import json
import logging
import math
import struct
import threading

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    LayerTimer,
    MetricsRegistry,
    NOOP_SPAN,
    Tracer,
    coverage,
    format_trace,
    log_event,
    merge_dumps,
    new_id,
    parse_exposition,
    read_dump_region,
    render_exposition,
    write_dump_region,
)
from repro.obs.metrics import DUMP_REGION_HEADER


class FakeClock:
    """Hand-driven monotonic clock for deterministic timing tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt
        return self.now


# ---------------------------------------------------------------------- metrics
class TestHistogram:
    def test_default_buckets_are_log_scale(self):
        bounds = DEFAULT_LATENCY_BUCKETS_S
        assert bounds[0] == pytest.approx(1e-4)
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi == pytest.approx(2 * lo)
        # spans 100µs .. ~100s — covers every Tonic latency in the paper
        assert bounds[-1] > 50.0

    def test_bucket_boundaries_are_le_inclusive(self):
        """A value exactly on a bound lands in that bound's bucket
        (Prometheus ``le`` semantics), values just above go one up."""
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)   # == bound 1.0 -> bucket 0
        hist.observe(1.5)   # (1, 2]      -> bucket 1
        hist.observe(2.0)   # == bound 2.0 -> bucket 1
        hist.observe(2.0001)  # (2, 4]    -> bucket 2
        hist.observe(99.0)  # > last bound -> +Inf bucket
        assert hist.counts() == [1, 2, 1, 1]
        assert hist.count == 5

    def test_sum_min_max(self):
        hist = Histogram(buckets=(1.0,))
        for v in (0.5, 3.0, 2.0):
            hist.observe(v)
        assert hist.sum == pytest.approx(5.5)
        assert hist.min == pytest.approx(0.5)
        assert hist.max == pytest.approx(3.0)

    def test_empty_histogram_reads_zero(self):
        hist = Histogram(buckets=(1.0,))
        assert hist.count == 0 and hist.sum == 0.0
        assert hist.min == 0.0 and hist.max == 0.0
        assert hist.percentile(95) == 0.0

    def test_bucket_percentile_fallback_is_bounded(self):
        """Percentiles interpolate within the matching bucket — always
        between the true min and max."""
        hist = Histogram(buckets=(1e-3, 1e-2, 1e-1))
        for v in (0.004, 0.005, 0.006, 0.007):
            hist.observe(v)
        p50 = hist.percentile(50)
        assert 1e-3 <= p50 <= 1e-2

    def test_merge_counts(self):
        a = Histogram(buckets=(1.0, 2.0))
        b = Histogram(buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(10.0)
        a.merge_counts(b.counts(), b.count, b.sum, b.min, b.max)
        assert a.counts() == [1, 1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(12.0)
        assert a.min == pytest.approx(0.5)
        assert a.max == pytest.approx(10.0)

    def test_merge_counts_rejects_mismatched_buckets(self):
        a = Histogram(buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="mismatch"):
            a.merge_counts([0, 0], 0, 0.0, 0.0, 0.0)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            Histogram(buckets=())

    def test_thread_safety_under_concurrent_observe(self):
        hist = Histogram(buckets=(0.5,))
        n, threads = 2000, []
        for _ in range(4):
            t = threading.Thread(
                target=lambda: [hist.observe(0.1) for _ in range(n)])
            threads.append(t)
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 4 * n
        assert hist.sum == pytest.approx(0.1 * 4 * n)

    def test_exemplars_keep_the_largest_observations(self):
        hist = Histogram(buckets=(0.5,), exemplars=3)
        for v in (0.1, 0.9, 0.4, 2.0, 1.5, 0.2):
            hist.observe(v, exemplar=f"t{v}")
        assert hist.exemplars() == [(2.0, "t2.0"), (1.5, "t1.5"),
                                    (0.9, "t0.9")]

    def test_exemplars_off_by_default(self):
        hist = Histogram(buckets=(0.5,))
        hist.observe(1.0, exemplar="x")
        assert hist.exemplars() == []

    def test_exemplar_correctness_under_concurrent_observe(self):
        # 4 threads race on the exemplar heap with globally unique values;
        # the survivors must be exactly the 5 largest, each still paired
        # with the label it was observed under
        hist = Histogram(buckets=(0.5,), exemplars=5)
        n, threads = 500, []

        def worker(t):
            for j in range(n):
                v = t * n + j + 1
                hist.observe(float(v), exemplar=str(v))

        for t in range(4):
            thread = threading.Thread(target=worker, args=(t,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 4 * n
        exemplars = hist.exemplars()
        assert [v for v, _ in exemplars] == \
            [float(4 * n - k) for k in range(5)]
        assert all(label == str(int(v)) for v, label in exemplars)


class TestRegistry:
    def test_counter_gauge_and_labels(self):
        reg = MetricsRegistry()
        requests = reg.counter("requests_total", "reqs", ("model",))
        requests.labels(model="dig").inc()
        requests.labels(model="dig").inc(2)
        requests.labels(model="pos").inc()
        assert requests.labels(model="dig").value == 3
        assert requests.labels(model="pos").value == 1
        inflight = reg.gauge("inflight")
        inflight.inc(5)
        inflight.dec(2)
        assert inflight.labels().value == 3

    def test_counter_rejects_negative_and_gauge_allows(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c_total").inc(-1)
        reg.gauge("g").set(-1.5)

    def test_label_schema_enforced(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total", labelnames=("model",))
        with pytest.raises(ValueError, match="labels"):
            family.labels(wrong="dig")
        with pytest.raises(ValueError, match="labels"):
            family.inc()  # label-less convenience needs a label-less family

    def test_repeat_lookup_fast_path_names_the_same_children(self):
        """The repeat-lookup cache is invisible: same children as the
        validating path for either keyword order, nothing that merely
        compares equal to a cached value shares its child, unhashable and
        invalid calls still validate, and ``clear()`` drops it."""
        import enum

        class Color(str, enum.Enum):
            RED = "red"

        reg = MetricsRegistry()
        family = reg.counter("x_total", labelnames=("model", "n"))
        first = family.labels(model="dig", n="1")
        assert family.labels(model="dig", n="1") is first       # cached
        assert family.labels(n="1", model="dig") is first       # other order
        assert family.labels(model="dig", n=1) is first         # str(1) == "1"
        assert family.labels(model="dig", n=True) is not first  # "True"
        assert family.labels(model="dig", n=1.0) is not first   # "1.0"
        red = family.labels(model="red", n="1")
        assert family.labels(model=Color.RED, n="1") is not red  # "Color.RED"
        assert family.labels(model=["dig"], n="1") is \
            family.labels(model="['dig']", n="1")                # unhashable
        with pytest.raises(ValueError, match="labels"):
            family.labels(model="dig")
        with pytest.raises(ValueError, match="labels"):
            family.labels(model="dig", n="1", extra="x")
        assert {key for key, _ in family.children()} == {
            ("dig", "1"), ("dig", "True"), ("dig", "1.0"), ("red", "1"),
            ("Color.RED", "1"), ("['dig']", "1")}
        first.inc()
        family.clear()
        fresh = family.labels(model="dig", n="1")
        assert fresh is not first and fresh.value == 0
        assert family.children() == [(("dig", "1"), fresh)]

    def test_repeat_lookup_cache_is_bounded(self):
        from repro.obs import metrics

        family = MetricsRegistry().counter("y_total", labelnames=("k",))
        for i in range(3 * metrics._RECENT_LABELS):
            family.labels(k=f"v{i}").inc()
            assert len(family._recent) <= metrics._RECENT_LABELS
        assert len(family.children()) == 3 * metrics._RECENT_LABELS
        assert family.labels(k="v0").value == 1  # evicted from the cache only

    def test_registration_is_idempotent_but_conflicts_raise(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labelnames=("model",))
        assert reg.counter("x_total", labelnames=("model",)) is a
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="labels"):
            reg.counter("x_total", labelnames=("other",))

    def test_dump_structure(self):
        reg = MetricsRegistry()
        reg.counter("n_total", "help text", ("model",)).labels(model="dig").inc()
        reg.histogram("lat_seconds", buckets=(1.0, 2.0)).observe(1.5)
        dump = reg.dump()
        assert json.loads(json.dumps(dump)) == dump  # JSON-able
        counter = dump["metrics"]["n_total"]
        assert counter["type"] == "counter"
        assert counter["samples"] == [{"labels": {"model": "dig"}, "value": 1.0}]
        hist = dump["metrics"]["lat_seconds"]
        assert hist["buckets"] == [1.0, 2.0]
        (sample,) = hist["samples"]
        assert sample["counts"] == [0, 1, 0]
        assert sample["count"] == 1 and sample["sum"] == pytest.approx(1.5)


class TestExposition:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("djinn_requests_total", "Requests.", ("model",)) \
            .labels(model="dig").inc(7)
        hist = reg.histogram("djinn_request_latency_seconds", "Latency.",
                             ("model",), buckets=(0.001, 0.01))
        hist.labels(model="dig").observe(0.0005)
        hist.labels(model="dig").observe(0.005)
        hist.labels(model="dig").observe(5.0)
        return reg

    def test_render_format(self):
        text = self.build().expose()
        assert "# TYPE djinn_requests_total counter" in text
        assert 'djinn_requests_total{model="dig"} 7' in text
        # cumulative buckets, +Inf last, sum/count present
        assert 'djinn_request_latency_seconds_bucket{model="dig",le="0.001"} 1' in text
        assert 'djinn_request_latency_seconds_bucket{model="dig",le="0.01"} 2' in text
        assert 'djinn_request_latency_seconds_bucket{model="dig",le="+Inf"} 3' in text
        assert 'djinn_request_latency_seconds_count{model="dig"} 3' in text

    def test_parse_round_trip(self):
        text = self.build().expose()
        samples = parse_exposition(text)
        key = (("model", "dig"),)
        assert samples["djinn_requests_total"][key] == 7
        assert samples["djinn_request_latency_seconds_count"][key] == 3
        inf_key = (("model", "dig"), ("le", "+Inf"))
        assert samples["djinn_request_latency_seconds_bucket"][inf_key] == 3

    def test_parse_rejects_malformed_lines(self):
        for bad in ("not a metric line!",
                    'x_total{unclosed="1} 2',
                    "x_total 1 2 3",
                    "# BOGUS x_total counter"):
            with pytest.raises(ValueError):
                parse_exposition(bad + "\n")

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("path",)) \
            .labels(path='a"b\\c\nd').inc()
        parsed = parse_exposition(reg.expose())
        assert "x_total" in parsed  # strict parser accepts the escaping


class TestMergeDumps:
    def test_counters_sum_and_histograms_merge(self):
        regs = [MetricsRegistry() for _ in range(2)]
        for i, reg in enumerate(regs):
            reg.counter("djinn_requests_total", labelnames=("model",)) \
                .labels(model="dig").inc(i + 1)
            hist = reg.histogram("lat_seconds", buckets=(1.0, 2.0))
            hist.observe(0.5 + i)  # 0.5 and 1.5
        merged = merge_dumps(reg.dump() for reg in regs)
        counter = merged["metrics"]["djinn_requests_total"]["samples"][0]
        assert counter["value"] == 3.0
        hist = merged["metrics"]["lat_seconds"]["samples"][0]
        assert hist["counts"] == [1, 1, 0]
        assert hist["count"] == 2
        assert hist["min"] == pytest.approx(0.5)
        assert hist["max"] == pytest.approx(1.5)
        # merged dump renders and parses like any single-registry dump
        parse_exposition(render_exposition(merged))

    def test_disjoint_label_sets_concatenate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", labelnames=("model",)).labels(model="dig").inc()
        b.counter("x_total", labelnames=("model",)).labels(model="pos").inc(4)
        merged = merge_dumps([a.dump(), b.dump()])
        by_model = {s["labels"]["model"]: s["value"]
                    for s in merged["metrics"]["x_total"]["samples"]}
        assert by_model == {"dig": 1.0, "pos": 4.0}

    def test_mismatched_buckets_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket"):
            merge_dumps([a.dump(), b.dump()])

    def test_mismatched_types_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total").inc()
        b.gauge("x_total").set(1)
        with pytest.raises(ValueError, match="conflicting"):
            merge_dumps([a.dump(), b.dump()])

    def test_exemplars_survive_dump_and_merge(self):
        regs = [MetricsRegistry() for _ in range(2)]
        for i, reg in enumerate(regs):
            hist = reg.histogram("lat_seconds", labelnames=("model",),
                                 buckets=(1.0,), exemplars=2)
            hist.labels(model="dig").observe(float(i + 1),
                                             exemplar=f"trace{i}")
        merged = merge_dumps(reg.dump() for reg in regs)
        (sample,) = merged["metrics"]["lat_seconds"]["samples"]
        # cap 2 keeps both; slowest first, labels intact across the merge
        assert sample["exemplars"] == [[2.0, "trace1"], [1.0, "trace0"]]


class TestDumpRegion:
    """Seqlock shm metric regions (the procpool worker → parent path)."""

    def test_round_trip(self):
        buf = bytearray(4096)
        assert read_dump_region(buf) is None  # never written
        reg = MetricsRegistry()
        reg.counter("x_total").inc(3)
        write_dump_region(buf, reg.dump())
        assert read_dump_region(buf) == reg.dump()

    def test_oversized_payload_rejected(self):
        buf = bytearray(DUMP_REGION_HEADER + 8)
        with pytest.raises(ValueError, match="capacity"):
            write_dump_region(buf, {"metrics": {"pad": "x" * 64}})

    def test_odd_version_reads_as_torn(self):
        buf = bytearray(4096)
        write_dump_region(buf, {"metrics": {}})
        # forge a writer stuck mid-update: odd version never settles
        struct.pack_into("<Q", buf, 0, 7)
        assert read_dump_region(buf, attempts=4) is None

    def test_merge_under_active_writers_never_tears(self):
        # One writer per region updates two lockstep counters and
        # republishes as fast as it can; readers concurrently snapshot and
        # merge_dumps the regions.  Every successful read must satisfy the
        # lockstep invariant — a torn read (stale/fresh payload mix) would
        # break it or fail to parse, and the seqlock must allow neither.
        regions = [bytearray(1 << 16) for _ in range(2)]
        stop = threading.Event()
        failures = []

        def writer(buf, model):
            reg = MetricsRegistry()
            a = reg.counter("djinn_requests_total", labelnames=("model",))
            b = reg.counter("djinn_shadow_total", labelnames=("model",))
            while not stop.is_set():
                a.labels(model=model).inc()
                b.labels(model=model).inc()
                write_dump_region(buf, reg.dump())

        def lockstep(dump):
            totals = {}
            for name in ("djinn_requests_total", "djinn_shadow_total"):
                entry = dump["metrics"].get(name, {})
                totals[name] = sum(s["value"] for s in entry.get("samples", ()))
            return totals["djinn_requests_total"] == totals["djinn_shadow_total"]

        def reader():
            for _ in range(300):
                snaps = [read_dump_region(buf) for buf in regions]
                live = [s for s in snaps if s is not None]
                if not all(lockstep(s) for s in live):
                    failures.append("torn read: lockstep counters diverged")
                    return
                if live and not lockstep(merge_dumps(live)):
                    failures.append("merge of torn snapshots diverged")
                    return

        writers = [threading.Thread(target=writer, args=(buf, model))
                   for buf, model in zip(regions, ("dig", "pos"))]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        for t in writers:
            t.join()
        assert failures == []
        # after the dust settles, both regions hold a consistent final dump
        for buf in regions:
            final = read_dump_region(buf)
            assert final is not None and lockstep(final)


# ---------------------------------------------------------------------- tracing
class TestTracer:
    def test_disabled_tracer_yields_noop_and_records_nothing(self):
        tracer = Tracer()
        assert not tracer.enabled
        with tracer.span("client.infer") as span:
            assert span is NOOP_SPAN
            span.set(model="dig")  # must be inert, not raise
        assert tracer.spans() == []
        assert tracer.add_span("x", 0.0, 1.0, trace_id=1) is NOOP_SPAN

    def test_nesting_parents_via_thread_stack(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        names = {s.name for s in tracer.spans()}
        assert names == {"outer", "inner"}

    def test_explicit_context_joins_wire_trace(self):
        """A span opened with explicit trace/parent IDs (context arriving
        from the wire) joins that trace instead of starting a new one."""
        tracer = Tracer(enabled=True)
        with tracer.span("backend.infer", trace_id=77, parent_id=5) as span:
            assert span.trace_id == 77
            assert span.parent_id == 5
        assert [s.trace_id for s in tracer.spans()] == [77]

    def test_separate_roots_get_distinct_trace_ids(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("root"):
                pass
        ids = tracer.trace_ids()
        assert len(ids) == 3 and len(set(ids)) == 3

    def test_add_span_and_filtering(self):
        tracer = Tracer(enabled=True)
        tracer.add_span("a", 0.0, 1.0, trace_id=1)
        tracer.add_span("b", 0.0, 1.0, trace_id=2)
        assert [s.name for s in tracer.spans(1)] == ["a"]
        assert tracer.trace_ids() == [1, 2]
        tracer.clear()
        assert tracer.spans() == []

    def test_span_timing_uses_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("work"):
            clock.tick(0.25)
        (span,) = tracer.spans()
        assert span.duration_s == pytest.approx(0.25)

    def test_max_spans_bound(self):
        tracer = Tracer(enabled=True, max_spans=3)
        for i in range(10):
            tracer.add_span(f"s{i}", 0.0, 1.0, trace_id=1)
        assert [s.name for s in tracer.spans()] == ["s7", "s8", "s9"]

    def test_new_ids_are_unique_nonzero(self):
        ids = {new_id() for _ in range(1000)}
        assert len(ids) == 1000 and 0 not in ids

    def test_chrome_export(self):
        clock = FakeClock(100.0)
        tracer = Tracer(clock=clock, enabled=True)
        with tracer.span("client.infer", category="client", model="dig"):
            clock.tick(0.002)
        doc = tracer.to_chrome()
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "client.infer"
        assert event["cat"] == "client"
        assert event["dur"] == pytest.approx(2000.0)  # µs
        assert event["args"]["model"] == "dig"
        json.dumps(doc)  # must serialize

    def test_dump_chrome_writes_loadable_json(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("x"):
            pass
        path = tmp_path / "trace.json"
        tracer.dump_chrome(str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestTraceAnalysis:
    def make(self, intervals, trace_id=1):
        tracer = Tracer(enabled=True)
        for i, (start, end) in enumerate(intervals):
            tracer.add_span(f"s{i}", start, end, trace_id=trace_id)
        return tracer.spans(trace_id)

    def test_coverage_full(self):
        assert coverage(self.make([(0.0, 1.0), (0.0, 0.5)])) == pytest.approx(1.0)

    def test_coverage_with_gap(self):
        # [0, 1] and [3, 4] over wall [0, 4] -> 2/4 covered
        assert coverage(self.make([(0.0, 1.0), (3.0, 4.0)])) == pytest.approx(0.5)

    def test_coverage_empty(self):
        assert coverage([]) == 0.0

    def test_format_trace_tree(self):
        tracer = Tracer(clock=FakeClock(), enabled=True)
        with tracer.span("client.infer"):
            tracer.clock.tick(0.001)
            with tracer.span("backend.infer", batch_size=4):
                tracer.clock.tick(0.001)
        text = format_trace(tracer.spans())
        lines = text.splitlines()
        assert lines[0].startswith("client.infer")
        assert lines[1].startswith("  backend.infer")
        assert "batch_size=4" in lines[1]

    def test_log_event_format(self, caplog):
        logger = logging.getLogger("repro.test.obs")
        with caplog.at_level(logging.INFO, logger=logger.name):
            log_event(logger, "backend.mark_down",
                      level=logging.WARNING, backend="127.0.0.1:1", failures=3)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == \
            "event=backend.mark_down backend=127.0.0.1:1 failures=3"


# ------------------------------------------------------------------- profiling
class TestLayerTimer:
    class _FakeLayer:
        def __init__(self, name, type_name="Fake"):
            self.name = name
            self.type_name = type_name

    def test_exact_sums_with_fake_clock(self):
        clock = FakeClock()
        timer = LayerTimer(clock=clock)
        for name, dt in (("conv1", 0.010), ("relu1", 0.001), ("fc", 0.004)):
            layer = self._FakeLayer(name)
            timer.begin(layer)
            clock.tick(dt)
            timer.end(layer)
        assert len(timer) == 3
        assert timer.total_s() == pytest.approx(0.015)
        breakdown = {name: (dur, frac)
                     for name, _type, dur, frac in timer.breakdown()}
        assert breakdown["conv1"] == (pytest.approx(0.010), pytest.approx(2 / 3))
        assert "conv1" in timer.format()

    def test_mismatched_end_raises(self):
        timer = LayerTimer()
        with pytest.raises(RuntimeError):
            timer.end(self._FakeLayer("never_begun"))

    def test_emit_spans(self):
        clock = FakeClock()
        timer = LayerTimer(clock=clock)
        layer = self._FakeLayer("l1", "InnerProduct")
        timer.begin(layer)
        clock.tick(0.002)
        timer.end(layer)
        tracer = Tracer(enabled=True)
        timer.emit_spans(tracer, trace_id=9, parent_id=3)
        (span,) = tracer.spans(9)
        assert span.name == "layer.l1"
        assert span.parent_id == 3
        assert span.duration_s == pytest.approx(0.002)
        assert span.attrs["layer_type"] == "InnerProduct"

    def test_reset(self):
        timer = LayerTimer(clock=FakeClock())
        layer = self._FakeLayer("x")
        timer.begin(layer)
        timer.end(layer)
        timer.reset()
        assert len(timer) == 0 and timer.total_s() == 0.0

    def test_layer_times_sum_close_to_forward_wall_time(self):
        """On a real Net, per-layer durations must account for (almost all
        of) the forward pass — the invariant behind the Fig-4 breakdown."""
        import time

        from repro.models import build_net

        net = build_net("dig").materialize(seed=0)
        x = np.random.default_rng(0).normal(size=(8,) + net.input_shape)
        net.forward(x)  # warm-up
        timer = LayerTimer()
        start = time.monotonic()
        net.forward(x, timer=timer)
        wall = time.monotonic() - start
        assert len(timer) == len(net.layers)
        # per-layer sums sit inside the wall time, and cover most of it
        assert timer.total_s() <= wall * 1.01
        assert timer.total_s() >= wall * 0.5

    def test_untimed_forward_unchanged(self):
        from repro.models import build_net

        net = build_net("dig").materialize(seed=0)
        x = np.random.default_rng(0).normal(size=(4,) + net.input_shape)
        np.testing.assert_array_equal(net.forward(x),
                                      net.forward(x, timer=LayerTimer()))


# ------------------------------------------------------------------ end to end
class TestServingIntegration:
    """One traced request through client -> gateway -> backend yields a
    single trace accounting for (nearly) all of the client's wall time."""

    REQUIRED = {"client.infer", "gateway.infer", "gateway.queue",
                "gateway.backend", "backend.infer", "backend.queue",
                "batch.assemble", "net.forward", "backend.respond"}

    @pytest.fixture
    def registry(self):
        from repro.core import ModelRegistry
        from repro.models import senna

        reg = ModelRegistry()
        reg.register_spec("pos", senna("pos"), seed=0)
        return reg

    def test_single_trace_covers_request(self, registry):
        from repro.core import BatchPolicy, DjinnClient, DjinnServer
        from repro.gateway import GatewayServer

        tracer = Tracer(enabled=True)
        server = DjinnServer(
            registry, port=0,
            batching=BatchPolicy(max_batch=4, timeout_ms=1.0),
            profile_layers=True, tracer=tracer)
        server.start()
        # pin the queue-path trace shape (backend.queue, batch.assemble):
        # the batch-1 fast path would legitimately skip both on an idle model
        server._executor._fast_off.add("pos")
        try:
            gateway = GatewayServer([server.address], tracer=tracer)
            gateway.start()
            try:
                with DjinnClient(*gateway.address, tracer=tracer) as cli:
                    out = cli.infer("pos", np.zeros((2, 300), np.float32))
            finally:
                gateway.stop()
        finally:
            server.stop()
        assert out.shape[0] == 2

        ids = tracer.trace_ids()
        assert len(ids) == 1  # one request, one trace
        spans = tracer.spans(ids[0])
        names = {s.name for s in spans}
        assert self.REQUIRED <= names
        assert any(n.startswith("layer.") for n in names)
        # the outer client span is the root and brackets everything
        roots = [s for s in spans
                 if s.name == "client.infer" and s.parent_id == 0]
        assert len(roots) == 1
        assert coverage(spans) >= 0.95
        # every span belongs to the same trace and closed cleanly
        assert all(s.trace_id == ids[0] and s.end_s is not None for s in spans)

    def test_tracing_disabled_adds_no_spans_and_serves_fine(self, registry):
        from repro.core import DjinnClient, DjinnServer
        from repro.gateway import GatewayServer

        tracer = Tracer()  # disabled
        server = DjinnServer(registry, port=0, tracer=tracer)
        server.start()
        try:
            gateway = GatewayServer([server.address], tracer=tracer)
            gateway.start()
            try:
                with DjinnClient(*gateway.address, tracer=tracer) as cli:
                    cli.infer("pos", np.zeros((1, 300), np.float32))
            finally:
                gateway.stop()
        finally:
            server.stop()
        assert tracer.spans() == []

    def test_server_metrics_endpoint(self, registry):
        from repro.core import DjinnClient, DjinnServer

        server = DjinnServer(registry, port=0)
        server.start()
        try:
            with DjinnClient(*server.address) as cli:
                cli.infer("pos", np.zeros((3, 300), np.float32))
                with pytest.raises(Exception):
                    cli.infer("nope", np.zeros((1, 300), np.float32))
                dump = cli.metrics()
                text = cli.metrics_text()
        finally:
            server.stop()
        (sample,) = dump["metrics"]["djinn_requests_total"]["samples"]
        assert sample == {"labels": {"model": "pos"}, "value": 1.0}
        (errors,) = dump["metrics"]["djinn_errors_total"]["samples"]
        assert errors["labels"] == {"model": "nope", "reason": "unknown_model"}
        parsed = parse_exposition(text)
        assert parsed["djinn_inputs_total"][(("model", "pos"),)] == 3.0
        inf_key = (("model", "pos"), ("le", "+Inf"))
        assert parsed["djinn_request_latency_seconds_bucket"][inf_key] == 1.0
