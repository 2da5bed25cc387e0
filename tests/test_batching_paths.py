"""The executor's one forward path, entered from its two callers.

``BatchingExecutor._serve`` runs on the model's worker thread and — for a
batch of one on an idle model — on the submitting thread.  These tests pin
what has to hold across that product: the layer cache composes with the
inline call, both callers account a request the same way, the inline call
leaves nothing growing behind it, and a declined inline attempt never
repeats work.  The last section asks the same of the layer above:
``DjinnServer``'s one unary routine, for both frame kinds, on every serve
path (bare threaded, batched, bare proc pool).
"""

import contextlib
import json
import os
import re
import threading
import time

import numpy as np
import pytest

from repro.core import (BatchingExecutor, BatchPolicy, DjinnClient,
                        DjinnServer, ModelRegistry)
from repro.core.procpool import ProcPoolExecutor
from repro.core.protocol import Message, MessageType
from repro.models import alexnet, lenet5
from repro.nn import LayerCacheConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.tonic import DigApp, digit_dataset

MODEL = "dig"


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    reg.register_spec(MODEL, lenet5(), seed=0)
    return reg


@pytest.fixture(scope="module")
def raws():
    images, _ = digit_dataset(8, seed=11)
    return images  # (8, 1, 28, 28) float32; a raw payload is 1..8 images


def _tensor(seed, rows=1):
    gen = np.random.default_rng(seed)
    return gen.standard_normal((rows, 1, 32, 32)).astype(np.float32)


def _executor(registry, *, cache=False, tracer=None, pool=None, metrics=None,
              policy=BatchPolicy(max_batch=8, timeout_ms=2.0)):
    return BatchingExecutor(
        registry, policy, metrics=metrics or MetricsRegistry(), tracer=tracer,
        pool=pool,
        layer_cache=LayerCacheConfig(max_entries=64) if cache else None)


def _value(children, *key):
    return children[key if len(key) > 1 else key[0]].value


def _stages(executor):
    """``{stage: seconds}`` from ``djinn_stage_seconds_total``."""
    return {key[1]: child.value
            for key, child in executor._stage_seconds.family.children()}


# ---------------------------------------------------- layer cache x fast path
class TestLayerCacheComposesWithFastPath:
    def test_idle_model_probes_the_cache_inline(self, registry):
        """An armed layer cache no longer switches the fast path off: an
        idle model serves inline *and* probes, cold and warm answers are
        byte-identical to a cache-off executor's."""
        tracer = Tracer(enabled=True)
        cached = _executor(registry, cache=True, tracer=tracer)
        plain_metrics = MetricsRegistry()
        plain = _executor(registry, metrics=plain_metrics)
        x = _tensor(5)
        try:
            want = plain.submit(MODEL, x)
            cold = cached.submit(MODEL, x, trace=(1, 1))
            warm = cached.submit(MODEL, x, trace=(2, 1))
            assert cold.tobytes() == want.tobytes()
            assert warm.tobytes() == want.tobytes()
            assert _value(cached._fast_hits, MODEL) == 2
            events = cached._layer_cache_events
            assert _value(events, MODEL, "miss") == 1
            assert _value(events, MODEL, "hit") == 1
            probes = [s for s in tracer.spans() if s.name == "engine.cache"]
            assert len(probes) == 2
            assert not cached._workers, "no worker was ever woken"
            assert not any(name.startswith("djinn_layer_cache")
                           for name in plain_metrics.dump()["metrics"])
        finally:
            cached.close()
            plain.close()

    def test_cache_is_per_model_across_plans(self, registry):
        """An entry inserted by the inline call (a 1-row plan) is a hit for
        the worker's envelope plan, and the other way round."""
        executor = _executor(registry, cache=True)
        x = _tensor(6)
        try:
            inline = executor.submit(MODEL, x)           # miss, 1-row plan
            executor._fast_off.add(MODEL)
            queued = executor.submit(MODEL, x)           # hit, envelope plan
            y = _tensor(7)
            first = executor.submit(MODEL, y)            # miss, envelope plan
            executor._fast_off.clear()
            again = executor.submit(MODEL, y)            # hit, 1-row plan
            assert queued.tobytes() == inline.tobytes()
            assert again.tobytes() == first.tobytes()
            events = executor._layer_cache_events
            assert _value(events, MODEL, "miss") == 2
            assert _value(events, MODEL, "hit") == 2
            assert len(executor.layer_caches) == 1
        finally:
            executor.close()

    def test_armed_under_a_proc_pool(self, registry):
        """``workers=proc:N`` + layer cache: inline-served requests probe
        (and hit) on the parent-side plan; pool-slot batches cannot — they
        still answer byte-identically, they just never touch the cache."""
        pool = ProcPoolExecutor(registry, workers=1, max_batch=8)
        executor = _executor(registry, cache=True, pool=pool)
        net = registry.get(MODEL)
        x = _tensor(8)
        try:
            cold = executor.submit(MODEL, x)
            warm = executor.submit(MODEL, x)
            assert cold.tobytes() == net.forward(x).tobytes()
            assert warm.tobytes() == cold.tobytes()
            events = executor._layer_cache_events
            assert _value(events, MODEL, "miss") == 1
            assert _value(events, MODEL, "hit") == 1
            executor._fast_off.add(MODEL)   # force the slot ring
            ring = executor.submit(MODEL, x)
            assert ring.tobytes() == cold.tobytes()
            assert _value(events, MODEL, "hit") == 1
            assert _value(events, MODEL, "miss") == 1
        finally:
            executor.close()
            pool.close()


# ------------------------------------------------ submitter / worker parity
DIG_APP = DigApp(backend=None)


def _submit(executor, kind, payload, trace=None):
    """``(answer, wall seconds of the executor call alone)``."""
    start = time.monotonic()
    if kind == "app":
        answer = executor.submit_app(MODEL, DIG_APP, payload, trace=trace)
        return answer, time.monotonic() - start
    answer = executor.submit(MODEL, payload, trace=trace)
    return answer, time.monotonic() - start


@pytest.mark.parametrize("cache", [False, True], ids=["plain", "layer_cache"])
@pytest.mark.parametrize("kind", ["tensor", "app"])
def test_both_callers_account_a_request_alike(registry, raws, kind, cache):
    """The same request served on the submitting thread and via the worker
    (forced with the ``_fast_off`` kill switch): same answer, same span
    names and stage labels but for the queue's, and on both the stage
    seconds add up to the wall time measured around the call."""
    seen = {}
    for caller in ("inline", "worker"):
        tracer = Tracer(enabled=True)
        # a long window (requests fill half the envelope, so the collector
        # waits it out) makes the worker path's fixed costs — the waiter's
        # wake-up after delivery — small against the wall compared with
        executor = _executor(registry, cache=cache, tracer=tracer,
                             policy=BatchPolicy(max_batch=16, timeout_ms=20.0))
        if caller == "worker":
            executor._fast_off.add(MODEL)
        # 8-row requests: the forward dwarfs the few microseconds either
        # caller spends outside any stage (call entry, result hand-off)
        payloads = ([np.roll(raws, i, axis=0) for i in range(6)]
                    if kind == "app"
                    else [_tensor(20 + i, rows=8) for i in range(6)])
        try:
            _submit(executor, kind, payloads[0])  # compile plans, build cache
            before = sum(_stages(executor).values())
            wall = 0.0
            answers = []
            for i, payload in enumerate(payloads):
                answer, took = _submit(executor, kind, payload,
                                       trace=(100 + i, 1))
                answers.append(answer)
                wall += took
            stage_s = sum(_stages(executor).values()) - before
            fast = _value(executor._fast_hits, MODEL)
        finally:
            executor.close()
        assert fast == (len(payloads) + 1 if caller == "inline" else 0)
        assert abs(stage_s - wall) <= 0.05 * wall, (caller, stage_s, wall)
        seen[caller] = {
            "answers": answers,
            "spans": {s.name for s in tracer.spans()},
            "stages": set(_stages(executor)),
        }
    inline, worker = seen["inline"], seen["worker"]
    for got, want in zip(inline["answers"], worker["answers"]):
        if kind == "app":
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()
    assert worker["spans"] - inline["spans"] == {"backend.queue"}
    assert inline["spans"] <= worker["spans"]
    expected = {"batch.assemble", "net.forward", "batch.scatter"}
    if kind == "app":
        expected |= {"app.preprocess", "app.postprocess"}
    if cache:
        expected |= {"engine.cache"}
    assert inline["spans"] == expected
    # the stage counters follow the spans: an inline request never queued
    assert worker["stages"] - inline["stages"] == {"backend.queue"}
    assert inline["stages"] <= worker["stages"]


# ------------------------------------------------------------ bounded state
def test_executed_batches_is_bounded(registry):
    executor = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                      timeout_ms=1.0))
    x = _tensor(9)
    try:
        for _ in range(10_000):
            executor.submit(MODEL, x)
        sizes = executor.executed_batches[MODEL]
        assert len(sizes) == executor.EXECUTED_WINDOW < 10_000
        assert set(sizes) == {1}
        assert not executor._workers  # every one of them was served inline
    finally:
        executor.close()


# ------------------------------------------------- preprocess exactly once
class _CountingDigApp(DigApp):
    """Counts payloads through either preprocess kernel (DigApp's batched
    kernel does not call the per-item one, so nothing is counted twice)."""

    def __init__(self):
        super().__init__(backend=None)
        self.preprocessed = 0

    def preprocess(self, raw):
        self.preprocessed += 1
        return super().preprocess(raw)

    def preprocess_batch(self, raws):
        self.preprocessed += len(raws)
        return super().preprocess_batch(raws)


@contextlib.contextmanager
def _every_lane_held(registry, model, rows):
    """Hold every plan lane of ``model``'s bucket covering ``rows``, one
    holder thread per lane: plan locks are reentrant, so a thread that
    already holds a lane would simply be handed it again."""
    release = threading.Event()
    holders = []

    def hold(got):
        plan = registry.acquire(model, rows)
        got.set()
        if plan is not None:
            release.wait(5.0)
            plan.lock.release()

    try:
        for _ in range(registry.lanes):
            got = threading.Event()
            holder = threading.Thread(target=hold, args=(got,))
            holder.start()
            holders.append(holder)
            assert got.wait(5.0)
        assert registry.acquire(model, rows) is None
        yield
    finally:
        release.set()
        for holder in holders:
            holder.join()


def test_contended_lock_does_not_preprocess_twice(registry, raws):
    """The inline attempt preprocesses before it can know which plan to
    lock; when every lane of that bucket is busy the rows ride along in the
    enqueued request instead of being thrown away and recomputed by the
    worker."""
    executor = _executor(registry)
    app = _CountingDigApp()
    try:
        with _every_lane_held(registry, MODEL, 1):  # what a 1-row request locks
            answer = executor.submit_app(MODEL, app, raws[0])
    finally:
        executor.close()
    assert _value(executor._fast_hits, MODEL) == 0  # it did decline
    reference = DigApp(backend=None)
    assert answer == reference.postprocess(
        registry.get(MODEL).forward(reference.preprocess(raws[0])), raws[0])
    assert app.preprocessed == 1
    assert list(executor.executed_batches[MODEL]) == [1]


# ------------------------------------------- one axis up: the server's paths
# The same parity question asked of ``DjinnServer._serve_unary``: both frame
# kinds, on every way a server can run a forward.
SERVE_PATHS = {
    "bare": {},
    "batched": {"batching": BatchPolicy(max_batch=8, timeout_ms=2.0)},
    "proc:2": {"workers": "proc:2"},   # bare pool: a 32-row slot envelope
}
KINDS = ("tensor", "app")


@pytest.fixture(scope="module")
def served(registry):
    """``{path: (live server, client connected to it)}``."""
    with contextlib.ExitStack() as stack:
        live = {}
        for path, kwargs in SERVE_PATHS.items():
            server = stack.enter_context(DjinnServer(registry, **kwargs))
            live[path] = server, stack.enter_context(
                DjinnClient(*server.address))
        yield live


def _frame(kind, payload, model=MODEL, **qos):
    if kind == "app":
        return DjinnClient.app_message(model, payload, **qos)
    return Message(MessageType.INFER_REQUEST, name=model, tensor=payload, **qos)


def _payload(kind, raws, rows, seed=0):
    if kind == "app":
        return np.resize(raws, (rows, 1, 28, 28))
    return _tensor(seed, rows=rows)


def _reference(registry, kind, payload):
    """What the reply must carry, computed without any server."""
    net = registry.get(MODEL)
    if kind == "app":
        return DIG_APP.postprocess(net.forward(DIG_APP.preprocess(payload)),
                                   payload)
    return net.forward(payload)


def _answer(kind, reply):
    assert reply.type == (MessageType.APP_RESPONSE if kind == "app"
                          else MessageType.INFER_RESPONSE), reply.text
    return json.loads(reply.text) if kind == "app" else reply.tensor


def _counters(server):
    """``{(family, labels...): value}`` of the rejection-side counters."""
    return {(family,) + key: child.value
            for family in ("djinn_errors_total", "djinn_sched_expired_total",
                           "djinn_slo_requests_total")
            for key, child in server.metrics.get(family).children()}


def _delta(after, before):
    return {key: value - before.get(key, 0.0)
            for key, value in after.items() if value != before.get(key, 0.0)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("path", list(SERVE_PATHS))
def test_stage_seconds_sum_to_the_wall_on_every_serve_path(
        served, registry, raws, path, kind):
    """Every serve path accounts a ``net.forward`` sample, and what the
    stages (up to the reply) add up to is the wall the ledger saw."""
    server, client = served[path]
    latency = server.ledger.latency[MODEL]

    def measured():
        stages = {key[1]: child.value
                  for key, child in server._stage_seconds.family.children()
                  if key[0] == MODEL}
        # ``respond`` runs after the latency stamp, so it is not in the wall
        return stages, sum(stages.values()) - stages.get("respond", 0.0)

    # 8-row requests, as above: the forward dwarfs the hand-offs between
    # stages.  The first one compiles plans / builds the app table.
    payloads = [_payload(kind, np.roll(raws, i, axis=0), 8, seed=40 + i)
                for i in range(7)]
    client.exchange(_frame(kind, payloads[0]))
    _, stage_before = measured()
    wall_before = latency.sum
    for payload in payloads[1:]:
        reply = client.exchange(_frame(kind, payload))
        got, want = _answer(kind, reply), _reference(registry, kind, payload)
        assert got == want if kind == "app" else got.tobytes() == want.tobytes()
    # the connection serves in order: a METRICS round trip means the last
    # request's own accounting is done
    client.metrics()
    stages, stage_after = measured()
    wall = latency.sum - wall_before
    assert stages.get("net.forward", 0.0) > 0.0, sorted(stages)
    assert abs((stage_after - stage_before) - wall) <= 0.05 * wall, stages


def test_refusals_are_the_same_on_every_serve_path_and_kind(
        served, registry, raws):
    """Oversized, dead on arrival, unknown model, wrong shape: one reply
    type, one error text and one set of counter deltas per case — whichever
    path serves it, and (but for the text naming the kind's own check)
    whichever kind asked."""
    expected = {
        "oversized": ("ANSWER", {}),
        "doa": ("DEADLINE_EXCEEDED", {
            ("djinn_sched_expired_total", MODEL): 1.0,
            ("djinn_slo_requests_total", MODEL, "expired"): 1.0}),
        "unknown": ("ERROR", {
            ("djinn_errors_total", "nope", "unknown_model"): 1.0}),
        "shape": ("ERROR", {
            ("djinn_errors_total", MODEL, "bad_request"): 1.0}),
    }
    texts = {}
    for path, (server, client) in served.items():
        for kind in KINDS:
            # 40 rows: past a bare pool's 32-row slot, past the batch policy
            big = _payload(kind, raws, 40)
            bad = (np.zeros((1, 20, 20), np.float32) if kind == "app"
                   else np.zeros((1, 1, 30, 30), np.float32))
            cases = {
                "oversized": _frame(kind, big),
                "doa": _frame(kind, big[:1], deadline_ms=0.0001),
                "unknown": _frame(kind, big[:1], model="nope"),
                "shape": _frame(kind, bad),
            }
            for case, frame in cases.items():
                before = _counters(server)
                reply = client.exchange(frame)
                client.metrics()  # in-order connection: accounting is done
                delta = _delta(_counters(server), before)
                if case == "oversized":
                    got = _answer(kind, reply)
                    want = _reference(registry, kind, big)
                    assert (got == want if kind == "app"
                            else np.allclose(got, want, atol=1e-5))
                    reply_type = "ANSWER"
                else:
                    reply_type = reply.type.name
                    # lateness is a measured number; the rest is fixed
                    texts.setdefault((kind, case), {})[path] = re.sub(
                        r"\d+\.\d+ ms past", "N ms past", reply.text)
                assert (reply_type, delta) == expected[case], (path, kind, case)
    for (kind, case), by_path in texts.items():
        assert len(set(by_path.values())) == 1, (kind, case, by_path)
    assert texts["tensor", "doa"] == texts["app", "doa"]


def test_oversize_stream_chunk_on_the_bare_path_matches_forward(
        served, registry):
    """A stream chunk is a plain executor submit: on the bare path a 40-row
    chunk (past the 32-row unbatched envelope) runs on a throw-away plan
    compiled for its row count, byte-identical to ``net.forward``, and the
    registry keeps no plan for its bucket."""
    server, client = served["bare"]
    executor = server._executor
    outputs = []
    submit = executor.submit

    def recording_submit(model, rows, *args, **kwargs):
        out = submit(model, rows, *args, **kwargs)
        outputs.append(out)
        return out

    chunk = _tensor(77, rows=40)
    want = registry.get(MODEL).forward(chunk)
    executor.submit = recording_submit  # the stream app binds it at open
    try:
        with client.open_stream(MODEL) as stream:
            partial = stream.send(chunk)
    finally:
        del executor.submit
    assert [out.tobytes() for out in outputs] == [want.tobytes()]
    assert partial.data["labels"] == [int(i) for i in want.argmax(axis=1)]
    assert executor.executed_batches[MODEL][-1] == 40
    assert (MODEL, 64) not in registry._plans


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="one CPU: the registry keeps one plan lane")
def test_bare_server_overlaps_two_clients_forwards():
    """Unbatched is a zero-wait executor, not a serial one: two clients'
    concurrent AlexNet requests on a bare server each take a plan lane on
    their own connection thread — none waits for the model's queue, whose
    32-row envelope arena is never compiled — so their ``net.forward``
    spans overlap."""
    reg = ModelRegistry()
    reg.register_spec("imc", alexnet(), seed=0)
    tracer = Tracer(enabled=True)
    barrier = threading.Barrier(2)
    failures = []

    def client(address, i):
        try:
            with DjinnClient(*address) as conn:
                for j in range(4):
                    x = np.full((1, 3, 227, 227), 0.01 * (i + j), np.float32)
                    barrier.wait(30.0)
                    reply = conn.exchange(Message(
                        MessageType.INFER_REQUEST, name="imc", tensor=x,
                        trace_id=1000 * (i + 1) + j, span_id=1))
                    assert reply.type == MessageType.INFER_RESPONSE
        except Exception as exc:  # surfaced below, on the test's thread
            failures.append(exc)

    with DjinnServer(reg, tracer=tracer) as server:
        clients = [threading.Thread(target=client, args=(server.address, i))
                   for i in range(2)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
    assert not failures, failures
    assert server._executor._fast_hits["imc"].value == 8
    assert "imc" not in server._executor._queues
    forwards = {1: [], 2: []}
    for span in tracer.spans():
        if span.name == "net.forward":
            forwards[span.trace_id // 1000].append(span)
    assert len(forwards[1]) == len(forwards[2]) == 4
    assert any(a.start_s < b.end_s and b.start_s < a.end_s
               for a in forwards[1] for b in forwards[2])
