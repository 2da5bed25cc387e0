"""The traced run: a ladder of public entry points, timed from one process.

The first requests of a round are replayed up a ladder, each rung a
deeper slice of the serving path, all through public functions::

    tonic.preprocess / tonic.postprocess      (APP frames only)
    engine.forward          ExecutionPlan.run_into     (+ layers.* children)
    batching.submit         BatchingExecutor.submit / submit_app
    server.roundtrip        DjinnClient -> DjinnServer, no gateway
    gateway.roundtrip       DjinnClient -> GatewayServer -> DjinnServer

The lower rungs are calls in this process; the two TCP rungs go to a server
child.  The benchmark records one span per rung and request — name, start, end,
parent rung, request id — in memory and writes them out at the end.  A
rung's self time is its median duration minus the rung below it.  Layers
that are pure functions of a request (protocol codec, cache keying,
scheduler decisions) are timed on the workload's own request frame.  A
layer the workload's configuration does not arm reports 0.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import (
    BatchingExecutor,
    BatchPolicy,
    DjinnClient,
    Message,
    MessageType,
    ModelRegistry,
)
from repro.core.protocol import encode_message, frame_parser
from repro.gateway import ResponseCache, response_key
from repro.nn import LayerCache, analyze, plan_footprint
from repro.obs import LayerTimer, MetricsRegistry
from repro.sched import AdmissionController, LatencyModel, QosConfig, make_policy
from repro.tonic import build_default_apps, decode_raw

import stats
from harness import ServerChild, make_send
from server_child import layer_cache_config
from workloads import Stream, Workload

#: layers.* groups, by the repo's layer type names
LAYER_GROUPS = {
    "Convolution": "layers.conv_ms",
    "InnerProduct": "layers.inner_product_ms",
    "ReLU": "layers.activation_ms",
    "Tanh": "layers.activation_ms",
    "HardTanh": "layers.activation_ms",
    "Sigmoid": "layers.activation_ms",
    "Softmax": "layers.activation_ms",
    "Pooling": "layers.pool_norm_ms",
    "LRN": "layers.pool_norm_ms",
}
LAYER_METRICS = ("layers.conv_ms", "layers.inner_product_ms",
                 "layers.activation_ms", "layers.pool_norm_ms",
                 "layers.other_ms")

#: repetitions of each pure-function microbenchmark
MICRO_REPS = 200
#: requests the per-layer timer pass and the max-batch pass replay
TIMER_REQUESTS = 50
MAXBATCH_REPS = 5
#: requests per rung before the ladder moves the block to the next rung
LADDER_BLOCK = 50


class SpanLog:
    """Benchmark-side spans, kept in memory until the run ends."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, Optional[str], int]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[str], request: int) -> None:
        self.spans.append((name, start, end, parent, request))

    def timed(self, name: str, parent: Optional[str], request: int,
              fn: Callable, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.add(name, start, time.perf_counter(), parent, request)
        return result

    def p50_ms(self, name: str) -> float:
        durations = [end - start for n, start, end, _, _ in self.spans
                     if n == name]
        return stats.percentile(durations, 50) * 1e3 if durations else 0.0

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, spans=[
                {"name": n, "start_s": s, "end_s": e, "parent": p,
                 "request": r} for n, s, e, p, r in self.spans]), fh)


def _median_us(fn: Callable[[], object], reps: int = MICRO_REPS) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return stats.percentile(samples, 50) * 1e6


def _decode(frame: bytes) -> Message:
    """Drive the sans-IO parser over one in-memory frame."""
    parser = frame_parser()
    need = next(parser)
    offset = 0
    try:
        while True:
            chunk = frame[offset:offset + need]
            offset += need
            need = parser.send(chunk)
    except StopIteration as done:
        return done.value


def _request_message(workload: Workload, payload: np.ndarray) -> Message:
    if workload.frame == "app":
        return DjinnClient.app_message(workload.model, payload)
    return Message(MessageType.INFER_REQUEST, name=workload.model,
                   tensor=payload, deadline_ms=workload.deadline_ms)


def _response_message(workload: Workload, reference) -> Message:
    if workload.frame == "app":
        from repro.core.protocol import KIND_TEXT

        return Message(MessageType.APP_RESPONSE, name=workload.model,
                       text=json.dumps(reference), payload_kind=KIND_TEXT)
    return Message(MessageType.INFER_RESPONSE, name=workload.model,
                   tensor=reference)


def _protocol_metrics(workload, payload, reference) -> Dict[str, float]:
    request = _request_message(workload, payload)
    frame = encode_message(request)
    return {
        "protocol.encode_us": _median_us(lambda: encode_message(request)),
        "protocol.decode_us": _median_us(lambda: _decode(frame)),
        "protocol.request_bytes": float(len(frame)),
        "protocol.response_bytes": float(
            len(encode_message(_response_message(workload, reference)))),
    }


def _gateway_cache_metrics(workload, payload, reference) -> Dict[str, float]:
    names = ("gateway_cache.key_us", "gateway_cache.get_us",
             "gateway_cache.put_us")
    if not workload.cache_mb:
        return dict.fromkeys(names, 0.0)
    request = _request_message(workload, payload)
    kind = request.payload_kind
    cache = ResponseCache(int(workload.cache_mb * 1024 * 1024))
    key = response_key(workload.model, kind, payload)
    put = lambda: cache.put(key, workload.model, kind, tensor=reference,
                            response_kind=int(MessageType.INFER_RESPONSE))
    put()
    return {
        names[0]: _median_us(lambda: response_key(workload.model, kind, payload)),
        names[1]: _median_us(lambda: cache.get(key, workload.model, kind)),
        names[2]: _median_us(put),
    }


def _sched_metrics(workload, rows: int, forward_s: float) -> Dict[str, float]:
    out = {"sched.plan_us": 0.0, "sched.admit_us": 0.0}
    latency = LatencyModel()
    latency.observe(workload.model, rows, forward_s)
    deadline_s = workload.deadline_ms / 1e3
    if workload.sched:
        policy = make_policy(workload.sched)
        out["sched.plan_us"] = _median_us(lambda: policy.plan(
            now=0.0, depth_rows=rows, min_deadline_s=deadline_s,
            max_batch=workload.max_batch,
            timeout_s=workload.timeout_ms / 1e3,
            est_s=lambda r: latency.estimate_s(workload.model, r),
            active_models=1))
    if workload.admission:
        controller = AdmissionController(QosConfig(admission=True), latency,
                                         clock=lambda: 0.0)
        out["sched.admit_us"] = _median_us(lambda: controller.admit(
            workload.model, deadline_s, "", 1))
    return out


def _layer_cache_probe_us(workload, plan, x: np.ndarray) -> float:
    if not workload.layer_cache_entries:
        return 0.0
    cache = LayerCache(plan, max_entries=workload.layer_cache_entries)
    with plan.lock:
        np.copyto(plan.input_view(len(x)), x)
        plan.execute_range(len(x), 0, cache.split + 1)
        act = plan.snapshot(cache.split, len(x))[cache.top][0]
    cache.insert(cache.digest(act), act, act[:1])
    return _median_us(lambda: cache.probe(cache.digest(act), act))


RUNGS = ("tonic.preprocess", "engine.forward", "tonic.postprocess",
         "batching.submit", "server.roundtrip", "gateway.roundtrip")


def _climb(workload: Workload, payloads: list, registry, plan, out_shape,
           log: SpanLog) -> List[np.ndarray]:
    """Replay ``payloads`` up the ladder; returns the model inputs they
    became.

    The requests climb in blocks — a block runs on one rung, then the same
    block on the next — so every rung works with warm CPU caches, as in a
    tight serving loop, while drift in host speed over the seconds the
    replay takes still lands on all rungs alike.
    """
    model = workload.model
    app = (build_default_apps(registry)[model]
           if workload.frame == "app" else None)
    executor = BatchingExecutor(
        registry, BatchPolicy(workload.max_batch, workload.timeout_ms),
        metrics=MetricsRegistry(), sched=workload.sched,
        layer_cache=layer_cache_config(workload))
    inputs: List[np.ndarray] = []
    block_size = max(1, min(LADDER_BLOCK, len(payloads) // 4))
    # The two TCP rungs talk to a server child: with client, gateway and
    # backend in one process they would queue for a single GIL and read
    # twice as slow as the service the untraced run measures.
    with ServerChild(workload) as child, \
            DjinnClient(*child.backend) as direct_client, \
            DjinnClient(*child.gateway) as gateway_client:
        direct = make_send(direct_client, workload)
        via_gateway = make_send(gateway_client, workload)
        try:
            for start in range(0, len(payloads), block_size):
                ids = range(start, min(start + block_size, len(payloads)))
                if app is None:
                    raws = {i: payloads[i] for i in ids}
                    inputs.extend(raws.values())
                else:
                    raws = {i: decode_raw(_request_message(workload,
                                                           payloads[i]))
                            for i in ids}
                    for i in ids:
                        x, _ = log.timed("tonic.preprocess", "batching.submit",
                                         i, app.preprocess_batch, [raws[i]])
                        inputs.append(np.asarray(x, dtype=np.float32))
                outs = {i: np.empty((len(inputs[i]),) + out_shape,
                                    dtype=np.float32) for i in ids}
                for i in ids:
                    log.timed("engine.forward", "batching.submit", i,
                              plan.run_into, inputs[i], outs[i])
                for i in ids:
                    if app is None:
                        log.timed("batching.submit", "server.roundtrip", i,
                                  executor.submit, model, inputs[i])
                    else:
                        log.timed("tonic.postprocess", "batching.submit", i,
                                  app.postprocess_batch, outs[i], [raws[i]],
                                  [len(outs[i])])
                        log.timed("batching.submit", "server.roundtrip", i,
                                  executor.submit_app, model, app, raws[i])
                for i in ids:
                    log.timed("server.roundtrip", "gateway.roundtrip", i,
                              direct, payloads[i])
                for i in ids:
                    log.timed("gateway.roundtrip", None, i, via_gateway,
                              payloads[i])
        finally:
            executor.close()
        child.stop()
    return inputs


def _layer_groups(plan, inputs: List[np.ndarray], out_shape,
                  log: SpanLog) -> Dict[str, float]:
    """``layers.*``: a second forward pass with the ``timer=`` hook on (its
    own spans — the hook costs a little), grouped by layer type."""
    groups = dict.fromkeys(LAYER_METRICS, 0.0)
    timed = inputs[:TIMER_REQUESTS]
    for i, x in enumerate(timed):
        timer = LayerTimer(time.perf_counter)
        out = np.empty((len(x),) + out_shape, dtype=np.float32)
        log.timed("engine.forward_layers", None, i, plan.run_into, x, out, timer)
        for rec in timer.records:
            log.add(f"layers.{rec.name}", rec.start_s, rec.end_s,
                    "engine.forward_layers", i)
            groups[LAYER_GROUPS.get(rec.type_name, "layers.other_ms")] += \
                rec.duration_s * 1e3 / len(timed)
    return groups


def run_ladder(workload: Workload, stream: Stream, refs: list, net,
               requests: int, out_path: Path, header: dict
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Replay the round's first ``requests`` requests up the ladder.

    Returns every traced per-layer metric plus each rung's p50 (ms), and
    writes the spans to ``out_path``.
    """
    log = SpanLog()
    order = stream.order[:requests]
    payloads = [stream.payloads[k] for k in order]
    registry = ModelRegistry()
    registry.register(workload.model, net)  # the oracle's copy: no second build
    # the plan the backend's worker compiles, run at each request's width
    plan = registry.plan(workload.model, workload.max_batch)
    out_shape = tuple(net.output_shape)

    inputs = _climb(workload, payloads, registry, plan, out_shape, log)
    rungs = {name: log.p50_ms(name) for name in RUNGS}
    tonic_ms = rungs["tonic.preprocess"] + rungs["tonic.postprocess"]
    metrics = {
        "tonic.preprocess_us": rungs["tonic.preprocess"] * 1e3,
        "tonic.postprocess_us": rungs["tonic.postprocess"] * 1e3,
        "engine.forward_ms": rungs["engine.forward"],
        "batching.submit_us": rungs["batching.submit"] * 1e3,
        "batching.self_us": (rungs["batching.submit"]
                             - rungs["engine.forward"] - tonic_ms) * 1e3,
        "server.direct_p50_ms": rungs["server.roundtrip"],
        "server.self_us": (rungs["server.roundtrip"]
                           - rungs["batching.submit"]) * 1e3,
        "gateway.hop_us": (rungs["gateway.roundtrip"]
                           - rungs["server.roundtrip"]) * 1e3,
    }
    metrics.update(_layer_groups(plan, inputs, out_shape, log))

    # every request has at least one row, so max_batch requests fill a batch
    full = np.concatenate([inputs[i % len(inputs)]
                           for i in range(workload.max_batch)]
                          )[:workload.max_batch]
    full_out = np.empty((len(full),) + out_shape, dtype=np.float32)
    rows = int(np.median([len(x) for x in inputs]))
    metrics["engine.forward_maxbatch_ms_per_row"] = _median_us(
        lambda: plan.run_into(full, full_out), MAXBATCH_REPS) / 1e3 / len(full)
    metrics["engine.gflops"] = analyze(net, rows).total_flops / 1e9
    metrics["engine.arena_mb"] = (plan_footprint(net, workload.max_batch)
                                  ["total_bytes"] / 2**20)
    metrics["engine.layer_cache_probe_us"] = _layer_cache_probe_us(
        workload, plan, inputs[0])
    first_ref = refs[order[0]]
    metrics.update(_protocol_metrics(workload, payloads[0], first_ref))
    metrics.update(_gateway_cache_metrics(workload, payloads[0], first_ref))
    metrics.update(_sched_metrics(workload, rows,
                                  rungs["engine.forward"] / 1e3))

    log.write(out_path, dict(header, rung_p50_ms=rungs))
    return metrics, rungs
