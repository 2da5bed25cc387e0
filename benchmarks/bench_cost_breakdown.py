"""Per-request cost attribution: where a DjiNN request's time actually goes.

The paper's Fig-4 shows a static per-layer breakdown measured offline; the
serving stack's span tracer lets us reproduce that breakdown *per request,
in production form*: every traced request is folded into a cost ledger over
a fixed stage taxonomy (client.serialize, queueing, batch assembly, the
forward pass, respond) with an explicit *unattributed* residual — time the
instrumentation cannot explain is reported, never silently absorbed.

This bench sweeps serving configurations (model x max-batch x execution
mode) against a live server, aggregates the ledgers of every traced
request (wall-time weighted), and records the stage shares.  It also
exercises the tail-exemplar path end to end: the latency histogram's
slowest-request exemplars are resolved back through the tracer into a full
cost ledger — the same lookup ``djinn slow`` performs.

It also sweeps the APP frame path against the classic preprocessed-tensor
path for the same queries: the raw uint8 payload is a fraction of the
preprocessed float tensor's wire bytes, and the preprocess milliseconds —
invisible client-side work before this protocol — show up *server-side*
in the ledger's ``preprocess``/``postprocess`` stages.  Finally it
A/Bs the batch-1 fast path against the slot-ring path at depth 1 on a
pool-armed executor.

``--check`` gates (CI):

* stage shares (incl. the residual) sum to 100% in every configuration;
* the unattributed residual — the median over ``REPEATS`` rounds of
  ``--requests`` each — stays under ``--residual-limit`` (default 5%) in
  every gated configuration — attribution must explain the request;
* the metrics exposition survives a render -> parse round trip;
* at least one tail exemplar resolves to a full cost ledger;
* the APP path attributes a non-zero ``preprocess`` share server-side and
  ships fewer wire bytes than the preprocessed tensor;
* the batch-1 fast path is no slower than the slot-ring path at depth 1
  (enforced only on >= 4-core hosts; honest numbers always recorded).

Usage::

    python benchmarks/bench_cost_breakdown.py            # sweep + JSON
    python benchmarks/bench_cost_breakdown.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (BatchingExecutor, BatchPolicy, DjinnClient,  # noqa: E402
                        DjinnServer, ModelRegistry, ProcPoolExecutor)
from repro.models import build_spec  # noqa: E402
from repro.obs import (aggregate_shares, build_ledger, build_ledgers,  # noqa: E402
                       get_tracer, parse_exposition, render_exposition)
from repro.obs.metrics import MetricsRegistry  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))

from _common import gate_fields  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

MODELS = ("dig", "imc")
BATCHES = (1, 8, 32)
MODES = ("threaded", "proc:2")
#: measured rounds per configuration; the gate reads the median residual
REPEATS = 3


def _tail_exemplars(dump: dict) -> list:
    """``(latency_s, trace_id_hex)`` from the request-latency histogram."""
    entry = dump.get("metrics", {}).get("djinn_request_latency_seconds", {})
    found = []
    for sample in entry.get("samples", ()):
        for value, label in sample.get("exemplars", ()):
            found.append((float(value), str(label)))
    found.sort(key=lambda e: (-e[0], e[1]))
    return found


def _complete_ledgers(tracer) -> list:
    """Ledgers of the complete traces (a client.infer root) the tracer holds;
    a request straddling a clear leaves a rootless span fragment behind."""
    by_trace = {}
    for span in tracer.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    return build_ledgers([
        span for spans in by_trace.values()
        if any(s.name == "client.infer" for s in spans) for span in spans])


def run_config(model: str, batch: int, mode: str, requests: int,
               warmup: int) -> dict:
    """Serve ``REPEATS`` rounds of ``requests`` traced queries against one
    server and fold each round into stage shares.

    The reported shares are those of the round with the *median* residual:
    one scheduling hiccup in a 10-request round of a 0.3 ms model moves
    the residual by points, and the gate is about attribution, not about
    the quietest (or noisiest) round this host happened to produce.
    """
    tracer = get_tracer()
    registry = ModelRegistry()
    registry.register_spec(model, build_spec(model), seed=0)
    server = DjinnServer(
        registry, port=0,
        batching=BatchPolicy(max_batch=batch, timeout_ms=2.0),
        workers=(None if mode == "threaded" else mode),
        profile_layers=True)
    server.start()
    tracer.clear()
    tracer.enable()
    rounds = []
    exemplar_entry = None
    try:
        host, port = server.address
        rng = np.random.default_rng(0)
        x = rng.standard_normal(
            (batch,) + tuple(registry.get(model).input_shape)).astype(np.float32)
        with DjinnClient(host, port) as client:
            for _ in range(warmup):
                client.infer(model, x)
            # let the server finish the last warmup request's bookkeeping
            # before clearing, or its tail spans leak into the measurement
            time.sleep(0.05)
            tracer.clear()  # ledgers cover only the measured requests
            seen = set()
            for _ in range(REPEATS):
                for _ in range(requests):
                    client.infer(model, x)
                time.sleep(0.05)  # same reason, at the round boundary
                rounds.append([ledger for ledger in _complete_ledgers(tracer)
                               if ledger.trace_id not in seen])
                seen.update(ledger.trace_id for ledger in rounds[-1])
            dump = client.metrics()
            # the djinn-slow path: histogram exemplar -> tracer -> cost ledger
            for latency_s, trace_hex in _tail_exemplars(dump):
                spans = tracer.spans(int(trace_hex, 16))
                if spans:
                    exemplar_entry = {
                        "latency_s": latency_s, "trace_id": trace_hex,
                        "ledger": build_ledger(spans).to_dict()}
                    break
    finally:
        tracer.disable()
        server.stop()
        tracer.clear()

    shares = [aggregate_shares(ledgers) for ledgers in rounds]
    residuals = [round_shares.get("unattributed", 0.0)
                 for round_shares in shares]
    median = sorted(range(REPEATS), key=residuals.__getitem__)[REPEATS // 2]
    return {
        "model": model,
        "batch": batch,
        "mode": mode,
        "requests": len(rounds[median]),
        "wall_s": sum(ledger.wall_s for ledger in rounds[median]),
        "shares": shares[median],
        "residual_share": residuals[median],
        "residual_rounds": residuals,
        "tail_exemplar": exemplar_entry,
        "exposition": render_exposition(dump),
    }


def run_raw_vs_tensor(requests: int, warmup: int) -> dict:
    """APP path (raw payload, server-side pre/post) vs preprocessed INFER.

    Same queries both ways against one batched server: the APP frame ships
    the raw uint8 image and the server runs the Tonic pipeline; the
    classic frame ships the preprocessed float tensor the client computed.
    Records wire payload bytes and the aggregated stage shares of each
    path — the APP path's ``preprocess``/``postprocess`` shares are the
    milliseconds that used to hide client-side.
    """
    from repro.tonic import DigApp

    tracer = get_tracer()
    registry = ModelRegistry()
    registry.register_spec("dig", build_spec("dig"), seed=0)
    server = DjinnServer(registry, port=0,
                         batching=BatchPolicy(max_batch=8, timeout_ms=2.0))
    server.start()
    rng = np.random.default_rng(0)
    raw = (rng.random((1, 28, 28)) * 255).astype(np.uint8)
    tensor = DigApp(backend=None).preprocess(
        raw.astype(np.float32) / np.float32(255.0))

    def measure(submit) -> dict:
        tracer.clear()
        tracer.enable()
        try:
            for _ in range(warmup):
                submit()
            time.sleep(0.05)
            tracer.clear()
            for _ in range(requests):
                submit()
            time.sleep(0.05)
        finally:
            tracer.disable()
        ledgers = build_ledgers(tracer.spans())
        tracer.clear()
        return aggregate_shares(ledgers)

    try:
        host, port = server.address
        with DjinnClient(host, port) as client:
            app_shares = measure(lambda: client.infer_app("dig", raw))
            tensor_shares = measure(lambda: client.infer("dig", tensor))
    finally:
        server.stop()

    return {
        "model": "dig",
        "requests": requests,
        "raw_wire_bytes": int(raw.nbytes),
        "tensor_wire_bytes": int(tensor.nbytes),
        "wire_ratio": tensor.nbytes / raw.nbytes,
        "app_shares": app_shares,
        "tensor_shares": tensor_shares,
        "app_preprocess_share": app_shares.get("preprocess", 0.0),
        "app_postprocess_share": app_shares.get("postprocess", 0.0),
    }


def run_fastpath_depth1(requests: int, warmup: int) -> dict:
    """A/B the batch-1 fast path against the slot ring at depth 1.

    One pool-armed executor, serial single-row submits (queue always
    empty): first with the fast path live — the request runs in-parent —
    then with the executor's per-model kill switch thrown so every
    request pays the queue handoff and shm slot-ring roundtrip.
    """
    registry = ModelRegistry()
    registry.register_spec("dig", build_spec("dig"), seed=0)
    pool = ProcPoolExecutor(registry, workers=2, max_batch=8)
    executor = BatchingExecutor(
        registry, BatchPolicy(max_batch=8, timeout_ms=0.5),
        pool=pool, metrics=MetricsRegistry())
    x1 = np.random.default_rng(0).standard_normal(
        (1,) + tuple(registry.get("dig").input_shape)).astype(np.float32)

    def mean_latency_s() -> float:
        for _ in range(warmup):
            executor.submit("dig", x1)
        start = time.perf_counter()
        for _ in range(requests):
            executor.submit("dig", x1)
        return (time.perf_counter() - start) / requests

    try:
        fast_s = mean_latency_s()
        fast_hits = executor._fast_hits.labels(model="dig").value
        assert fast_hits >= requests, (
            f"fast path took only {fast_hits:.0f}/{requests} requests")
        executor._fast_off.add("dig")  # kill switch: force the slot ring
        ring_s = mean_latency_s()
    finally:
        executor.close()
        pool.close()
        registry.close_shm()

    return {
        "model": "dig",
        "requests": requests,
        "fast_ms": fast_s * 1e3,
        "slot_ring_ms": ring_s * 1e3,
        "speedup": ring_s / fast_s,
        "fast_hits": fast_hits,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--requests", type=int, default=12,
                        help="measured traced requests per configuration")
    parser.add_argument("--warmup", type=int, default=3,
                        help="untimed requests before measuring (JIT, caches)")
    parser.add_argument("--residual-limit", type=float, default=0.05,
                        help="max unattributed share tolerated by --check")
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                      "BENCH_cost.json"))
    parser.add_argument("--check", action="store_true",
                        help="CI gate: shares sum to 100%%, residual under "
                             "the limit, exposition round-trips, a tail "
                             "exemplar resolves to a ledger")
    args = parser.parse_args(argv)

    configs = []
    for model in MODELS:
        for mode in MODES:
            for batch in BATCHES:
                entry = run_config(model, batch, mode,
                                   args.requests, args.warmup)
                configs.append(entry)
                ordered = sorted(
                    ((stage, share) for stage, share in entry["shares"].items()
                     if share > 0.005), key=lambda e: -e[1])
                breakdown = "  ".join(f"{stage} {share:.1%}"
                                      for stage, share in ordered)
                print(f"{model:4s} batch={batch:<3d} {mode:9s} "
                      f"residual {entry['residual_share']:5.1%}  {breakdown}")

    raw_vs_tensor = run_raw_vs_tensor(args.requests, args.warmup)
    print(f"raw APP path: {raw_vs_tensor['raw_wire_bytes']} wire bytes vs "
          f"{raw_vs_tensor['tensor_wire_bytes']} preprocessed "
          f"({raw_vs_tensor['wire_ratio']:.1f}x), server-side preprocess "
          f"share {raw_vs_tensor['app_preprocess_share']:.1%}")

    fastpath = run_fastpath_depth1(max(args.requests * 4, 40), args.warmup)
    print(f"depth-1 batch-1: fast path {fastpath['fast_ms']:.3f} ms vs "
          f"slot ring {fastpath['slot_ring_ms']:.3f} ms "
          f"({fastpath['speedup']:.2f}x)")

    gate = gate_fields()
    results = {
        **gate,
        "requests_per_config": args.requests,
        "residual_limit": args.residual_limit,
        "configs": [{k: v for k, v in entry.items() if k != "exposition"}
                    for entry in configs],
        "raw_vs_tensor": raw_vs_tensor,
        "fastpath_depth1": fastpath,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        for entry in configs:
            tag = f"{entry['model']}/batch={entry['batch']}/{entry['mode']}"
            total = sum(entry["shares"].values())
            if entry["shares"] and abs(total - 1.0) > 1e-6:
                failures.append(f"{tag}: stage shares sum to {total:.4f}, "
                                f"not 1.0")
            if not entry["requests"]:
                failures.append(f"{tag}: no ledgers built")
            if entry["residual_share"] > args.residual_limit:
                failures.append(
                    f"{tag}: unattributed residual "
                    f"{entry['residual_share']:.1%} > "
                    f"{args.residual_limit:.0%}")
            try:
                samples = parse_exposition(entry["exposition"])
            except ValueError as exc:
                failures.append(f"{tag}: exposition does not parse: {exc}")
            else:
                for metric in ("djinn_requests_total",
                               "djinn_stage_seconds_total",
                               "djinn_request_latency_seconds_bucket"):
                    if metric not in samples:
                        failures.append(f"{tag}: exposition lacks {metric}")
        if not any(entry["tail_exemplar"] for entry in configs):
            failures.append("no tail exemplar resolved to a cost ledger")
        if raw_vs_tensor["app_preprocess_share"] <= 0.0:
            failures.append("APP path attributed no server-side preprocess "
                            "time — the APP pipeline is not being measured")
        if raw_vs_tensor["raw_wire_bytes"] >= raw_vs_tensor["tensor_wire_bytes"]:
            failures.append("raw payload is not smaller than the "
                            "preprocessed tensor on the wire")
        if gate["gate_enforced"] and fastpath["speedup"] < 1.0:
            failures.append(
                f"batch-1 fast path is slower than the slot ring at depth 1 "
                f"({fastpath['fast_ms']:.3f} ms vs "
                f"{fastpath['slot_ring_ms']:.3f} ms)")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        worst = max(entry["residual_share"] for entry in configs)
        print(f"cost check passed: {len(configs)} configs, worst residual "
              f"{worst:.1%} <= {args.residual_limit:.0%}, exposition "
              f"round-trips, tail exemplar ledger present, APP preprocess "
              f"attributed server-side, fast path "
              f"{fastpath['speedup']:.2f}x the slot ring at depth 1")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
