"""Command-line interface: operate the DjiNN service like the original
release's binaries.

Commands
--------
``djinn models``
    Print the Tonic model zoo (Table 1).
``djinn serve [--models dig,pos,...] [--port N] [--batch N --timeout-ms T]
[--workers proc:N]``
    Start a DjiNN server with seeded models and block until Ctrl-C.
    ``--workers proc:N`` executes forwards in N forked worker processes
    (weights inherited read-only, one physical copy).
``djinn query --host H --port P --app dig``
    Run one Tonic query against a live server and print the result.
``djinn stream --host H --port P [--model asr] [--chunks K] [--words a,b]``
    Open a streaming session (stream frames): for ``asr``, synthesize an
    utterance, feed it in chunks, and print the incremental partial
    transcripts plus the exact final one; for any other model, stream
    stamped chunks through the generic label app.  Works against a server
    or a gateway (streams are pinned to one backend for their lifetime).
``djinn gateway --backends N [--models ...] [--policy P] [--port N]``
    Launch an in-process fleet of N DjiNN backends behind a sharded,
    fault-tolerant gateway speaking the same protocol (clients and
    ``djinn query`` work unchanged against the gateway port).
``djinn metrics --host H --port P [--json]``
    Fetch a live server's (or gateway's fleet-merged) metrics registry and
    print it as Prometheus-style text exposition.
``djinn trace [--backends N] [--requests K] [--out trace.json] [--json]``
    Run a small in-process fleet behind a gateway with tracing and
    per-layer profiling on, send traced queries, print the span tree, and
    dump a Chrome trace (chrome://tracing / Perfetto) plus the metrics
    exposition — the paper's Fig-4 breakdown, live.  ``--json`` prints
    the last trace as structured span records instead of the tree.
``djinn slow [--backends N] [--requests K] [--top K] [--json]``
    Run a traced in-process fleet, then chase the tail: the latency
    histograms carry trace-id exemplars for their slowest requests, and
    ``slow`` resolves each one back to its full span tree and per-stage
    cost ledger (where the p99 actually went).
``djinn top --host H --port P [--interval S] [--iterations N]``
    Live terminal view of a running server or gateway: per-model qps and
    p50/p95/p99, stage-breakdown bars from the always-on stage-seconds
    counters, SLO burn rates, and worker health — fleet-wide when pointed
    at a gateway (its metrics merge every backend's shm dump).
``djinn chaos [--scenario NAME] [--seed N] [--requests K] [--json] [--out D]``
    Run seeded fault-injection scenarios against an in-process gateway +
    fleet and check the end-to-end invariants (no request lost or answered
    twice, retries within budget and matching the metrics, traces closed).
    ``--list`` prints the catalog; exits nonzero on any violation.
``djinn plan``
    Per-GPU capability and WSC design comparison (the capacity-planning
    example, in command form).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

import numpy as np

__all__ = ["main"]

SERVABLE = ("dig", "pos", "chk", "ner", "imc", "face", "asr")


def _build_registry(names: List[str]):
    from .core import ModelRegistry
    from .models import build_spec

    registry = ModelRegistry()
    for seed, name in enumerate(names):
        if name not in SERVABLE:
            raise SystemExit(f"unknown model {name!r}; choose from {', '.join(SERVABLE)}")
        print(f"loading {name} (seeded synthetic weights)...", file=sys.stderr)
        registry.register_spec(name, build_spec(name), seed=seed)
    return registry


def cmd_models(_args) -> int:
    from .models import APPLICATIONS, build_net, model_info

    print(f"{'app':5s} {'network':9s} {'type':4s} {'params':>13s} {'input':>16s} {'output':>8s}")
    for app in APPLICATIONS:
        info = model_info(app)
        net = build_net(app)
        print(f"{app:5s} {info.network:9s} {info.network_type:4s} "
              f"{net.param_count():>13,d} {str(net.input_shape):>16s} "
              f"{str(net.output_shape):>8s}")
    return 0


def _layer_cache_config(args):
    """``--layer-cache N`` (+ ``--layer-cache-tol``) → LayerCacheConfig."""
    if not getattr(args, "layer_cache", 0):
        return None
    from .nn import LayerCacheConfig

    return LayerCacheConfig(max_entries=args.layer_cache,
                            tolerance=args.layer_cache_tol)


def cmd_serve(args) -> int:
    from .core import BatchPolicy, DjinnServer

    registry = _build_registry([m for m in args.models.split(",") if m])
    for entry in args.load or []:
        try:
            path, name = entry.rsplit("=", 1)
        except ValueError:
            raise SystemExit(f"--load expects PATH=NAME, got {entry!r}")
        from .nn import load_net

        print(f"loading {name} from {path}...")
        registry.register(name, load_net(path))
    batching = None
    if args.batch:
        batching = BatchPolicy(max_batch=args.batch, timeout_ms=args.timeout_ms)
    layer_cache = _layer_cache_config(args)
    if layer_cache is not None and not batching:
        raise SystemExit("--layer-cache requires --batch")
    server = DjinnServer(registry, host=args.host, port=args.port, batching=batching,
                         workers=args.workers or None,
                         sched=args.sched or None,
                         layer_cache=layer_cache)
    server.start()
    host, port = server.address
    mode = "batched" if batching else "unbatched"
    if args.sched:
        mode += f", {args.sched} sched"
    if args.workers:
        mode += f", {args.workers} workers"
    if layer_cache is not None:
        mode += f", layer cache {layer_cache.max_entries} entries"
    print(f"DjiNN serving {registry.names()} on {host}:{port} "
          f"({mode}); Ctrl-C to stop")
    try:
        while server._running.is_set():
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("\nstopping...")
    finally:
        server.stop()
    return 0


def _query_raw(client, args) -> int:
    """``--raw``: ship the unpreprocessed payload on an APP frame.

    The server runs the whole Tonic preprocess → DNN → postprocess
    pipeline and answers with the app's JSON result; the dig payload goes
    as uint8 pixel bytes (a quarter of the float wire size), NLP queries
    as UTF-8 text.
    """
    kwargs = dict(deadline_ms=args.deadline_ms, priority=args.priority,
                  tenant=args.tenant)
    if args.app == "dig":
        from .tonic import digit_dataset

        images, labels = digit_dataset(args.count, seed=args.seed)
        start = time.perf_counter()
        results = [client.infer_app("dig", (img * 255).astype(np.uint8),
                                    **kwargs)
                   for img in images]
        elapsed = time.perf_counter() - start
        predictions = [r[0] if isinstance(r, list) else r for r in results]
        print(f"predictions: {predictions}")
        print(f"labels:      {list(labels)}")
    else:
        from .tonic import generate_corpus

        sentence = generate_corpus(1, seed=args.seed)[0]
        start = time.perf_counter()
        tags = client.infer_app(args.app, " ".join(sentence.words), **kwargs)
        elapsed = time.perf_counter() - start
        print(" ".join(f"{w}/{t}" for w, t in zip(sentence.words, tags)))
    print(f"({elapsed * 1e3:.2f} ms round trips; "
          f"pre/postprocess ran server-side)")
    print("server stats:", client.stats())
    return 0


def cmd_query(args) -> int:
    from .core import DjinnClient, RemoteBackend

    with DjinnClient(args.host, args.port) as client:
        if args.raw:
            return _query_raw(client, args)
        backend = RemoteBackend(client, deadline_ms=args.deadline_ms,
                                priority=args.priority, tenant=args.tenant)
        if args.app == "dig":
            from .tonic import DigApp, digit_dataset

            images, labels = digit_dataset(args.count, seed=args.seed)
            result, timing = DigApp(backend).run_timed(images)
            print(f"predictions: {result}")
            print(f"labels:      {list(labels)}")
        elif args.app in ("pos", "chk", "ner"):
            from .tonic import PosApp, Vocabulary, WindowFeaturizer, generate_corpus
            from .tonic.nlp import NlpApp

            sentence = generate_corpus(1, seed=args.seed)[0]
            featurizer = WindowFeaturizer(Vocabulary(sentence.words))
            app = (PosApp(backend, featurizer) if args.app == "pos"
                   else NlpApp(args.app, backend, featurizer))
            tags, timing = app.run_timed(list(sentence.words))
            print(" ".join(f"{w}/{t}" for w, t in zip(sentence.words, tags)))
        else:
            raise SystemExit(f"query does not support app {args.app!r} yet")
        print(f"(pre {timing.pre_s * 1e3:.2f} ms | dnn {timing.dnn_s * 1e3:.2f} ms | "
              f"post {timing.post_s * 1e3:.2f} ms)")
        print("server stats:", client.stats())
    return 0


def cmd_stream(args) -> int:
    from .core import DjinnClient

    with DjinnClient(args.host, args.port) as client:
        if args.model == "asr":
            from .tonic import LEXICON, synthesize_words

            words = [w for w in args.words.split(",") if w] or list(LEXICON)[:2]
            audio, _ = synthesize_words(words, seed=args.seed)
            chunk = max(1, -(-len(audio) // args.chunks))
            with client.open_stream("asr") as stream:
                for start in range(0, len(audio), chunk):
                    result = stream.send(audio[start:start + chunk])
                    print(f"chunk {result.seq}: partial="
                          f"{result.data.get('partial', '')!r}"
                          f"{'  [endpoint]' if result.final else ''}")
                    if result.final:
                        break
                final = stream.close()
            print(f"final transcript: {final.data.get('transcript', '')!r} "
                  f"(said: {' '.join(words)!r})")
        else:
            from .models import build_spec

            shape = tuple(build_spec(args.model).input_shape)
            rng = np.random.default_rng(args.seed)
            for index in range(args.streams):
                with client.open_stream(args.model) as stream:
                    for _ in range(args.chunks):
                        x = rng.normal(size=(1,) + shape).astype(np.float32)
                        result = stream.send(x)
                        print(f"stream {stream.stream_id} chunk {result.seq}: "
                              f"labels={result.data.get('labels')}")
                    final = stream.close()
                print(f"stream {stream.stream_id} final: "
                      f"{final.data.get('count')} chunk(s), "
                      f"transcript={final.data.get('labels')}")
    return 0


def cmd_gateway(args) -> int:
    from .core import BatchPolicy
    from .gateway import ClusterLauncher, GatewayServer, RetryPolicy

    if args.backends < 1:
        raise SystemExit(f"--backends must be >= 1, got {args.backends}")
    registry = _build_registry([m for m in args.models.split(",") if m])
    batching = None
    if args.batch:
        batching = BatchPolicy(max_batch=args.batch, timeout_ms=args.timeout_ms)
    qos = None
    if args.admission or args.tenant_qps or args.hedge_ms:
        from .sched import QosConfig

        qos = QosConfig(admission=args.admission, tenant_qps=args.tenant_qps,
                        hedge_ms=args.hedge_ms)
    layer_cache = _layer_cache_config(args)
    if layer_cache is not None and not batching:
        raise SystemExit("--layer-cache requires --batch")
    cluster = ClusterLauncher(
        registry, backends=args.backends, batching=batching,
        service_floor_s=args.floor_ms / 1e3,
        workers=args.workers or None,
        sched=args.sched or None,
        layer_cache=layer_cache,
    )
    cluster.start()
    try:
        gateway = GatewayServer(
            cluster.addresses, host=args.host, port=args.port,
            policy=args.policy,
            retry=RetryPolicy(max_attempts=args.retries),
            health_interval_s=args.health_interval,
            qos=qos,
            cache_mb=args.cache_mb,
        )
        gateway.start()
        try:
            host, port = gateway.address
            qos_note = ""
            if qos is not None:
                qos_note = (f", admission={'on' if qos.admission else 'off'}"
                            f", tenant_qps={qos.tenant_qps:g}"
                            f", hedge_ms={qos.hedge_ms:g}")
            if args.cache_mb:
                qos_note += f", cache={args.cache_mb:g}MiB"
            print(f"gateway fronting {len(cluster)} backends "
                  f"{[p for _, p in cluster.addresses]} on {host}:{port} "
                  f"(policy={args.policy}{qos_note}); Ctrl-C to stop")
            while gateway._running.is_set():
                time.sleep(0.5)
        except KeyboardInterrupt:
            print("\nstopping...")
        finally:
            gateway.stop()
    finally:
        cluster.stop()
    return 0


def cmd_metrics(args) -> int:
    import json

    from .core import DjinnClient

    with DjinnClient(args.host, args.port) as client:
        if args.json:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        else:
            sys.stdout.write(client.metrics_text())
    return 0


#: span names a healthy traced request must produce (``djinn trace --check``).
#: ``backend.queue`` is checked separately: an idle model serves batch-1
#: requests on the fast path, which skips the queue by design — its absence
#: is only healthy when the fast-path counter accounts for the request.
REQUIRED_SPANS = (
    "client.infer", "gateway.infer", "gateway.queue", "gateway.backend",
    "backend.infer", "batch.assemble", "net.forward",
)


def _traced_fleet_run(args, rows: int, read):
    """Send ``args.requests`` traced INFERs of ``rows`` rows each (models
    round-robin) through an in-process fleet of profiled backends behind a
    gateway; returns ``(tracer, read(client))``, read before teardown.
    The tracer keeps every span until the caller clears it."""
    from .core import BatchPolicy, DjinnClient
    from .gateway import ClusterLauncher, GatewayServer
    from .obs import get_tracer

    names = [m for m in args.models.split(",") if m]
    registry = _build_registry(names)
    out = sys.stderr if args.json else sys.stdout
    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    rng = np.random.default_rng(args.seed)
    cluster = ClusterLauncher(
        registry, backends=args.backends,
        batching=BatchPolicy(max_batch=args.batch, timeout_ms=args.timeout_ms),
        profile_layers=True,
    )
    try:
        with cluster:
            gateway = GatewayServer(cluster.addresses)
            gateway.start()
            try:
                host, port = gateway.address
                print(f"fleet of {len(cluster)} backends behind {host}:{port}; "
                      f"sending {args.requests} traced request(s)...", file=out)
                with DjinnClient(host, port) as client:
                    for i in range(args.requests):
                        model = names[i % len(names)]
                        shape = (rows,) + tuple(registry.get(model).input_shape)
                        client.infer(model, rng.normal(size=shape).astype(np.float32))
                    return tracer, read(client)
            finally:
                gateway.stop()
    finally:
        tracer.disable()


def cmd_trace(args) -> int:
    import json
    import os

    from .obs import coverage, format_trace, parse_exposition

    out = sys.stderr if args.json else sys.stdout
    tracer, metrics_text = _traced_fleet_run(
        args, 2, lambda client: client.metrics_text())

    trace_ids = tracer.trace_ids()
    if not trace_ids:
        print("no traces captured", file=sys.stderr)
        return 1
    spans = tracer.spans(trace_ids[-1])
    cov = coverage(spans)
    if args.json:
        print(json.dumps({
            "trace_id": f"{trace_ids[-1]:016x}",
            "coverage": cov,
            "spans": [span.to_dict() for span in spans],
        }, indent=2, sort_keys=True))
    else:
        print(f"\n--- last trace ({len(spans)} spans, "
              f"coverage {cov:.1%} of client-observed wall time) ---")
        print(format_trace(spans))

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        tracer.dump_chrome(args.out)
        print(f"\nChrome trace ({len(trace_ids)} traces) -> {args.out}", file=out)
    if args.metrics_out:
        os.makedirs(os.path.dirname(args.metrics_out) or ".", exist_ok=True)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(metrics_text)
        print(f"metrics exposition -> {args.metrics_out}", file=out)

    if args.check:
        failures = []
        seen = {span.name for span in spans}
        for required in REQUIRED_SPANS:
            if required not in seen:
                failures.append(f"missing span {required!r}")
        if not any(name.startswith("layer.") for name in seen):
            failures.append("missing per-layer spans (layer.*)")
        if "backend.queue" not in seen:
            try:
                fast_hits = sum(
                    parse_exposition(metrics_text)
                    .get("djinn_fast_path_total", {}).values())
            except ValueError:
                fast_hits = 0.0
            if not fast_hits:
                failures.append(
                    "missing span 'backend.queue' with no fast-path hits — "
                    "the request took neither serving path")
        if cov < 0.95:
            failures.append(f"trace coverage {cov:.1%} < 95%")
        try:
            samples = parse_exposition(metrics_text)
        except ValueError as exc:
            failures.append(f"exposition does not parse: {exc}")
        else:
            for metric in ("djinn_requests_total", "djinn_request_latency_seconds_bucket",
                           "gateway_requests_total"):
                if metric not in samples:
                    failures.append(f"exposition lacks {metric}")
        if failures:
            print("\nCHECK FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
            return 1
        print("\ncheck ok: all required spans present, coverage >= 95%, "
              "exposition parses", file=out)
    tracer.clear()
    return 0


def _latency_exemplars(dump: dict) -> List:
    """``(latency_s, trace_id_hex)`` tail exemplars from a metrics dump,
    slowest first.  Prefers the gateway's client-observed histogram (it
    includes queueing and routing) over the backend one."""
    metrics = dump.get("metrics", {})
    for name in ("gateway_request_latency_seconds", "djinn_request_latency_seconds"):
        entry = metrics.get(name)
        if entry is None:
            continue
        found = []
        for sample in entry.get("samples", ()):
            for value, label in sample.get("exemplars", ()):
                found.append((float(value), str(label)))
        if found:
            found.sort(key=lambda e: (-e[0], e[1]))
            return found
    return []


def cmd_slow(args) -> int:
    import json

    from .obs import build_ledger, format_ledger, format_trace

    tracer, dump = _traced_fleet_run(args, 1, lambda client: client.metrics())

    exemplars = _latency_exemplars(dump)
    if not exemplars:
        print("no tail exemplars captured", file=sys.stderr)
        return 1
    reports = []
    for value, trace_hex in exemplars[:args.top]:
        spans = tracer.spans(int(trace_hex, 16))
        if spans:
            reports.append((value, trace_hex, spans, build_ledger(spans)))
    if not reports:
        print("exemplar trace ids did not resolve to captured spans",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps([{
            "rank": rank,
            "latency_s": value,
            "trace_id": trace_hex,
            "ledger": ledger.to_dict(),
            "spans": [span.to_dict() for span in spans],
        } for rank, (value, trace_hex, spans, ledger)
            in enumerate(reports, 1)], indent=2, sort_keys=True))
    else:
        for rank, (value, trace_hex, spans, ledger) in enumerate(reports, 1):
            print(f"\n=== #{rank} slowest: {value * 1e3:.2f} ms"
                  f"  trace {trace_hex} ===")
            print(format_trace(spans))
            print()
            print(format_ledger(ledger))
    tracer.clear()
    return 0


def _sample_map(dump: dict, name: str):
    """``{sorted-label-tuple: sample}`` plus histogram bucket bounds."""
    entry = dump.get("metrics", {}).get(name)
    if not entry:
        return {}, []
    samples = {}
    for sample in entry.get("samples", ()):
        key = tuple(sorted(sample.get("labels", {}).items()))
        samples[key] = sample
    return samples, list(entry.get("buckets", ()))


def _top_frame(dump: dict, prev: dict, elapsed_s: float, monitor) -> str:
    """Render one ``djinn top`` frame from two consecutive metrics dumps."""
    from .obs import percentile_from_counts

    prefix = ("gateway" if "gateway_requests_total" in dump.get("metrics", {})
              else "djinn")
    requests, _ = _sample_map(dump, f"{prefix}_requests_total")
    prev_requests, _ = _sample_map(prev, f"{prefix}_requests_total")
    latency, bounds = _sample_map(dump, f"{prefix}_request_latency_seconds")
    prev_latency, _ = _sample_map(prev, f"{prefix}_request_latency_seconds")

    lines = [f"{'model':8s} {'qps':>8s} {'p50ms':>8s} {'p95ms':>8s} "
             f"{'p99ms':>8s} {'burn5m':>7s} {'burn1h':>7s}  slo"]
    for key, sample in sorted(requests.items()):
        model = dict(key).get("model", "?")
        delta = sample["value"] - prev_requests.get(key, {}).get("value", 0.0)
        qps = delta / elapsed_s if elapsed_s > 0 else 0.0
        counts = []
        hist = latency.get(key)
        if hist is not None:
            counts = list(hist["counts"])
            prev_hist = prev_latency.get(key)
            if prev_hist is not None:
                fresh = [c - p for c, p in zip(counts, prev_hist["counts"])]
                if sum(fresh) > 0:  # interval percentiles when there is traffic
                    counts = fresh
        pcts = [percentile_from_counts(bounds, counts, q) * 1e3
                if counts and sum(counts) else 0.0 for q in (50.0, 95.0, 99.0)]
        snap = monitor.snapshot(model)
        state = "FIRING" if snap["firing"] else "ok"
        lines.append(f"{model:8s} {qps:>8.1f} {pcts[0]:>8.2f} {pcts[1]:>8.2f} "
                     f"{pcts[2]:>8.2f} "
                     f"{snap[f'burn_{int(monitor.windows_s[0])}s']:>7.2f} "
                     f"{snap[f'burn_{int(monitor.windows_s[-1])}s']:>7.2f}  {state}")

    stages = {}
    for family in ("gateway_stage_seconds_total", "djinn_stage_seconds_total"):
        cur, _ = _sample_map(dump, family)
        old, _ = _sample_map(prev, family)
        for key, sample in cur.items():
            stage = dict(key).get("stage", "?")
            delta = sample["value"] - old.get(key, {}).get("value", 0.0)
            stages[stage] = stages.get(stage, 0.0) + max(0.0, delta)
    if sum(stages.values()) <= 0.0:  # no traffic this interval: lifetime shares
        for family in ("gateway_stage_seconds_total", "djinn_stage_seconds_total"):
            cur, _ = _sample_map(dump, family)
            for key, sample in cur.items():
                stage = dict(key).get("stage", "?")
                stages[stage] = stages.get(stage, 0.0) + sample["value"]
    total_stage = sum(stages.values())
    if total_stage > 0.0:
        lines.append("stage breakdown (request-weighted share of serving time):")
        for stage, seconds in sorted(stages.items(), key=lambda e: -e[1]):
            share = seconds / total_stage
            lines.append(f"  {stage:16s} {share:>6.1%} {'#' * int(round(share * 30))}")

    health = []
    workers, _ = _sample_map(dump, "djinn_proc_workers")
    if workers:
        live = sum(s["value"] for s in workers.values())
        respawns, _ = _sample_map(dump, "djinn_proc_worker_respawns_total")
        died = sum(s["value"] for s in respawns.values())
        health.append(f"proc workers: {live:g} live, {died:g} respawned")
    transitions, _ = _sample_map(dump, "gateway_backend_transitions_total")
    if transitions:
        flips = sum(s["value"] for s in transitions.values())
        health.append(f"backend health transitions: {flips:g}")
    if health:
        lines.append(" | ".join(health))
    return "\n".join(lines)


def cmd_top(args) -> int:
    from .core import DjinnClient
    from .obs import BurnRateMonitor

    monitor = BurnRateMonitor(objective=args.objective)
    prev = None
    prev_t = 0.0
    frames = 0
    try:
        while True:
            try:
                with DjinnClient(args.host, args.port) as client:
                    dump = client.metrics()
            except OSError as exc:
                print(f"cannot reach {args.host}:{args.port}: {exc}",
                      file=sys.stderr)
                return 1
            now = time.monotonic()
            for family in ("gateway_slo_requests_total", "djinn_slo_requests_total"):
                samples, _ = _sample_map(dump, family)
                if not samples:
                    continue
                per_model = {}
                for key, sample in samples.items():
                    labels = dict(key)
                    acc = per_model.setdefault(labels.get("model", "?"), [0.0, 0.0])
                    acc[1] += sample["value"]
                    if labels.get("outcome") == "met":
                        acc[0] += sample["value"]
                for model, (met, total) in per_model.items():
                    monitor.record_totals(model, met, total)
                break  # gateway view already folds in the fleet
            monitor.check()
            if prev is not None:
                frame = _top_frame(dump, prev, now - prev_t, monitor)
                if sys.stdout.isatty() and not args.iterations:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(f"djinn top — {args.host}:{args.port} — "
                      f"frame {frames + 1}, {now - prev_t:.1f}s window")
                print(frame)
                sys.stdout.flush()
                frames += 1
                if args.iterations and frames >= args.iterations:
                    return 0
            prev, prev_t = dump, now
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_chaos(args) -> int:
    import json
    import os

    from .faults import SCENARIOS, run_scenario

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name, scenario in SCENARIOS.items():
            print(f"{name:{width}s}  {scenario.description}")
        return 0
    names = [s for s in args.scenario.split(",") if s] or list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise SystemExit(f"unknown scenario {name!r}; see `djinn chaos --list`")
    failed = 0
    for name in names:
        # no registry handed in: each scenario serves the model its own
        # harness dict names (one cached registry per model)
        report = run_scenario(name, seed=args.seed,
                              requests=args.requests or None)
        violations = report.check()
        if args.json:
            print(report.to_json())
        else:
            verdict = "OK" if not violations else "FAIL"
            print(f"{name:26s} {verdict:4s} ok={report.ok:3d} "
                  f"errors={report.error_total} lost={report.lost} "
                  f"retries={report.retries_metric} "
                  f"injected={report.injected_total}")
            for violation in violations:
                print(f"  VIOLATION: {violation}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        failed += bool(violations)
    if failed:
        print(f"\n{failed} scenario(s) violated invariants", file=sys.stderr)
        return 1
    return 0


def cmd_plan(_args) -> int:
    from .gpusim import all_app_models, select_batch
    from .gpusim.mps import service_segments, simulate_concurrent
    from .wsc import MIXED, WscDesigner

    print(f"{'app':5s} {'tuned batch':>11s} {'QPS/GPU (4 MPS)':>16s} {'latency':>9s}")
    for model in all_app_models():
        choice = select_batch(model)
        result = simulate_concurrent(service_segments(model), 4, "mps")
        qps = result.qps * model.best_batch
        print(f"{model.app:5s} {choice.batch:>11d} {qps:>16,.0f} "
              f"{result.mean_latency_s * 1e3:>7.2f}ms")
    designer = WscDesigner()
    results = designer.all_designs(MIXED, 0.7)
    base = results["cpu_only"].total_tco
    print("\nMIXED workload at 70% DNN share (500-server baseline):")
    for name, result in results.items():
        print(f"  {name:14s} ${result.total_tco / 1e6:6.2f}M "
              f"({result.total_tco / base:.2f}x of CPU-only)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="djinn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="print the Tonic model zoo")

    serve = sub.add_parser("serve", help="start a DjiNN server")
    serve.add_argument("--models", default="dig,pos", help="comma-separated model names")
    serve.add_argument("--load", action="append", metavar="PATH=NAME",
                       help="serve a trained model saved with repro.nn.save_net")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7889)
    serve.add_argument("--batch", type=int, default=0, help="enable dynamic batching")
    serve.add_argument("--timeout-ms", type=float, default=2.0)
    serve.add_argument("--sched", default="", choices=("", "fixed", "adaptive"),
                       help="batch scheduling policy (EDF queue with deadline "
                            "expiry; 'adaptive' also sizes batches to fit "
                            "deadlines)")
    serve.add_argument("--workers", default="",
                       help="execute forwards in a forked process pool "
                            "(e.g. proc:4)")
    serve.add_argument("--layer-cache", type=int, default=0, metavar="N",
                       help="arm the engine layer cache with an LRU of N "
                            "activation snapshots per model (0 = off; "
                            "requires --batch)")
    serve.add_argument("--layer-cache-tol", type=float, default=0.0,
                       help="layer-cache digest quantum: activations within "
                            "this distance share a cache key (0 = exact "
                            "bytes only)")

    query = sub.add_parser("query", help="run one Tonic query against a server")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7889)
    query.add_argument("--app", default="dig", choices=("dig", "pos", "chk", "ner"))
    query.add_argument("--count", type=int, default=5)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--deadline-ms", type=float, default=0.0,
                       help="stamp a latency budget on every request "
                            "(0 = none)")
    query.add_argument("--priority", type=int, default=0,
                       help="scheduling priority class (higher runs first)")
    query.add_argument("--tenant", default="",
                       help="tenant id for per-tenant gateway rate limits")
    query.add_argument("--raw", action="store_true",
                       help="send the raw payload (APP frame) "
                            "and let the server run preprocess/postprocess; "
                            "dig ships uint8 pixel bytes, NLP apps ship "
                            "query text (the server must be configured "
                            "with the app)")

    stream = sub.add_parser(
        "stream", help="open streaming sessions against a server or gateway")
    stream.add_argument("--host", default="127.0.0.1")
    stream.add_argument("--port", type=int, default=7889)
    stream.add_argument("--model", default="asr",
                        help="model to stream to; 'asr' streams synthesized "
                             "audio and prints partial transcripts, any "
                             "other servable model streams stamped chunks "
                             "through the generic label app")
    stream.add_argument("--streams", type=int, default=1,
                        help="how many sequential streams to run")
    stream.add_argument("--chunks", type=int, default=4,
                        help="chunks per stream (for asr: how many pieces "
                             "the utterance is cut into)")
    stream.add_argument("--words", default="",
                        help="comma-separated words to speak (asr only)")
    stream.add_argument("--seed", type=int, default=0)

    gateway = sub.add_parser(
        "gateway", help="front an in-process DjiNN fleet with the gateway")
    gateway.add_argument("--backends", type=int, default=2,
                         help="fleet size (one DjiNN instance per replica)")
    gateway.add_argument("--models", default="dig,pos", help="comma-separated model names")
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=7888)
    gateway.add_argument("--policy", default="round_robin",
                         choices=("round_robin", "least_outstanding", "model_affinity"))
    gateway.add_argument("--retries", type=int, default=3,
                         help="per-request transport-failure retry budget")
    gateway.add_argument("--health-interval", type=float, default=0.5,
                         help="seconds between backend health probes")
    gateway.add_argument("--batch", type=int, default=0,
                         help="enable dynamic batching on each backend")
    gateway.add_argument("--timeout-ms", type=float, default=2.0)
    gateway.add_argument("--floor-ms", type=float, default=0.0,
                         help="device-pace each backend (min service ms per batch)")
    gateway.add_argument("--sched", default="", choices=("", "fixed", "adaptive"),
                         help="batch scheduling policy on each backend")
    gateway.add_argument("--admission", action="store_true",
                         help="shed requests predicted to miss their deadline "
                              "(typed OVERLOADED with retry_after_ms)")
    gateway.add_argument("--tenant-qps", type=float, default=0.0,
                         help="per-tenant token-bucket rate limit (0 = off)")
    gateway.add_argument("--hedge-ms", type=float, default=0.0,
                         help="hedge slow requests to a second backend after "
                              "this delay (-1 = derive from latency model)")
    gateway.add_argument("--workers", default="",
                         help="give each backend a forked process pool "
                              "(e.g. proc:2)")
    gateway.add_argument("--cache-mb", type=float, default=0.0,
                         help="gateway response-cache budget in MiB "
                              "(content-addressed LRU; 0 = off)")
    gateway.add_argument("--layer-cache", type=int, default=0, metavar="N",
                         help="arm each backend's engine layer cache with an "
                              "LRU of N activation snapshots per model "
                              "(0 = off; requires --batch)")
    gateway.add_argument("--layer-cache-tol", type=float, default=0.0,
                         help="layer-cache digest quantum (0 = exact bytes)")

    metrics = sub.add_parser(
        "metrics", help="fetch and print a live server's metrics exposition")
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=7889)
    metrics.add_argument("--json", action="store_true",
                         help="print the raw registry dump instead of text exposition")

    trace = sub.add_parser(
        "trace", help="run a traced fleet demo and dump a Chrome trace")
    trace.add_argument("--backends", type=int, default=2)
    trace.add_argument("--models", default="dig,pos", help="comma-separated model names")
    trace.add_argument("--requests", type=int, default=4,
                       help="traced queries to send through the gateway")
    trace.add_argument("--batch", type=int, default=8,
                       help="dynamic batching max batch on each backend")
    trace.add_argument("--timeout-ms", type=float, default=2.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event JSON output path ('' to skip)")
    trace.add_argument("--metrics-out", default="",
                       help="also write the fleet metrics exposition here")
    trace.add_argument("--check", action="store_true",
                       help="exit nonzero unless required spans, >=95%% coverage, "
                            "and parseable exposition are all present")
    trace.add_argument("--json", action="store_true",
                       help="print the last trace as JSON span records "
                            "(progress chatter goes to stderr)")

    slow = sub.add_parser(
        "slow", help="trace a fleet and dissect its slowest requests")
    slow.add_argument("--backends", type=int, default=2)
    slow.add_argument("--models", default="dig,pos", help="comma-separated model names")
    slow.add_argument("--requests", type=int, default=24,
                      help="traced queries to send through the gateway")
    slow.add_argument("--batch", type=int, default=8,
                      help="dynamic batching max batch on each backend")
    slow.add_argument("--timeout-ms", type=float, default=2.0)
    slow.add_argument("--seed", type=int, default=0)
    slow.add_argument("--top", type=int, default=3,
                      help="how many tail exemplars to dissect")
    slow.add_argument("--json", action="store_true",
                      help="print span trees and cost ledgers as JSON")

    top = sub.add_parser(
        "top", help="live qps/latency/stage/burn view of a running server")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7889)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between metric polls")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N rendered frames (0 = until Ctrl-C)")
    top.add_argument("--objective", type=float, default=0.99,
                     help="SLO attainment objective for burn-rate math")

    chaos = sub.add_parser(
        "chaos", help="run seeded fault-injection scenarios and check invariants")
    chaos.add_argument("--scenario", default="",
                       help="comma-separated scenario names (default: all)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (same seed -> identical report)")
    chaos.add_argument("--requests", type=int, default=0,
                       help="override the per-scenario request count")
    chaos.add_argument("--json", action="store_true",
                       help="print full invariant reports as JSON")
    chaos.add_argument("--out", default="",
                       help="directory to write per-scenario report JSON into")
    chaos.add_argument("--list", action="store_true",
                       help="print the scenario catalog and exit")

    sub.add_parser("plan", help="capacity and TCO planning summary")

    args = parser.parse_args(argv)
    return {"models": cmd_models, "serve": cmd_serve, "query": cmd_query,
            "stream": cmd_stream,
            "gateway": cmd_gateway, "metrics": cmd_metrics, "trace": cmd_trace,
            "slow": cmd_slow, "top": cmd_top,
            "chaos": cmd_chaos, "plan": cmd_plan}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
