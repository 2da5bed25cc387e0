#!/usr/bin/env python3
"""djinn_bench: the repository's end-to-end + per-layer benchmark.

    python benchmarks/djinn_bench/run.py --workload dig_app_wire --seed 3

drives a separate server process (gateway + one backend) over TCP with
``DjinnClient``, checks every reply against the benchmark's own model copy,
and prints every metric by name with its unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0`` (one primer launch
plus five cold-started rounds), the per-layer metrics with ``--trace 1``
(one round plus the traced ladder).  Exit status is non-zero
when any reply was wrong, refused or lost.  See README.md in this
directory for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from hostenv import CPUS, OUT_DIR, REPO_ROOT, THREAD_ENV, pin_to_one_cpu

if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"djinn_bench: no repro package under {REPO_ROOT / 'src'}; "
             f"run from a full checkout")
sys.path.insert(0, str(REPO_ROOT / "src"))

# pin this process's BLAS pool before numpy loads it
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import stats  # noqa: E402
from harness import RunResult, run_rounds  # noqa: E402
from layers import run_ladder  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    ROUNDS,
    RUN_SECONDS,
    WORKLOADS,
    Workload,
    build_streams,
    scaled_counts,
)

#: --smoke: one primer + one round at this share of --seconds
SMOKE_SHARE = 0.1


def declared() -> dict:
    """BENCHMARK.json: the names, units and bounds this benchmark reports."""
    with open(REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int, result: RunResult) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    steal = [r.layers["host.steal_share"] for r in result.rounds]
    return {
        "git_sha": sha,
        "seed": seed,
        "cpus": CPUS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "rounds": len(result.rounds),
        "tail_percentile": result.rounds[0].tail_q,
        "host.steal_share": [round(s, 4) for s in steal],
        "host.calib_ms": [round(r.layers["host.calib_ms"], 3)
                          for r in result.rounds],
        "disturbed": any(s > stats.DISTURBED_STEAL for s in steal),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 rounds: int = ROUNDS, primer: bool = True):
    """One run.  Returns ``(result, layer_metrics, rungs, env)``.

    ``trace`` adds a tracer-on pass to every round and the traced ladder
    after them; ``layer_metrics`` then holds the ladder's metrics as well
    as the live ones."""
    warmup, measured = scaled_counts(workload, seconds)
    streams = build_streams(workload, seed, warmup, measured, rounds,
                            extra_segment=trace)
    oracle = Oracle(workload.model, REPO_ROOT)
    refs = [oracle.reference(p, workload.frame) for p in streams[0].payloads]
    result = run_rounds(workload, streams, refs, primer, tracer_pass=trace)
    env = environment(seed, result)
    layer_metrics = dict(result.layers)
    rungs = {}
    if trace:
        traced, rungs = run_ladder(
            workload, streams[0], refs, oracle.net,
            max(4, round(workload.trace_requests * seconds / RUN_SECONDS)),
            OUT_DIR / f"trace_{workload.name}.json",
            {"workload": workload.name, "seed": seed, "env": env})
        layer_metrics.update(traced)
    return result, layer_metrics, rungs, env


def report(workload: Workload, result: RunResult, layer_metrics: dict,
           rungs: dict, env: dict, units: dict) -> None:
    print(f"== {workload.name}  seed {env['seed']}  {env['rounds']} round(s)  "
          f"tail p{env['tail_percentile']} ==")
    print(f"   {workload.why}")
    print("end-to-end")
    for name, value in result.e2e.items():
        print(f"  {name:34s} {value:14.4f} {units.get(name, '')}")
    print("layers")
    for name in sorted(layer_metrics):
        print(f"  {name:34s} {layer_metrics[name]:14.4f} {units.get(name, '')}")
    if rungs:
        print("ladder p50 (ms): " + "  ".join(
            f"{name}={value:.4f}" for name, value in rungs.items()))
    failures = ", ".join(f"{k}={v}" for k, v in sorted(result.failures.items()))
    print(f"requests: issued {result.issued}  succeeded {result.succeeded}  "
          f"failed {result.failed}" + (f"  ({failures})" if failures else ""))
    print("env: " + json.dumps(env, sort_keys=True))


def result_line(result: RunResult, metrics: dict, names, units: dict) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.issued,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in names},
    })


def _units(decl: dict) -> dict:
    return {m["name"]: m["unit"]
            for m in decl["end_to_end"] + decl["per_layer"]}


def cmd_workload(args, decl: dict) -> int:
    workload = BY_NAME[args.workload]
    units = _units(decl)
    if args.trace:
        result, layer_metrics, rungs, env = run_workload(
            workload, args.seed, args.seconds, trace=True, rounds=1,
            primer=False)
        names = [m["name"] for m in decl["per_layer"]]
        metrics = layer_metrics
    else:
        result, layer_metrics, rungs, env = run_workload(
            workload, args.seed, args.seconds, trace=False)
        names = [m["name"] for m in decl["end_to_end"]]
        metrics = result.e2e
    report(workload, result, layer_metrics, rungs, env, units)
    print(result_line(result, metrics, names, units))
    return 0 if result.correct else 1


def cmd_all(args, decl: dict) -> int:
    status = 0
    for workload in WORKLOADS:
        args.workload = workload.name
        status |= cmd_workload(args, decl)
    return status


def cmd_smoke(args, decl: dict) -> int:
    """Every workload, briefly, with both metric sets; fails when what is
    printed and what BENCHMARK.json declares differ in either direction."""
    units = _units(decl)
    want_e2e = {m["name"] for m in decl["end_to_end"]}
    want_layers = {m["name"] for m in decl["per_layer"]}
    status = 0
    start = time.monotonic()
    for workload in WORKLOADS:
        result, layer_metrics, rungs, env = run_workload(
            workload, args.seed, args.seconds * SMOKE_SHARE, trace=True,
            rounds=1)
        report(workload, result, layer_metrics, rungs, env, units)
        for label, want, got in (("end-to-end", want_e2e, set(result.e2e)),
                                 ("per-layer", want_layers, set(layer_metrics))):
            for name in sorted(want - got):
                print(f"SMOKE FAIL {workload.name}: declared {label} metric "
                      f"{name} was not printed")
                status = 1
            for name in sorted(got - want):
                print(f"SMOKE FAIL {workload.name}: printed {label} metric "
                      f"{name} is not declared in BENCHMARK.json")
                status = 1
        if not result.correct:
            print(f"SMOKE FAIL {workload.name}: {result.failed} failed "
                  f"request(s)")
            status = 1
    print(f"smoke: {'ok' if not status else 'FAILED'} in "
          f"{time.monotonic() - start:.1f} s")
    return status


def cmd_repeat_check(args, decl: dict) -> int:
    """Two full sets of the same code; every end-to-end metric must agree
    within its own bound.  The sets are interleaved — each workload's two
    runs are taken one after the other — so that drift of the host over
    minutes lands on both."""
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    status = 0
    for workload in WORKLOADS:
        first, second = (run_workload(workload, args.seed, args.seconds,
                                      trace=False)[0] for _ in range(2))
        if not (first.correct and second.correct):
            print(f"REPEAT FAIL {workload.name}: failed requests")
            status = 1
        for name, bound in bounds.items():
            a, b = first.e2e[name], second.e2e[name]
            diff = abs(b - a) / abs(a) if a else 0.0
            verdict = "ok" if diff <= bound else "FAIL"
            print(f"{workload.name:16s} {name:24s} {a:12.4f} {b:12.4f} "
                  f"{diff:7.2%} (bound {bound:.1%}) {verdict}")
            if diff > bound:
                status = 1
    print(f"repeat-check: {'ok' if not status else 'FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(BY_NAME))
    mode.add_argument("--all", action="store_true",
                      help="every workload in turn")
    mode.add_argument("--smoke", action="store_true",
                      help="1 primer + 1 round at a tenth of the requests, "
                           "all workloads, declared-vs-printed metric check")
    mode.add_argument("--repeat-check", action="store_true",
                      help="two interleaved full sets; end-to-end metrics "
                           "must agree within their bounds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="about how long the measured windows of a run "
                             "last; scales the per-round request counts")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: one round plus the traced ladder, per-layer "
                             "metrics on the last line")
    args = parser.parse_args(argv)
    decl = declared()
    pin_to_one_cpu()
    if args.smoke:
        return cmd_smoke(args, decl)
    if args.repeat_check:
        return cmd_repeat_check(args, decl)
    if args.all:
        return cmd_all(args, decl)
    return cmd_workload(args, decl)


if __name__ == "__main__":
    sys.exit(main())
