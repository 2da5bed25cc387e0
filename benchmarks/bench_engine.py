"""Planned-vs-legacy execution sweep: batch size x {legacy, planned}.

For each app this times the two serve-path executions of the same network:

* **legacy** — the allocating ``net.forward`` loop (fresh activation and
  im2col buffers every call), and
* **planned** — gather into the :class:`repro.nn.engine.ExecutionPlan`
  input slab + ``execute`` over the arena, exactly what a
  :class:`repro.core.BatchingExecutor` worker runs per batch.

Both run the same bound layer kernels, so outputs are byte-identical
(asserted here); the delta is pure buffer management.  Results go to
``benchmarks/results/BENCH_engine.json``.

``--check`` turns the run into a CI gate:

* the planned path must be allocation-free in steady state (tracemalloc
  peak under a threshold that cleanly separates interpreter noise from a
  single leaked per-call buffer), and
* planned throughput at batch 1 must not regress below legacy (guard
  band, since at batch 1 there is the least allocation to save).

Usage::

    python benchmarks/bench_engine.py                     # full sweep
    python benchmarks/bench_engine.py --apps dig,pos --batches 1,4,8,17 --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.models import build_net  # noqa: E402
from repro.nn import ExecutionPlan, measure_steady_state_alloc  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: tracemalloc peak allowed per steady-state sweep: interpreter noise is
#: tens of KB, one leaked activation buffer is hundreds of KB to MBs
ALLOC_LIMIT_BYTES = 64 * 1024

#: planned batch-1 throughput must be at least this fraction of legacy
BATCH1_GUARD = 0.90

#: target wall-clock per timed measurement
TARGET_S = 0.4


def _timed(fn, target_s: float = TARGET_S) -> float:
    """Seconds per call, measured over enough iterations to fill target_s."""
    fn()  # warm
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-6)
    iters = max(3, int(target_s / once))
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def bench_app(app: str, batches, alloc_check: bool) -> dict:
    net = build_net(app, materialize=True)
    max_batch = max(batches)
    plan = ExecutionPlan(net, max_batch)
    gen = np.random.default_rng(0)
    rows = []
    for batch in batches:
        x = gen.standard_normal((batch,) + tuple(net.input_shape)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x), plan.run(x))

        legacy_s = _timed(lambda: net.forward(x))
        slab = plan.input_view(batch)

        def planned_once():
            with plan.lock:
                np.copyto(slab, x)
                plan.execute(batch)

        planned_s = _timed(planned_once)
        rows.append({
            "batch": batch,
            "legacy_s": legacy_s,
            "planned_s": planned_s,
            "legacy_ips": batch / legacy_s,
            "planned_ips": batch / planned_s,
            "speedup": legacy_s / planned_s,
        })
        print(f"{app:5s} batch {batch:3d}: legacy {batch / legacy_s:9.1f} inputs/s  "
              f"planned {batch / planned_s:9.1f} inputs/s  "
              f"speedup {legacy_s / planned_s:5.2f}x")
    steady_alloc = (measure_steady_state_alloc(plan, batches=list(batches))
                    if alloc_check else None)
    if steady_alloc is not None:
        print(f"{app:5s} steady-state allocation peak: {steady_alloc} bytes")
    return {
        "app": app,
        "max_batch": max_batch,
        "arena_bytes": plan.arena_bytes,
        "scratch_bytes": plan.scratch_bytes,
        "steady_alloc_bytes": steady_alloc,
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--apps", default="dig,imc,asr,pos",
                        help="comma-separated zoo apps to sweep")
    parser.add_argument("--batches", default="1,4,16,32",
                        help="comma-separated batch sizes")
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                      "BENCH_engine.json"))
    parser.add_argument("--check", action="store_true",
                        help="CI gate: assert zero steady-state allocation "
                             "and no batch-1 regression")
    args = parser.parse_args(argv)

    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    batches = sorted({int(b) for b in args.batches.split(",")})
    results = {"batches": batches,
               "alloc_limit_bytes": ALLOC_LIMIT_BYTES,
               "batch1_guard": BATCH1_GUARD,
               "apps": [bench_app(app, batches, alloc_check=args.check or True)
                        for app in apps]}

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        for entry in results["apps"]:
            alloc = entry["steady_alloc_bytes"]
            if alloc is None or alloc >= ALLOC_LIMIT_BYTES:
                failures.append(
                    f"{entry['app']}: steady-state allocation {alloc} bytes "
                    f">= {ALLOC_LIMIT_BYTES}")
            for row in entry["rows"]:
                if row["batch"] == 1 and row["speedup"] < BATCH1_GUARD:
                    failures.append(
                        f"{entry['app']}: planned batch-1 is "
                        f"{row['speedup']:.2f}x legacy (< {BATCH1_GUARD})")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("engine checks passed: allocation-free steady state, "
              "no batch-1 regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
