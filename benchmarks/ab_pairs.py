#!/usr/bin/env python3
"""A/B the repository benchmark: a reference commit against the working tree.

    python benchmarks/ab_pairs.py --ref 732230c --workload dig_dup_cache --pairs 10
    python benchmarks/ab_pairs.py --ref 732230c --all --pairs 10

``--all`` runs every workload ``BENCHMARK.json`` declares, one after the
other, against one export of ``--ref``; each prints its own table.

Identical code drifts 10-40 % between single runs on a small shared host
(``benchmarks/djinn_bench/README.md``), so one run of each side resolves
nothing.  This exports ``--ref`` into a temporary directory and runs
``benchmarks/djinn_bench/run.py --workload W --seed k`` from that export
and from the working tree as *alternating pairs*: pair ``k`` uses seed
``first-seed + k`` on both sides, and which side goes first alternates
too, so host drift over minutes lands on both.  Each side runs its own
copy of the benchmark against its own ``src/``.

Printed per metric of the run's last-line JSON (the end-to-end metrics,
or the per-layer ones with ``--trace 1``): both medians, both quartile
spans, the ratio of the medians, how many pairs the change won (ties count
for neither), the exact two-sided sign-test p-value over the non-tied
pairs (10/10 reads 0.002, 9/10 reads 0.021), and every pair's change/ref
ratio.  A gain is resolved when the change wins at least nine pairs in ten
and the medians differ by more than the reference's own quartile span.

Under each table a ``host`` line gives both sides' medians of the host
figures every run prints on its ``env:`` line (``host.calib_ms``, the
fixed-work calibration time, and ``host.steal_share``): within a pair set
host drift lands on both sides, but from one day to the next it is the
only way to tell a slower host from slower code.

``--record PATH`` appends one JSON line per workload and metric to PATH
(the committed trajectory is ``benchmarks/results/BENCH_history.jsonl``):
the resolved ref, the change (``git rev-parse HEAD``, or ``"worktree"``
when the code the benchmark runs has uncommitted edits), the workload,
both sides' host medians, the metric, both medians and quartile spans,
wins, non-tied n and p.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RUN_PY = Path("benchmarks") / "djinn_bench" / "run.py"
#: host figures each run's ``env:`` line carries, one value per round
HOST_KEYS = ("host.calib_ms", "host.steal_share")


def export_ref(ref: str, into: Path) -> None:
    """``git archive``: the committed files of ``ref`` and nothing else (no
    entry in this repository's worktree list to clean up afterwards)."""
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), ref],
                   cwd=REPO_ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run from ``tree``; the parsed last line of its output."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"ab_pairs: no result line from {tree} (exit "
                 f"{proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result["exit"] = proc.returncode
    result["host"] = host_env(lines)
    return result


def host_env(lines) -> dict:
    """The run's :data:`HOST_KEYS`, each the median over its rounds, from
    its ``env:`` line (empty when it printed none)."""
    for line in lines:
        if line.startswith("env: "):
            env = json.loads(line[len("env: "):])
            return {key: statistics.median(env[key])
                    for key in HOST_KEYS if env.get(key)}
    return {}


def host_medians(runs: dict) -> dict:
    """``{side: {key: median over that side's runs}}``."""
    return {side: {key: statistics.median(values) for key in HOST_KEYS
                   if (values := [run["host"][key] for run in side_runs
                                  if key in run.get("host", {})])}
            for side, side_runs in runs.items()}


def host_line(host: dict) -> str:
    """Both sides' host medians, and how far the change side drifted."""
    parts = []
    for key in HOST_KEYS:
        ref, change = host["ref"].get(key), host["change"].get(key)
        if ref is None or change is None:
            continue
        drift = f" (x{change / ref:.3f})" if ref else ""
        parts.append(f"{key} ref {ref:.4f} change {change:.4f}{drift}")
    return "host: " + ("  ".join(parts) if parts else "no env line")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test_p(wins: int, n: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` in ``n`` non-tied pairs."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, n - wins) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def compare(better: str, ref, change) -> dict:
    """One metric's paired runs reduced to what is printed and recorded."""
    r1, rmed, r3 = quartiles(ref)
    c1, cmed, c3 = quartiles(change)
    if better == "lower":
        wins = sum(c < r for r, c in zip(ref, change))
    else:
        wins = sum(c > r for r, c in zip(ref, change))
    n = len(ref) - sum(c == r for r, c in zip(ref, change))
    return {"better": better, "ref_median": rmed, "ref_iqr": r3 - r1,
            "change_median": cmed, "change_iqr": c3 - c1,
            "wins": wins, "n": n, "p": sign_test_p(wins, n)}


def summarize(name: str, stats: dict, ref, change) -> str:
    r1, rmed, r3 = quartiles(ref)
    c1, cmed, c3 = quartiles(change)
    ratio = f"{cmed / rmed:6.3f}" if rmed else "   n/a"
    resolved = abs(cmed - rmed) > stats["ref_iqr"]
    pairs = " ".join(f"{c / r:.2f}" if r else "n/a"
                     for r, c in zip(ref, change))
    return (f"{name:28s} {stats['better']:6s} ref {rmed:10.4f} [{r1:10.4f},{r3:10.4f}]  "
            f"change {cmed:10.4f} [{c1:10.4f},{c3:10.4f}]  x{ratio}  "
            f"wins {stats['wins']}/{stats['n']} p={stats['p']:.3f}  "
            f"{'>' if resolved else '<='} ref IQR\n"
            f"{'':28s} change/ref per pair: {pairs}")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def change_id() -> str:
    """HEAD, or ``"worktree"`` when what the benchmark runs is uncommitted."""
    dirty = git("status", "--porcelain", "--", "src", str(RUN_PY.parent))
    return "worktree" if dirty else git("rev-parse", "HEAD")


def record(path, head: dict, stats: dict) -> None:
    """Append one JSON line per metric: ``head`` plus that metric's stats."""
    with open(path, "a", encoding="utf-8") as fh:
        for name, metric in stats.items():
            fh.write(json.dumps({**head, "metric": name, **metric}) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    """Command line plus ``workloads``: the one named, or with ``--all``
    every workload ``BENCHMARK.json`` declares, in its order."""
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ref", required=True,
                        help="commit to compare the working tree against")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true",
                       help="every BENCHMARK.json workload in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="pair k runs seed first-seed + k on both sides")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="passed through: 1 compares the per-layer metrics")
    parser.add_argument("--record", metavar="PATH",
                        help="append one JSON line per workload and metric to PATH")
    args = parser.parse_args(argv)
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        args.decl = json.load(fh)
    declared = [w["name"] for w in args.decl["workloads"]]
    args.workloads = declared if args.all else [args.workload]
    return args


def run_pairs(sides: dict, workload: str, args) -> dict:
    """``args.pairs`` alternating pairs of one workload: the runs per side."""
    runs = {"ref": [], "change": []}
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("ref", "change") if k % 2 == 0 else ("change", "ref")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, args.trace))
        line = "  ".join(
            f"{side} failed {runs[side][-1]['failed']}"
            f"/{runs[side][-1]['attempted']}" for side in order)
        print(f"{workload} pair {k:2d} seed {seed:3d} order "
              f"{'>'.join(order):10s} {line}", flush=True)
    return runs


def report(workload: str, runs: dict, better: dict, args) -> dict:
    """Print one workload's table; return its per-metric stats."""
    print(f"\n== {workload}: {args.ref} (ref) vs working tree (change), "
          f"{args.pairs} alternating pairs, seeds {args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}, trace {args.trace} ==")
    stats = {}
    for name in runs["ref"][0]["metrics"]:
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in runs}
        stats[name] = compare(better.get(name, "lower"),
                              values["ref"], values["change"])
        print(summarize(name, stats[name], values["ref"], values["change"]))
    failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    attempted = {side: sum(run["attempted"] for run in runs[side])
                 for side in runs}
    print("failed operations: " + "  ".join(
        f"{side} {failed[side]}/{attempted[side]}" for side in runs))
    print(host_line(host_medians(runs)), flush=True)
    return stats


def main(argv=None) -> int:
    args = parse_args(argv)
    better = {m["name"]: m["better"]
              for m in args.decl["end_to_end"] + args.decl["per_layer"]}

    scratch = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    status = 0
    try:
        ref_tree = scratch / "ref"
        export_ref(args.ref, ref_tree)
        sides = {"ref": ref_tree, "change": REPO_ROOT}
        for workload in args.workloads:
            runs = run_pairs(sides, workload, args)
            stats = report(workload, runs, better, args)
            if args.record:
                record(args.record,
                       {"ref": git("rev-parse", args.ref), "change": change_id(),
                        "workload": workload, "trace": args.trace,
                        "first_seed": args.first_seed, "pairs": args.pairs,
                        "host": host_medians(runs)},
                       stats)
            if any(run["exit"] for side in runs for run in runs[side]):
                status = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
