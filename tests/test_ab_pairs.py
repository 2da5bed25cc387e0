"""Unit tests for the A/B instrument ``benchmarks/ab_pairs.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


@pytest.mark.parametrize("wins, n, p", [
    (10, 10, 0.002), (9, 10, 0.021), (0, 10, 0.002), (5, 10, 1.0), (0, 0, 1.0),
])
def test_sign_test_p(wins, n, p):
    assert ab_pairs.sign_test_p(wins, n) == pytest.approx(p, abs=5e-4)


def test_ties_leave_n():
    ref = [10.0] * 10
    change = [9.0] * 8 + [10.0, 10.0]
    stats = ab_pairs.compare("lower", ref, change)
    assert (stats["wins"], stats["n"]) == (8, 8)
    assert stats["p"] == pytest.approx(2 / 2 ** 8)


def test_higher_is_better_counts_the_other_way():
    stats = ab_pairs.compare("higher", [1.0, 2.0, 3.0], [2.0, 3.0, 1.0])
    assert (stats["wins"], stats["n"]) == (2, 3)


def test_summary_line_carries_p():
    ref, change = [10.0] * 10, [9.0] * 10
    line = ab_pairs.summarize("peak_rss_mb", ab_pairs.compare("lower", ref, change),
                              ref, change)
    assert "wins 10/10 p=0.002" in line


def test_all_expands_to_every_declared_workload():
    declared = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    args = ab_pairs.parse_args(["--ref", "HEAD", "--all", "--pairs", "3",
                                "--first-seed", "7", "--record", "h.jsonl"])
    assert args.workloads == names and len(names) >= 4
    assert (args.pairs, args.first_seed, args.record) == (3, 7, "h.jsonl")
    one = ab_pairs.parse_args(["--ref", "HEAD", "--workload", "dig_app_wire"])
    assert one.workloads == ["dig_app_wire"] and one.pairs == 10


@pytest.mark.parametrize("argv", [
    ["--ref", "HEAD"],
    ["--ref", "HEAD", "--all", "--workload", "imc_engine"],
])
def test_exactly_one_of_workload_or_all(argv):
    with pytest.raises(SystemExit):
        ab_pairs.parse_args(argv)


def test_record_round_trips(tmp_path):
    ref, change = [4.0, 5.0, 6.0, 7.0], [3.0, 4.0, 5.0, 8.0]
    stats = {"latency_p50_ms": ab_pairs.compare("lower", ref, change)}
    head = {"ref": "a" * 40, "change": "worktree", "workload": "imc_engine"}
    path = tmp_path / "history.jsonl"
    ab_pairs.record(path, head, stats)
    ab_pairs.record(path, head, stats)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert row["metric"] == "latency_p50_ms" and row["workload"] == "imc_engine"
    assert row["ref"] == head["ref"] and row["change"] == "worktree"
    assert (row["wins"], row["n"]) == (3, 4)
    assert row["ref_median"] == 5.5 and row["change_median"] == 4.5
    assert row["p"] == pytest.approx(0.625)


_ENV = {"git_sha": "abc", "seed": 3, "rounds": 3,
        "host.calib_ms": [20.0, 24.0, 22.0],
        "host.steal_share": [0.0, 0.02, 0.01]}


def _run(calib, steal):
    env = dict(_ENV, **{"host.calib_ms": calib, "host.steal_share": steal})
    lines = ["== dig_dup_cache  seed 3 ==", "requests: issued 10",
             "env: " + json.dumps(env, sort_keys=True), '{"metrics": {}}']
    return {"host": ab_pairs.host_env(lines)}


def test_host_env_takes_each_figure_median_over_rounds():
    lines = ["layers", "env: " + json.dumps(_ENV), '{"metrics": {}}']
    assert ab_pairs.host_env(lines) == {"host.calib_ms": 22.0,
                                        "host.steal_share": 0.01}
    assert ab_pairs.host_env(['{"metrics": {}}']) == {}


def test_host_medians_per_side_and_drift_line():
    runs = {"ref": [_run([20.0], [0.0]), _run([22.0], [0.1]),
                    _run([30.0], [0.0])],
            "change": [_run([22.0], [0.0]), _run([24.2], [0.0]),
                       _run([26.0], [0.2])]}
    host = ab_pairs.host_medians(runs)
    assert host == {"ref": {"host.calib_ms": 22.0, "host.steal_share": 0.0},
                    "change": {"host.calib_ms": 24.2,
                               "host.steal_share": 0.0}}
    line = ab_pairs.host_line(host)
    assert line.startswith("host: ")
    assert "host.calib_ms ref 22.0000 change 24.2000 (x1.100)" in line
    assert "host.steal_share ref 0.0000 change 0.0000" in line


def test_record_line_carries_both_sides_host_medians(tmp_path):
    host = {"ref": {"host.calib_ms": 22.0, "host.steal_share": 0.01},
            "change": {"host.calib_ms": 23.0, "host.steal_share": 0.0}}
    stats = {"latency_p50_ms": ab_pairs.compare("lower", [2.0], [1.0]),
             "throughput_rps": ab_pairs.compare("higher", [1.0], [2.0])}
    path = tmp_path / "history.jsonl"
    ab_pairs.record(path, {"ref": "a" * 40, "change": "worktree",
                           "workload": "dig_dup_cache", "host": host}, stats)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["metric"] for row in rows] == list(stats)
    assert all(row["host"] == host for row in rows)
