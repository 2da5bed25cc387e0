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
