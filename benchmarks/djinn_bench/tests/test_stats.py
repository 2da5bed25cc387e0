"""Tail-percentile rule, median-of-rounds aggregation, CPU accounting."""

import pytest

import stats
from harness import RoundResult, combine_rounds


@pytest.mark.parametrize("samples, expected", [
    (20000, 99), (19999, 95), (4000, 95), (3999, 90), (3200, 90), (2000, 90),
    (1999, 75), (840, 75), (800, 75),
    (799, 90), (72, 90),  # nothing qualifies: p90 is reported, named in env
])
def test_tail_is_the_highest_percentile_with_enough_samples_beyond(samples, expected):
    assert stats.tail_percentile(samples) == expected


def _round(p50, setup, within_slo=100, correct=100, shed=0.0):
    failures = {"overloaded": 100 - correct} if correct < 100 else {}
    return RoundResult(issued=100, correct=correct, within_slo=within_slo,
                       failures=failures, first_reply_ok=True, tail_q=90,
                       e2e={"latency_p50_ms": p50, "setup_s": setup},
                       layers={"sched.expired": 0.0, "sched.shed": shed,
                               "gateway.hop_us": p50 * 100})


def test_run_metrics_are_per_metric_medians_of_rounds_not_pooled():
    calm = [_round(1.38, 3.0), _round(1.39, 1.0), _round(1.37, 2.0),
            _round(1.40, 2.5)]
    run = combine_rounds("w", calm + [_round(9.0, 0.5)])
    assert run.e2e["latency_p50_ms"] == pytest.approx(1.39)
    assert run.e2e["setup_s"] == pytest.approx(2.0)
    assert run.layers["gateway.hop_us"] == pytest.approx(139.0)
    lucky = combine_rounds("w", calm + [_round(0.2, 0.5)])
    assert lucky.e2e["latency_p50_ms"] == pytest.approx(1.38)


def test_a_miss_in_any_round_lowers_the_pooled_shares():
    rounds = [_round(1.0, 1.0) for _ in range(4)]
    rounds.append(_round(1.0, 1.0, within_slo=90, correct=95, shed=5.0))
    run = combine_rounds("w", rounds)
    assert run.e2e["slo_attainment"] == pytest.approx(490 / 500)
    assert run.e2e["correct_share"] == pytest.approx(495 / 500)
    assert (run.issued, run.succeeded, run.failed) == (500, 495, 5)
    assert run.failures == {"overloaded": 5}
    assert run.layers["sched.shed"] == 5.0  # counts add up, no median
    assert not run.correct


def test_server_cpu_counts_the_window_only():
    # 0.9 s of imports/weights/warm-up before the window opens, 0.5 s inside
    assert stats.cpu_ms_per_request(0.9, 1.4, 500) == pytest.approx(1.0)


def test_steal_share():
    before = {"total": 1000, "steal": 10}
    after = {"total": 1200, "steal": 30}
    assert stats.steal_share(before, after) == pytest.approx(0.1)
    assert stats.steal_share(after, after) == 0.0
