"""The seeded request streams: determinism, exact replay share, window."""

import numpy as np
import pytest

from workloads import (
    BY_NAME,
    REPLAY_SHARE,
    REPLAY_WINDOW,
    RUN_SECONDS,
    build_stream,
    build_streams,
    poisson_due,
    replay_order,
    scaled_counts,
)


def _replay(seed, segments=(400, 1200)):
    return replay_order(np.random.default_rng(seed), segments)


def test_replay_stream_is_deterministic_per_seed():
    a, b = _replay(7), _replay(7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], _replay(8)[0])


@pytest.mark.parametrize("seed", range(5))
def test_replay_share_is_exact_in_every_segment(seed):
    segments = (400, 1200, 1200)
    _, replay, distinct = _replay(seed, segments)
    start = 0
    for length in segments:
        assert replay[start:start + length].sum() == int(REPLAY_SHARE * length)
        start += length
    assert distinct == sum(segments) - replay.sum()
    assert not replay[0]  # nothing to repeat yet


@pytest.mark.parametrize("seed", range(5))
def test_replay_repeats_only_the_most_recent_window(seed):
    order, replay, _ = _replay(seed, (3000,))
    distinct = 0
    oldest_gap = 0
    for index, is_replay in zip(order, replay):
        if is_replay:
            assert max(0, distinct - REPLAY_WINDOW) <= index < distinct
            oldest_gap = max(oldest_gap, distinct - index)
        else:
            assert index == distinct  # fresh inputs are numbered in order
            distinct += 1
    # the whole window is used, not just its newest corner
    assert oldest_gap > REPLAY_WINDOW * 0.9


def test_replayed_payload_is_byte_identical():
    workload = BY_NAME["dig_dup_cache"]
    stream = build_stream(workload, seed=3, warmup=50, measured=200)
    first_seen = {}
    for position, (k, is_replay) in enumerate(zip(stream.order, stream.replay)):
        if is_replay:
            assert k in first_seen
        else:
            assert k not in first_seen
            first_seen[k] = position
    assert len(stream.payloads) == len(first_seen)


def test_stream_depends_only_on_seed_and_workload():
    workload = BY_NAME["pos_open_batch"]
    a = build_stream(workload, 11, 30, 100)
    b = build_stream(workload, 11, 30, 100)
    assert np.array_equal(a.order, b.order) and np.array_equal(a.due, b.due)
    assert all(np.array_equal(x, y) for x, y in zip(a.payloads, b.payloads))
    assert sorted({len(p) for p in a.payloads}) == list(range(4, 31))
    c = build_stream(workload, 12, 30, 100)
    assert not np.array_equal(a.due, c.due)


@pytest.mark.parametrize("name", ["pos_open_batch", "dig_dup_cache"])
def test_rounds_share_inputs_and_work_but_not_arrangement(name):
    workload = BY_NAME[name]
    rounds = build_streams(workload, 5, 60, 400, rounds=3)
    again = build_streams(workload, 5, 60, 400, rounds=3)
    for a, b in zip(rounds, again):
        assert np.array_equal(a.order, b.order)  # same seed, same rounds
    first = rounds[0]
    for other in rounds[1:]:
        assert other.payloads is first.payloads  # one set of references
        assert not np.array_equal(other.order, first.order)
        assert other.bounds == first.bounds
        # the same amount of work: as many replays, as many distinct inputs
        assert other.replay.sum() == first.replay.sum()
        assert len(set(other.order)) == len(set(first.order))
        if workload.loop == "open":
            assert not np.array_equal(other.due, first.due)
            assert other.due[59] == pytest.approx(first.due[59])
    if not workload.pool:
        assert max(s.order.max() for s in rounds) == len(first.payloads) - 1


def test_poisson_due_times_offer_exactly_the_requested_load():
    for seed in range(3):
        due = poisson_due(np.random.default_rng(seed), 1000, 300.0)
        assert np.all(np.diff(due) > 0)
        assert due[-1] == pytest.approx(1000 / 300.0)
    gaps = np.diff(poisson_due(np.random.default_rng(0), 20_000, 300.0))
    # exponential gaps: standard deviation equals the mean
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.05)


def test_pooled_streams_send_every_input_equally_often():
    workload = BY_NAME["pos_open_batch"]
    for seed in (1, 2):
        stream = build_stream(workload, seed, workload.pool, 9 * workload.pool)
        counts = np.bincount(stream.order, minlength=workload.pool)
        assert counts.min() == counts.max() == 10


def test_segments_partition_the_stream():
    workload = BY_NAME["dig_app_wire"]
    stream = build_stream(workload, 0, 40, 160, extra_segment=True)
    assert [stream.segment(i) for i in range(3)] == [
        slice(0, 40), slice(40, 200), slice(200, 360)]
    assert len(stream.order) == 360


def test_counts_scale_with_seconds_not_with_time():
    workload = BY_NAME["dig_app_wire"]
    full = scaled_counts(workload, RUN_SECONDS)
    assert full == (workload.warmup, workload.measured)
    half = scaled_counts(workload, RUN_SECONDS / 2)
    assert half == (workload.warmup // 2, workload.measured // 2)
