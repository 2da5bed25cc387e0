"""Load generators against stub servers: the open-loop clock starts at the
due time, and typed failures are issued-and-missed."""

import time

import pytest

from loadgen import run_closed, run_open
from repro.core import (
    DjinnConnectionError,
    DjinnDeadlineError,
    DjinnOverloadedError,
    DjinnServiceError,
)

SERVICE_S = 0.03


def _slow(payload):
    time.sleep(SERVICE_S)
    return payload


def test_open_loop_latency_runs_from_the_due_time():
    # four requests due 5 ms apart on one connection, each taking 30 ms: the
    # k-th waits for k predecessors, and that wait is part of its latency
    due = [0.0, 0.005, 0.010, 0.015]
    window = run_open([_slow], list(range(4)), due)
    assert window.replies == [0, 1, 2, 3]
    for k, (latency, lag) in enumerate(zip(window.latency_s, window.lag_s)):
        expected = (k + 1) * SERVICE_S - due[k]
        assert latency == pytest.approx(expected, abs=0.012)
        assert lag == pytest.approx(max(0.0, k * SERVICE_S - due[k]), abs=0.012)
    # a stopwatch started at send time would have read ~30 ms for all four
    assert window.latency_s[3] > 3 * SERVICE_S


def test_open_loop_waits_for_the_schedule_when_the_server_is_fast():
    due = [0.0, 0.04, 0.08]
    window = run_open([lambda p: p], [0, 1, 2], due)
    assert window.wall_s >= 0.08
    assert max(window.latency_s) < 0.02 and max(window.lag_s) < 0.02


def test_open_loop_spreads_requests_over_connections():
    seen = ([], [])
    sends = [lambda p: seen[0].append(p), lambda p: seen[1].append(p)]
    run_open(sends, list(range(6)), [0.0] * 6)
    assert seen == ([0, 2, 4], [1, 3, 5])


def _failing(kind):
    def send(payload):
        if payload == "ok":
            return "reply"
        raise kind
    return send


@pytest.mark.parametrize("exc, label", [
    (DjinnOverloadedError("shed", reason="predicted_late"), "overloaded"),
    (DjinnDeadlineError("expired"), "deadline_exceeded"),
    (DjinnConnectionError("reset"), "transport"),
    (DjinnServiceError("no such model"), "error"),
])
@pytest.mark.parametrize("runner", ["closed", "open"])
def test_typed_failures_are_issued_and_missed(exc, label, runner):
    payloads = ["ok", "bad", "ok"]
    send = _failing(exc)
    if runner == "closed":
        window = run_closed(send, payloads)
    else:
        window = run_open([send], payloads, [0.0, 0.001, 0.002])
    assert window.errors == [None, label, None]
    assert window.replies == ["reply", None, "reply"]
    assert len(window.latency_s) == 3  # the failure stays in the count


def test_open_loop_thread_survives_an_untyped_exception():
    # a bug in a connection thread must not leave its later requests
    # looking answered in 0 s
    window = run_open([_failing(ValueError("bug"))], ["ok", "bad", "ok"],
                      [0.0, 0.001, 0.002])
    assert window.errors == [None, "error", None]
    assert window.replies == ["reply", None, "reply"]


def test_closed_loop_sends_the_next_request_after_the_reply():
    window = run_closed(_slow, list(range(3)))
    assert all(lat >= SERVICE_S for lat in window.latency_s)
    assert window.wall_s >= 3 * SERVICE_S
