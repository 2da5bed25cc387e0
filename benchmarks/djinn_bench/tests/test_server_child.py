"""The server child and the round around it, for real, on the small model."""

import dataclasses

import pytest

import stats
from harness import ServerChild, make_send, run_round
from hostenv import REPO_ROOT
from oracle import Oracle
from repro.core import DjinnClient
from workloads import BY_NAME, build_stream


def test_server_cpu_excludes_set_up():
    workload = BY_NAME["dig_app_wire"]
    stream = build_stream(workload, 0, 10, 100)
    with ServerChild(workload) as child:
        with DjinnClient(*child.gateway) as client:
            send = make_send(client, workload)
            send(stream.payloads[0])
            ready = child.usage()
            for k in stream.order[:100]:
                send(stream.payloads[k])
            end = child.usage()
        final = child.stop()
    per_request = stats.cpu_ms_per_request(ready["cpu_s"], end["cpu_s"], 100)
    naive = end["cpu_s"] * 1e3 / 100
    # imports, weights and plans cost the child far more CPU than a hundred
    # LeNet requests; none of it may leak into the per-request figure
    assert ready["cpu_s"] > 0.1
    assert 0.0 < per_request < naive / 3
    assert final["maxrss_kb"] > 10_000


def test_a_child_that_dies_before_ready_fails_loudly_and_leaks_nothing():
    unknown = dataclasses.replace(BY_NAME["dig_app_wire"], name="no_such")
    child = ServerChild(unknown)
    with pytest.raises(RuntimeError, match="exited early or hung"):
        child.__enter__()
    assert child._proc.poll() is not None  # reaped, not left running
    assert child._proc.stdout.closed and child._log.closed


def test_one_round_end_to_end_is_correct_and_complete():
    workload = BY_NAME["dig_dup_cache"]
    stream = build_stream(workload, 1, 60, 200)
    oracle = Oracle(workload.model, REPO_ROOT)
    refs = [oracle.reference(p, workload.frame) for p in stream.payloads]
    result = run_round(workload, stream, refs)
    assert result.first_reply_ok
    assert (result.issued, result.correct, result.failures) == (200, 200, {})
    assert 0 < result.within_slo <= 200
    assert result.layers["gateway_cache.hit_share"] == 0.75
    assert result.e2e["setup_s"] > result.layers["server.cold_start_s"] > 0
    assert result.e2e["server_cpu_ms_per_req"] > 0


def test_a_wrong_reference_is_counted_not_hidden():
    workload = BY_NAME["dig_app_wire"]
    stream = build_stream(workload, 2, 10, 50)
    oracle = Oracle(workload.model, REPO_ROOT)
    refs = [oracle.reference(p, workload.frame) for p in stream.payloads]
    poisoned = stream.order[stream.segment(1)][0]
    refs[poisoned] = [(refs[poisoned][0] + 1) % 10]
    result = run_round(workload, stream, refs)
    wrong = int((stream.order[stream.segment(1)] == poisoned).sum())
    assert result.correct == 50 - wrong
    assert result.failures == {"wrong_reply": wrong}
