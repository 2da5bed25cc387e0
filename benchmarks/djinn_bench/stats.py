"""Statistics and host probes: percentiles, the tail rule, hypervisor
steal and the calibration kernel."""

from __future__ import annotations

import time
from typing import Dict, Sequence

import numpy as np

#: a tail percentile needs this many samples beyond it in every round.  Ten
#: is the least that makes a percentile an estimate at all; on a shared host
#: it is nowhere near enough.  In a disturbed spell the hypervisor stalls
#: 1-5 % of requests by milliseconds, and a percentile with fewer samples
#: beyond it than that measures the neighbours.  In the open loop delays
#: come in bursts, one queue at a time, and a stall charges every request
#: due while it lasts, so samples beyond a percentile are fewer than they
#: look.  Spread between runs of identical code of the ratio tail / p50,
#: which takes the drift of the host's speed out: dig_app_wire p95 (160
#: beyond it) 11 %, p90 (320) 3 %; pos_open_batch p95 (42) 8-27 %, p90 (84)
#: 6-11 %, p75 (210) 2-6 %.
TAIL_MIN_BEYOND = 200
TAIL_CANDIDATES = (99, 95, 90, 75)
#: reported when a round is too short for any candidate
TAIL_FALLBACK = 90

#: steal share above which a round is flagged (reported, never dropped)
DISTURBED_STEAL = 0.05


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(samples_per_round: int) -> int:
    """The highest of p99/p95/p90/p75 with enough samples beyond it.

    When the round is too short for any of them, p90 is reported anyway
    (smoke runs and the ``imc_engine`` rounds); the run's environment
    stanza records which percentile was used.
    """
    for q in TAIL_CANDIDATES:
        if samples_per_round * (100 - q) / 100.0 >= TAIL_MIN_BEYOND:
            return q
    return TAIL_FALLBACK


def cpu_ms_per_request(cpu_at_window_start_s: float, cpu_at_window_end_s: float,
                       requests: int) -> float:
    """Server CPU per request over the measured window only: whatever the
    process burnt before the window opened (imports, weights, plans,
    warm-up) is set-up and is subtracted out."""
    return (cpu_at_window_end_s - cpu_at_window_start_s) * 1e3 / max(requests, 1)


def read_cpu_jiffies() -> Dict[str, int]:
    """Aggregate ``/proc/stat`` cpu line as ``{"total", "steal"}`` jiffies."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return {"total": 0, "steal": 0}
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already folded into user/nice
    return {"total": sum(values[:8]), "steal": steal}


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    total = after["total"] - before["total"]
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


def calibrate_ms() -> float:
    """A fixed single-thread kernel, half numpy and half bytecode; its time
    tracks how fast this host is running right now (diagnostic only)."""
    a = np.full((160, 160), 0.5, dtype=np.float32)
    start = time.perf_counter()
    for _ in range(40):
        a = np.tanh(a @ a * np.float32(1e-2))
    acc = 0
    for i in range(150_000):
        acc += i * i & 7
    return (time.perf_counter() - start) * 1e3
