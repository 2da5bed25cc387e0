"""The four workloads and their seeded request streams.

A workload fixes everything the service sees: which model, which frame
kind, how the server child is composed, how many requests a round warms
up with and measures, and whether the generator is a closed loop (one
client waits for each reply) or an open loop (arrivals on a schedule).
The only thing a run varies is the seed, and the seed reaches the service
only as generated inputs.

Request counts are the per-round counts at the default ``--seconds``
(:data:`RUN_SECONDS`); another ``--seconds`` scales them linearly, so the
work a run does is fixed by its arguments and the service's own counters
repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: ``run_seconds`` in BENCHMARK.json: about how long the five measured
#: windows of one run take on the host the counts were sized on.
RUN_SECONDS = 12

#: measured rounds per run (each a cold-started server child)
ROUNDS = 5

#: a replay repeats one of this many most recent distinct inputs
REPLAY_WINDOW = 256
REPLAY_SHARE = 0.75


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    #: "infer" = tensor INFER_REQUEST frames, "app" = raw APP_REQUEST frames
    frame: str
    #: "closed" = one client, next request after the reply; "open" = Poisson
    loop: str
    max_batch: int
    timeout_ms: float
    #: per-round request counts at RUN_SECONDS
    warmup: int
    measured: int
    #: requests the traced ladder replays
    trace_requests: int
    #: latency limit a reply must meet to count toward slo_attainment
    slo_ms: float
    sched: Optional[str] = None
    admission: bool = False
    cache_mb: float = 0.0
    layer_cache_entries: int = 0
    #: deadline stamped on every request (0 = none).  pos_open_batch stamps
    #: one second, forty times its SLO limit: admission and the scheduler
    #: run their deadline checks on every request, but never refuse one.  A
    #: workload may hold no operation that fails, and this host stalls for
    #: up to 350 ms: stamped with 25 ms, 4 runs in 10 had 1-4 requests shed
    #: or expired (with 100 ms, 1 run in 60).  The SLO limit is the client's;
    #: slo_attainment is judged by it, from the due time, whatever the wire
    #: deadline.
    deadline_ms: float = 0.0
    #: open-loop arrival rate
    rate_rps: float = 0.0
    #: distinct inputs the stream cycles through (0 = replay stream)
    pool: int = 0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="imc_engine",
        why="AlexNet tensor frames, caches off: ~97% of wall is net.forward, "
            "so engine and layer kernels do the work and wire/dispatch "
            "almost none",
        model="imc", frame="infer", loop="closed",
        max_batch=4, timeout_ms=2.0,
        warmup=72, measured=72, trace_requests=24, slo_ms=100.0, pool=8),
    Workload(
        name="dig_app_wire",
        why="LeNet raw uint8 APP frames, caches off: forward is under half "
            "of a request, so protocol, gateway hop, dispatch, fast path and "
            "Tonic pre/post dominate; mirror image of imc_engine",
        model="dig", frame="app", loop="closed",
        max_batch=32, timeout_ms=2.0,
        warmup=600, measured=3200, trace_requests=300, slo_ms=10.0, pool=500),
    Workload(
        name="dig_dup_cache",
        why="LeNet tensor frames, 75% byte-exact replays, both caches full "
            "and evicting: p50 is the response-cache hit path, the tail is "
            "the cache-armed miss path with the fast path off",
        model="dig", frame="infer", loop="closed",
        max_batch=8, timeout_ms=1.0,
        warmup=2200, measured=3400, trace_requests=300, slo_ms=10.0,
        cache_mb=0.02, layer_cache_entries=512),
    Workload(
        name="pos_open_batch",
        why="open-loop Poisson arrivals of multi-row SENNA sentences, loose "
            "wire deadlines through admission and the adaptive scheduler: "
            "the only workload whose arrivals do not wait for replies, so "
            "queueing shows",
        model="pos", frame="infer", loop="open",
        max_batch=64, timeout_ms=2.0,
        warmup=300, measured=840, trace_requests=300, slo_ms=25.0,
        sched="adaptive", admission=True, deadline_ms=1000.0, rate_rps=300.0,
        pool=5 * 27),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def scaled_counts(workload: Workload, seconds: float) -> Tuple[int, int]:
    """``(warmup, measured)`` requests per round for a run of ``seconds``."""
    factor = seconds / RUN_SECONDS
    return (max(2, round(workload.warmup * factor)),
            max(10, round(workload.measured * factor)))


@dataclass
class Stream:
    """One round's request list: a warm-up segment then measured segments.

    ``payloads[k]`` is the k-th distinct input; ``order`` indexes into it,
    one entry per request, so references are computed once per distinct
    input.  ``replay[i]`` marks requests that repeat an earlier input
    byte for byte (always False outside the replay workload).
    """

    payloads: List[np.ndarray]
    order: np.ndarray
    replay: np.ndarray
    #: segment ends in ``order``: warm-up, measured, and (traced runs only)
    #: a second measured-size segment for the tracer-on pass
    bounds: Tuple[int, ...]
    #: open loop only: due time of each request, seconds from its segment's
    #: start
    due: Optional[np.ndarray] = None

    def segment(self, index: int) -> slice:
        start = 0 if index == 0 else self.bounds[index - 1]
        return slice(start, self.bounds[index])


def replay_order(rng: np.random.Generator, segments: Sequence[int],
                 share: float = REPLAY_SHARE, window: int = REPLAY_WINDOW
                 ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Order of a duplicate-heavy stream: ``(order, replay, n_distinct)``.

    Each segment holds exactly ``floor(share * len)`` replays at seeded
    positions (the stream's very first request is always fresh); a replay
    repeats one of the ``window`` most recent distinct inputs, uniformly.
    Exact counts, not coin flips, so hit counters repeat across seeds.
    """
    order: List[int] = []
    flags: List[bool] = []
    distinct = 0
    for length in segments:
        first = 1 if not order else 0
        n_replay = min(int(share * length), length - first)
        mask = np.zeros(length, dtype=bool)
        slots = rng.permutation(np.arange(first, length))[:n_replay]
        mask[slots] = True
        for is_replay in mask:
            if is_replay:
                lo = max(0, distinct - window)
                order.append(int(rng.integers(lo, distinct)))
            else:
                order.append(distinct)
                distinct += 1
            flags.append(bool(is_replay))
    return (np.asarray(order, dtype=np.int64),
            np.asarray(flags, dtype=bool), distinct)


def poisson_due(rng: np.random.Generator, n: int, rate_rps: float) -> np.ndarray:
    """Due times (s from segment start) of ``n`` Poisson arrivals.

    The exponential gaps are rescaled so the last request is due at exactly
    ``n / rate_rps``: every seed offers the same load over the same time,
    and only the bunching of arrivals differs.
    """
    due = np.cumsum(rng.exponential(1.0, size=n))
    return due * (n / rate_rps / due[-1])


def cycle_order(rng: np.random.Generator, pool: int, total: int) -> np.ndarray:
    """``total`` draws from ``range(pool)`` as back-to-back permutations, so
    every seed sends each pooled input equally often (iid draws would give
    each seed a different amount of work)."""
    cycles = -(-total // pool)
    return np.concatenate([rng.permutation(pool)
                           for _ in range(cycles)])[:total]


#: sentence lengths of the POS pool: every length equally often
POS_ROWS = tuple(range(4, 31))


def _payload(workload: Workload, rng: np.random.Generator,
             index: int) -> np.ndarray:
    if workload.model == "imc":
        return rng.normal(size=(1, 3, 227, 227)).astype(np.float32)
    if workload.model == "dig" and workload.frame == "app":
        return rng.integers(0, 256, size=(1, 28, 28), dtype=np.uint8)
    if workload.model == "dig":
        return rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
    if workload.model == "pos":
        rows = POS_ROWS[index % len(POS_ROWS)]  # one sentence
        return rng.normal(size=(rows, 300)).astype(np.float32)
    raise ValueError(f"no input generator for model {workload.model!r}")


def build_streams(workload: Workload, seed: int, warmup: int, measured: int,
                  rounds: int, extra_segment: bool = False) -> List[Stream]:
    """The seeded request streams of a run, one per round.

    Every round sends the same distinct inputs (one shared ``payloads``
    list, so references are computed once) the same number of times, in an
    arrangement of its own: order, replay positions and Poisson due times
    are drawn per round.  One arrangement replayed by all five rounds made
    the open loop's tail a property of the seed — how bunched that seed's
    arrivals happen to be — and its run-to-run spread over ten seeds 17.5 %
    on a calm host; five arrangements per run brought it to 10.3 % (p90:
    9.9 % to 3.7 %).
    """
    index = [w.name for w in WORKLOADS].index(workload.name)
    segments = (warmup, measured) + ((measured,) if extra_segment else ())
    total = sum(segments)
    bounds = tuple(int(b) for b in np.cumsum(segments))
    payload_rng = np.random.default_rng([seed, index])
    payloads: List[np.ndarray] = []
    streams = []
    for round_index in range(rounds):
        rng = np.random.default_rng([seed, index, round_index])
        if workload.pool:
            distinct = workload.pool
            order = cycle_order(rng, workload.pool, total)
            replay = np.zeros(total, dtype=bool)
        else:
            # exact replay counts: every round needs as many distinct inputs
            order, replay, distinct = replay_order(rng, segments)
        if not payloads:
            payloads.extend(_payload(workload, payload_rng, k)
                            for k in range(distinct))
        due = None
        if workload.loop == "open":
            due = np.concatenate(
                [poisson_due(rng, n, workload.rate_rps) for n in segments])
        streams.append(Stream(payloads, order, replay, bounds, due))
    return streams


def build_stream(workload: Workload, seed: int, warmup: int,
                 measured: int, extra_segment: bool = False) -> Stream:
    """Round 0's stream alone."""
    return build_streams(workload, seed, warmup, measured, 1,
                         extra_segment)[0]
