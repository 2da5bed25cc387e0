"""Load generation against a live DjiNN service.

The paper stress-tests DjiNN with closed-loop client fleets; this module is
that harness for the Python service: N threads, each with its own
connection, issuing requests back-to-back (optionally with think time), and
a latency/throughput summary at the end.

Closed-loop generators self-throttle: when the service slows down, the
generator slows down with it, so overload never shows up in the numbers.
:func:`run_open_loop_load` fixes that for SLO measurement — arrivals follow
a seeded Poisson process at a configured offered rate, each request belongs
to a :class:`RequestClass` (deadline/priority/tenant stamped on the wire),
and latency is measured from the request's *scheduled arrival time*, so
queueing anywhere (including inside the generator when it falls behind)
counts against the service rather than silently vanishing.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .client import DjinnClient, DjinnDeadlineError, DjinnOverloadedError
from .duplication import jitter_duplicate, plan_duplicates

__all__ = [
    "LoadResult",
    "RequestClass",
    "ClassResult",
    "OpenLoopResult",
    "run_closed_loop_load",
    "run_open_loop_load",
]


@dataclass(frozen=True)
class LoadResult:
    """Aggregate outcome of one load-generation run."""

    clients: int
    requests: int
    duration_s: float
    qps: float
    inputs_per_s: float
    mean_latency_s: float
    p99_latency_s: float
    errors: int


def run_closed_loop_load(
    host: str,
    port: int,
    model: str,
    make_input: Callable[[int], np.ndarray],
    clients: int = 4,
    requests_per_client: int = 50,
    think_time_s: float = 0.0,
) -> LoadResult:
    """Drive a live service closed-loop and summarize what it did.

    ``make_input(i)`` builds the i-th request's input batch; each client
    thread owns one TCP connection, as the paper's load generators did.
    """
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be positive")
    latencies: List[List[float]] = [[] for _ in range(clients)]
    inputs_sent = [0] * clients
    errors = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def worker(cid: int) -> None:
        with DjinnClient(host, port) as client:
            barrier.wait()  # start all clients together
            for i in range(requests_per_client):
                batch = make_input(cid * requests_per_client + i)
                start = time.monotonic()
                try:
                    client.infer(model, batch)
                except Exception:
                    errors[cid] += 1
                    continue
                latencies[cid].append(time.monotonic() - start)
                inputs_sent[cid] += len(batch)
                if think_time_s:
                    time.sleep(think_time_s)

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.monotonic()
    for t in threads:
        t.join()
    duration = time.monotonic() - start

    flat = np.asarray([lat for per in latencies for lat in per])
    total = int(flat.size)
    return LoadResult(
        clients=clients,
        requests=total,
        duration_s=duration,
        qps=total / duration if duration > 0 else 0.0,
        inputs_per_s=sum(inputs_sent) / duration if duration > 0 else 0.0,
        mean_latency_s=float(flat.mean()) if total else 0.0,
        p99_latency_s=float(np.percentile(flat, 99)) if total else 0.0,
        errors=sum(errors),
    )


# --------------------------------------------------------------- open loop
@dataclass(frozen=True)
class RequestClass:
    """One traffic class in an open-loop run.

    ``weight`` sets the class's share of arrivals; ``deadline_ms`` /
    ``priority`` / ``tenant`` are stamped on every request of the class
    (the frame's QoS fields).  A class with no deadline is SLO-attained whenever it
    completes.
    """

    name: str = "default"
    weight: float = 1.0
    deadline_ms: float = 0.0
    priority: int = 0
    tenant: str = ""

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"class weight must be > 0, got {self.weight}")
        if self.deadline_ms < 0:
            raise ValueError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}")


@dataclass(frozen=True)
class ClassResult:
    """Per-class outcome of an open-loop run."""

    issued: int
    completed: int
    shed: int      # typed OVERLOADED rejections (admission/backpressure)
    expired: int   # typed DEADLINE_EXCEEDED rejections
    errors: int    # everything else (transport, service errors)
    attained: int  # completed within the class deadline
    mean_latency_s: float
    p95_latency_s: float
    p99_latency_s: float

    @property
    def attainment(self) -> float:
        """Fraction of issued requests that met the SLO."""
        return self.attained / self.issued if self.issued else 0.0


@dataclass(frozen=True)
class OpenLoopResult:
    """Aggregate outcome of one open-loop run (plus per-class breakdown)."""

    offered_qps: float
    duration_s: float
    issued: int
    completed: int
    shed: int
    expired: int
    errors: int
    attained: int
    mean_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    schedule_lag_p99_s: float
    per_class: Dict[str, ClassResult]

    @property
    def attainment(self) -> float:
        return self.attained / self.issued if self.issued else 0.0


def run_open_loop_load(
    host: str,
    port: int,
    model: str,
    make_input: Callable[[int], np.ndarray],
    qps: float,
    requests: int = 200,
    classes: Sequence[RequestClass] = (RequestClass(),),
    connections: int = 16,
    seed: int = 0,
    timeout_s: float = 30.0,
    dup_frac: float = 0.0,
    dup_jitter: float = 0.01,
) -> OpenLoopResult:
    """Drive a live service open-loop at a fixed offered rate.

    Arrivals are a Poisson process at ``qps`` (seeded, so a given
    ``(seed, requests, classes)`` always offers the same trace), each
    assigned a class by weight.  ``connections`` worker threads fire
    requests at their scheduled instants; when every connection is busy the
    next arrival waits its turn, but its latency clock keeps running — the
    scheduled arrival time is the measurement origin, so generator lag
    (``schedule_lag_p99_s``) and service queueing are both charged to the
    request, the way a real user would experience them.

    ``dup_frac`` makes that fraction of arrivals near-duplicates of
    earlier requests in the trace (seeded: request *i* reuses request
    *j*'s input plus ``dup_jitter``-scaled noise) — the repeated-query
    shape of production traffic, which caches and batch coalescing see
    very differently from fresh i.i.d. inputs.
    """
    if qps <= 0:
        raise ValueError(f"qps must be > 0, got {qps}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if not 0.0 <= dup_frac <= 1.0:
        raise ValueError(f"dup_frac must be in [0, 1], got {dup_frac}")
    classes = tuple(classes)
    if not classes:
        raise ValueError("need at least one RequestClass")
    names = [cls.name for cls in classes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate class names: {names}")

    rng = random.Random(seed)
    weights = [cls.weight for cls in classes]
    at = 0.0
    schedule: List[Tuple[float, int, RequestClass]] = []
    for i in range(requests):
        at += rng.expovariate(qps)
        schedule.append((at, i, rng.choices(classes, weights=weights)[0]))

    # duplicate plan, fixed up front so it is deterministic per seed and
    # needs no shared state between worker threads: request i that lands
    # in the plan replays request dup_of[i]'s input with seeded jitter
    dup_of = plan_duplicates(requests, dup_frac, seed)

    def input_for(i: int) -> np.ndarray:
        src = dup_of.get(i)
        if src is None:
            return make_input(i)
        return jitter_duplicate(make_input(src), i, seed, dup_jitter)

    lock = threading.Lock()
    cursor = [0]
    base = [0.0]
    lags: List[float] = []
    # per-class tallies: [issued, completed, shed, expired, errors, attained]
    tallies = {cls.name: [0, 0, 0, 0, 0, 0] for cls in classes}
    latencies: Dict[str, List[float]] = {cls.name: [] for cls in classes}
    barrier = threading.Barrier(connections + 1)

    def worker() -> None:
        with DjinnClient(host, port, timeout_s=timeout_s) as client:
            barrier.wait()
            while True:
                with lock:
                    idx = cursor[0]
                    if idx >= len(schedule):
                        return
                    cursor[0] += 1
                arrival, i, cls = schedule[idx]
                target = base[0] + arrival
                delay = target - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                lag = max(0.0, time.monotonic() - target)
                batch = input_for(i)
                tally = tallies[cls.name]
                try:
                    client.infer(model, batch,
                                 deadline_ms=cls.deadline_ms,
                                 priority=cls.priority, tenant=cls.tenant)
                except DjinnDeadlineError:
                    with lock:
                        tally[0] += 1
                        tally[3] += 1
                        lags.append(lag)
                    continue
                except DjinnOverloadedError:
                    with lock:
                        tally[0] += 1
                        tally[2] += 1
                        lags.append(lag)
                    continue
                except Exception:
                    with lock:
                        tally[0] += 1
                        tally[4] += 1
                        lags.append(lag)
                    continue
                latency = time.monotonic() - target
                with lock:
                    tally[0] += 1
                    tally[1] += 1
                    if not cls.deadline_ms or latency <= cls.deadline_ms / 1e3:
                        tally[5] += 1
                    latencies[cls.name].append(latency)
                    lags.append(lag)

    threads = [threading.Thread(target=worker, daemon=True,
                                name=f"openloop-{n}")
               for n in range(connections)]
    for t in threads:
        t.start()
    base[0] = time.monotonic()
    barrier.wait()
    for t in threads:
        t.join()
    duration = time.monotonic() - base[0]

    def summarize(name: str) -> ClassResult:
        issued, completed, shed, expired, errors, attained = tallies[name]
        lat = np.asarray(latencies[name])
        return ClassResult(
            issued=issued, completed=completed, shed=shed, expired=expired,
            errors=errors, attained=attained,
            mean_latency_s=float(lat.mean()) if lat.size else 0.0,
            p95_latency_s=float(np.percentile(lat, 95)) if lat.size else 0.0,
            p99_latency_s=float(np.percentile(lat, 99)) if lat.size else 0.0,
        )

    per_class = {cls.name: summarize(cls.name) for cls in classes}
    all_lat = np.asarray([v for per in latencies.values() for v in per])
    lag_arr = np.asarray(lags)
    return OpenLoopResult(
        offered_qps=qps,
        duration_s=duration,
        issued=sum(t[0] for t in tallies.values()),
        completed=sum(t[1] for t in tallies.values()),
        shed=sum(t[2] for t in tallies.values()),
        expired=sum(t[3] for t in tallies.values()),
        errors=sum(t[4] for t in tallies.values()),
        attained=sum(t[5] for t in tallies.values()),
        mean_latency_s=float(all_lat.mean()) if all_lat.size else 0.0,
        p95_latency_s=float(np.percentile(all_lat, 95)) if all_lat.size else 0.0,
        p99_latency_s=float(np.percentile(all_lat, 99)) if all_lat.size else 0.0,
        schedule_lag_p99_s=(float(np.percentile(lag_arr, 99))
                            if lag_arr.size else 0.0),
        per_class=per_class,
    )
