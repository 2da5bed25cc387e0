"""Load generation against a live DjiNN service.

The paper stress-tests DjiNN with closed-loop client fleets; this module is
that harness for the Python service: N threads, each with its own
connection, issuing requests back-to-back (optionally with think time), and
a latency/throughput summary at the end.

Closed-loop generators self-throttle: when the service slows down, the
generator slows down with it, so overload never shows up in the numbers.
Open-loop arrivals, where queueing does show, are the repository
benchmark's job (``benchmarks/djinn_bench``, workload ``pos_open_batch``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .client import DjinnClient

__all__ = ["LoadResult", "run_closed_loop_load"]


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

