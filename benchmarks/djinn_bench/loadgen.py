"""Load generators: one closed loop, one open loop, both stopwatch-only.

``send(payload)`` is whatever issues one request and returns its reply;
the generators know nothing about sockets, which is what lets the
self-tests drive them with stubs.  Every issued request ends up in the
window exactly once: with a reply, or with the kind of typed failure it
met (refused, expired, transport, error) — a failure is issued-and-missed,
never dropped from the count.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core import (
    DjinnConnectionError,
    DjinnDeadlineError,
    DjinnOverloadedError,
    DjinnServiceError,
)


@dataclass
class Window:
    """What one segment of a stream measured, request by request."""

    latency_s: List[float]
    replies: list
    #: ``None`` for a reply, else overloaded|deadline_exceeded|transport|error
    errors: List[Optional[str]]
    #: first send (closed loop) or segment start (open loop) to last reply
    wall_s: float
    #: open loop: how late each request left the generator
    lag_s: List[float] = field(default_factory=list)


def classify(exc: BaseException) -> str:
    if isinstance(exc, DjinnOverloadedError):
        return "overloaded"
    if isinstance(exc, DjinnDeadlineError):
        return "deadline_exceeded"
    if isinstance(exc, DjinnConnectionError):
        return "transport"
    return "error"


def run_closed(send: Callable, payloads: Sequence,
               clock: Callable[[], float] = time.perf_counter) -> Window:
    """One client: the next request leaves when the previous reply is in."""
    n = len(payloads)
    latency = [0.0] * n
    replies = [None] * n
    errors: List[Optional[str]] = [None] * n
    start = clock()
    for i, payload in enumerate(payloads):
        t0 = clock()
        try:
            replies[i] = send(payload)
        except DjinnServiceError as exc:
            errors[i] = classify(exc)
        latency[i] = clock() - t0
    return Window(latency, replies, errors, clock() - start)


def run_open(sends: Sequence[Callable], payloads: Sequence,
             due_s: Sequence[float],
             clock: Callable[[], float] = time.perf_counter,
             sleep: Callable[[float], None] = time.sleep) -> Window:
    """Arrivals on a schedule, independent of completions.

    Request ``i`` is due ``due_s[i]`` seconds after the segment starts and
    goes out on connection ``i % len(sends)``; each connection has its own
    thread and sends in order.  Latency is timed from the *due* time, so a
    stall charges every request it delayed, and how late each request
    actually left is reported as generator lag.
    """
    n = len(payloads)
    latency = [0.0] * n
    lag = [0.0] * n
    replies = [None] * n
    errors: List[Optional[str]] = [None] * n
    done_at = [0.0] * len(sends)
    start = clock()

    def connection(k: int) -> None:
        send = sends[k]
        for i in range(k, n, len(sends)):
            due = start + due_s[i]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                replies[i] = send(payloads[i])
            except Exception as exc:  # noqa: BLE001 -- thread boundary: an
                # escaped exception would end this thread silently and leave
                # its remaining requests looking answered in 0 s
                errors[i] = classify(exc)
            done = clock()
            lag[i] = sent - due
            latency[i] = done - due
            done_at[k] = done

    threads = [threading.Thread(target=connection, args=(k,), daemon=True,
                                name=f"loadgen-{k}")
               for k in range(len(sends))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Window(latency, replies, errors, max(done_at) - start, lag)
