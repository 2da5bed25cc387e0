"""Request-scoped tracing: spans, trace propagation, Chrome trace export.

The paper's Fig. 4 splits one query into pre-processing, network, queueing,
and per-layer GPU compute; this module is the machinery that produces that
breakdown on the live service.  A :class:`Tracer` collects :class:`Span`
records; trace and span IDs travel on the wire (the frame's trace context, see
:mod:`repro.core.protocol`) so one client request yields a single trace
covering client serialize → gateway route/retry → backend queue/batch/
forward/respond, across every process-in-a-process hop.

Tracing is **off by default** and zero-cost when disabled: ``tracer.span()``
short-circuits to a shared no-op span, and the serving hot paths guard all
instrumentation behind ``tracer.enabled``.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from time import monotonic
from typing import Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "new_id",
    "get_tracer",
    "coverage",
    "format_trace",
    "log_event",
]

_id_lock = threading.Lock()
_id_state = int.from_bytes(os.urandom(8), "little") | 1


def new_id() -> int:
    """A process-unique, nonzero 64-bit ID (trace or span)."""
    global _id_state
    with _id_lock:
        # xorshift64: fast, never hits zero from a nonzero seed
        x = _id_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        _id_state = x
        return x


class Span:
    """One timed operation within a trace."""

    __slots__ = ("name", "category", "trace_id", "span_id", "parent_id",
                 "start_s", "end_s", "thread", "attrs")

    def __init__(self, name: str, category: str, trace_id: int, span_id: int,
                 parent_id: int, start_s: float):
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.thread = threading.get_ident()
        self.attrs: Dict[str, object] = {}

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record (``djinn trace --json`` / ``djinn slow --json``)."""
        return {
            "name": self.name,
            "category": self.category,
            "trace_id": f"{self.trace_id:016x}",
            "span_id": f"{self.span_id:016x}",
            "parent_id": f"{self.parent_id:016x}",
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "attrs": {k: str(v) for k, v in self.attrs.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Span({self.name!r}, trace={self.trace_id:#x}, "
                f"dur={self.duration_s * 1e3:.3f}ms)")


class _NoopSpan:
    """Stand-in yielded by a disabled tracer; absorbs all use."""

    __slots__ = ()
    name = ""
    category = ""
    trace_id = 0
    span_id = 0
    parent_id = 0
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attrs: Dict[str, object] = {}

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans; tracks the current span per thread for parenting.

    Parameters
    ----------
    clock:
        Monotonic time source; injected so tests can drive time by hand.
        Every component in the serving stack shares one clock kind
        (``time.monotonic``) so span timestamps line up across layers.
    max_spans:
        Bound on retained finished spans (oldest dropped first).
    enabled:
        Start enabled; default off — a disabled tracer costs one attribute
        read per instrumentation site.
    """

    def __init__(self, clock: Callable[[], float] = monotonic,
                 max_spans: int = 100_000, enabled: bool = False):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.clock = clock
        self.max_spans = max_spans
        self._enabled = enabled
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------- switches
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "Tracer":
        self._enabled = True
        return self

    def disable(self) -> None:
        self._enabled = False

    # ------------------------------------------------------------- contexts
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> tuple:
        """(trace_id, span_id) of the current span, or (0, 0)."""
        span = self.current()
        return (span.trace_id, span.span_id) if span else (0, 0)

    @contextmanager
    def span(self, name: str, category: str = "", trace_id: int = 0,
             parent_id: int = 0, **attrs: object) -> Iterator[Span]:
        """Open a span; parents to the thread's current span by default.

        Pass ``trace_id``/``parent_id`` explicitly to join a trace arriving
        from the wire or from another thread.
        """
        if not self._enabled:
            yield NOOP_SPAN
            return
        if not trace_id:
            parent = self.current()
            if parent is not None:
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:
                trace_id = new_id()
        span = Span(name, category, trace_id, new_id(), parent_id, self.clock())
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end_s = self.clock()
            stack.pop()
            self._record(span)

    def add_span(self, name: str, start_s: float, end_s: float, trace_id: int,
                 parent_id: int = 0, category: str = "", **attrs: object) -> Span:
        """Record an already-timed span (cross-thread work, batch workers)."""
        if not self._enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        span = Span(name, category, trace_id, new_id(), parent_id, start_s)
        span.end_s = end_s
        if attrs:
            span.attrs.update(attrs)
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.max_spans:
                del self._spans[: len(self._spans) - self.max_spans]

    # -------------------------------------------------------------- reading
    def spans(self, trace_id: int = 0) -> List[Span]:
        """Finished spans, optionally filtered to one trace."""
        with self._lock:
            spans = list(self._spans)
        if trace_id:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def trace_ids(self) -> List[int]:
        """Distinct trace IDs in completion order (oldest first)."""
        seen: Dict[int, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # ------------------------------------------------------------ exporting
    def to_chrome(self, trace_id: int = 0) -> dict:
        """Chrome trace-event JSON (load via chrome://tracing or Perfetto)."""
        events = []
        for span in self.spans(trace_id):
            if span.end_s is None:
                continue
            args = {"trace_id": f"{span.trace_id:016x}",
                    "span_id": f"{span.span_id:016x}",
                    "parent_id": f"{span.parent_id:016x}"}
            args.update({k: str(v) for k, v in span.attrs.items()})
            events.append({
                "name": span.name,
                "cat": span.category or "djinn",
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": os.getpid(),
                "tid": span.thread,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump_chrome(self, path: str, trace_id: int = 0) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(trace_id), fh, indent=1)


_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until someone enables it)."""
    return _DEFAULT_TRACER


# ------------------------------------------------------------------- analysis
def coverage(spans: Sequence[Span]) -> float:
    """Fraction of a trace's wall-clock extent covered by span intervals.

    The union of all span intervals over (last end − first start); 1.0 means
    no part of the request's timeline is unaccounted for.
    """
    intervals = sorted(
        (s.start_s, s.end_s) for s in spans if s.end_s is not None
    )
    if not intervals:
        return 0.0
    wall_start = intervals[0][0]
    wall_end = max(end for _, end in intervals)
    wall = wall_end - wall_start
    if wall <= 0:
        return 1.0
    covered = 0.0
    cursor = wall_start
    for start, end in intervals:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered / wall


def format_trace(spans: Sequence[Span]) -> str:
    """Indented parent→child rendering of one trace (durations in ms)."""
    finished = [s for s in spans if s.end_s is not None]
    if not finished:
        return "(no spans)"
    by_parent: Dict[int, List[Span]] = {}
    ids = {s.span_id for s in finished}
    for span in finished:
        parent = span.parent_id if span.parent_id in ids else 0
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.start_s)
    origin = min(s.start_s for s in finished)
    lines: List[str] = []

    def walk(parent: int, depth: int) -> None:
        for span in by_parent.get(parent, ()):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(
                f"{'  ' * depth}{span.name:<{max(1, 28 - 2 * depth)}s} "
                f"+{(span.start_s - origin) * 1e3:8.3f}ms "
                f"{span.duration_s * 1e3:9.3f}ms"
                + (f"  {attrs}" if attrs else "")
            )
            walk(span.span_id, depth + 1)

    walk(0, 0)
    return "\n".join(lines)


def log_event(logger, event: str, level: Optional[int] = None, **fields) -> None:
    """Emit one structured ``key=value`` log line (gateway health/retry events).

    ``logger.info("event=backend.mark_down backend=127.0.0.1:7890 failures=3")``
    — grep-able, one event per line, stable field order.
    """
    import logging

    parts = [f"event={event}"]
    parts.extend(f"{key}={fields[key]}" for key in fields)
    logger.log(logging.INFO if level is None else level, "%s", " ".join(parts))
