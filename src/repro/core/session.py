"""Per-stream session state for streaming inference.

The unary DjiNN protocol is stateless: every request carries everything the
server needs.  Streaming (stream frames) is not — a stream's chunks share
carry-over context (feature tails, decoder state) that must live *somewhere*
between frames.  :class:`SessionManager` is that somewhere: a bounded,
lock-protected table of :class:`StreamSession` entries keyed by
``(connection, stream_id)``, with an idle-timeout reaper so an opener that
wanders off without closing can never pin server memory.

The table is deliberately small machinery: opening past ``limit`` raises
:class:`SessionLimitError` (surfaced on the wire as a typed SESSION_LIMIT
frame), every eviction path — explicit close, connection drop, idle reap —
funnels through one ``_evict`` so accounting callbacks cannot miss a
session, and ``len(manager)`` returning to zero after a test battery is the
no-leak invariant the chaos harness asserts.

:class:`TensorStreamApp` is the model-agnostic stream application: each
chunk is a batch of model inputs, each partial result the argmax labels of
that batch.  Models with a real incremental pipeline (ASR) plug in their
own app object with the same ``feed``/``finish`` shape
(:class:`repro.tonic.asr.AsrStream`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "SessionLimitError",
    "StreamSession",
    "SessionManager",
    "TensorStreamApp",
]


class SessionLimitError(RuntimeError):
    """The session table is full; the open was rejected."""

    def __init__(self, limit: int):
        super().__init__(f"session table full ({limit} streams)")
        self.limit = limit


class StreamSession:
    """One open stream's server-side state."""

    __slots__ = ("conn_key", "stream_id", "model", "app", "opened_s",
                 "last_seen_s", "chunks", "trace_id", "span_id",
                 "priority", "tenant")

    def __init__(self, conn_key: int, stream_id: int, model: str, app,
                 now: float):
        self.conn_key = conn_key
        self.stream_id = stream_id
        self.model = model
        self.app = app
        self.opened_s = now
        self.last_seen_s = now
        self.chunks = 0
        self.trace_id = 0
        self.span_id = 0
        self.priority = 0
        self.tenant = ""


class SessionManager:
    """Bounded table of live stream sessions with an idle-timeout reaper.

    Parameters
    ----------
    limit:
        Maximum concurrently open sessions across all connections; opening
        the ``limit+1``-th raises :class:`SessionLimitError`.
    idle_timeout_s:
        A session untouched for this long is reaped by the background
        reaper thread (started by :meth:`start`, stopped by :meth:`stop`).
    clock:
        Monotonic time source (injected for testability).
    on_evict:
        Called as ``on_evict(session, reason)`` for evictions the manager
        initiates itself (currently only ``"idle"``).  Callers doing their
        own eviction (close / connection drop) account for those
        themselves — the callback exists so reaper-initiated evictions,
        which happen on no request path, still reach the server's metrics.
    """

    def __init__(
        self,
        limit: int = 64,
        idle_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        on_evict: Optional[Callable[[StreamSession, str], None]] = None,
    ):
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be > 0, got {idle_timeout_s}")
        self.limit = limit
        self.idle_timeout_s = idle_timeout_s
        self._clock = clock
        self._on_evict = on_evict
        self._sessions: Dict[Tuple[int, int], StreamSession] = {}
        self._lock = threading.Lock()
        self._reaper: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "SessionManager":
        """Start the idle reaper (idempotent)."""
        if self._reaper is None:
            self._stop.clear()
            self._reaper = threading.Thread(
                target=self._reap_loop, daemon=True, name="djinn-stream-reaper")
            self._reaper.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None

    def _reap_loop(self) -> None:
        interval = min(0.5, self.idle_timeout_s / 4.0)
        while not self._stop.wait(interval):
            self.reap_idle()

    # --------------------------------------------------------------- table
    def open(self, conn_key: int, stream_id: int, model: str,
             app) -> StreamSession:
        """Register a new session; raises on a full table or duplicate id."""
        now = self._clock()
        with self._lock:
            key = (conn_key, stream_id)
            if key in self._sessions:
                raise ValueError(f"stream {stream_id} already open "
                                 f"on this connection")
            if len(self._sessions) >= self.limit:
                raise SessionLimitError(self.limit)
            session = StreamSession(conn_key, stream_id, model, app, now)
            self._sessions[key] = session
            return session

    def get(self, conn_key: int, stream_id: int) -> Optional[StreamSession]:
        """Look up a live session and stamp its activity clock."""
        with self._lock:
            session = self._sessions.get((conn_key, stream_id))
            if session is not None:
                session.last_seen_s = self._clock()
            return session

    def close(self, conn_key: int, stream_id: int) -> Optional[StreamSession]:
        """Remove one session (the normal end-of-stream path)."""
        with self._lock:
            return self._sessions.pop((conn_key, stream_id), None)

    def drop_connection(self, conn_key: int) -> List[StreamSession]:
        """Remove every session of a disconnected peer."""
        with self._lock:
            keys = [k for k in self._sessions if k[0] == conn_key]
            return [self._sessions.pop(k) for k in keys]

    def reap_idle(self, now: Optional[float] = None) -> List[StreamSession]:
        """Evict sessions idle past the timeout, invoking ``on_evict``."""
        if now is None:
            now = self._clock()
        cutoff = now - self.idle_timeout_s
        with self._lock:
            keys = [k for k, s in self._sessions.items()
                    if s.last_seen_s <= cutoff]
            reaped = [self._sessions.pop(k) for k in keys]
        for session in reaped:
            if self._on_evict is not None:
                self._on_evict(session, "idle")
        return reaped

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def count(self) -> int:
        return len(self)


class TensorStreamApp:
    """Generic streaming application: argmax labels per chunk of inputs.

    Every registered model can stream through this app with no
    model-specific code: a STREAM_CHUNK carries a ``(n, *input_shape)``
    batch, the partial result is the argmax class of each row, and the
    final result is the whole stream's label sequence — a deterministic
    "transcript" the lifecycle tests check end-to-end.
    """

    endpointed = False

    def __init__(self, net, dnn: Callable[[np.ndarray], np.ndarray]):
        self._input_shape = tuple(net.input_shape)
        self._dnn = dnn
        self._labels: List[int] = []

    def feed(self, chunk: np.ndarray) -> dict:
        if chunk.shape[1:] != self._input_shape:
            raise ValueError(
                f"stream chunk must be (n, {', '.join(map(str, self._input_shape))}), "
                f"got {chunk.shape}")
        outputs = self._dnn(chunk)
        flat = outputs.reshape(len(chunk), -1)
        labels = [int(i) for i in np.argmax(flat, axis=1)]
        self._labels.extend(labels)
        return {"labels": labels, "count": len(self._labels)}

    def finish(self) -> dict:
        return {"labels": list(self._labels), "count": len(self._labels)}
