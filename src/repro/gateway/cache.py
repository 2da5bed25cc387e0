"""Content-addressed response cache for the gateway's unary serve path.

DjiNN's throughput argument is about amortizing work across requests; the
cheapest request is the one the fleet never sees.  Real DNN services see
heavy duplicate traffic (the ``dup_frac`` knobs in the Tonic datasets and
load generator model it), and a DNN forward pass is a pure function of
(model, payload) — so a gateway-side memo is sound whenever the key is
honest about everything the answer depends on.

Key derivation
--------------
:func:`response_key` digests exactly the QoS-*invariant* identity of a
request: the model name, the payload kind, the payload's shape, and its
raw bytes.  Deadline, priority, tenant, and trace context are deliberately
excluded — two tenants asking the same model the same question get the
same answer, so they share an entry (pinned by the property tests in
``tests/test_cache.py``).  Stream frames never reach the cache: a stream's
answer is a function of session state, not of any one frame.

Each entry keeps the encoded reply frame of the miss that populated it.
A hit copies that frame, writes the caller's trace context into header
bytes 9-24 (:func:`repro.core.protocol.with_trace`) and sends it: no
``Message`` is built and nothing is re-encoded, and the frame is
byte-identical to what a miss would have produced for that same caller.

Budget
------
The cache is a bytes-budgeted LRU: ``budget_bytes`` caps the sum of entry
*payload* sizes (the reply tensor or text, not its frame header),
evicting least-recently-used entries on insert.  An entry
larger than the whole budget is refused (counted as an eviction of
itself).  All mutation is under one lock; probe/insert are thread-safe.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from ..core.protocol import KIND_TEXT, Message, MessageType, encode_message

__all__ = ["ResponseCache", "response_key"]


def response_key(model: str, payload_kind: int, payload,
                 digest=None) -> bytes:
    """Content key of one unary request; QoS fields do not participate.

    ``payload`` is the request's tensor (any ndarray) or its text payload
    (str).  The digest covers a compact prefix — the length-prefixed model
    name, the payload kind, then ``text`` or the tensor's dtype and shape
    — and the payload bytes, a contiguous tensor hashed in place through
    its buffer.  Every prefix field is self-delimiting, so distinct field
    splits can never collide structurally.
    """
    h = hashlib.sha256() if digest is None else digest()
    name = model.encode("utf-8", "surrogatepass")
    if isinstance(payload, (str, bytes)):
        body = payload.encode("utf-8") if isinstance(payload, str) else payload
        h.update(b"%d:%s %d text" % (len(name), name, payload_kind & 0xFF))
    else:
        body = np.ascontiguousarray(payload)
        h.update(b"%d:%s %d %s%r" % (len(name), name, payload_kind & 0xFF,
                                     body.dtype.str.encode(), body.shape))
    h.update(body)
    return h.digest()


class _Entry:
    """One cached reply frame plus the metadata that verifies it."""

    __slots__ = ("model", "payload_kind", "nbytes", "frame")

    def __init__(self, model: str, payload_kind: int, nbytes: int,
                 frame: bytes):
        self.model = model
        self.payload_kind = payload_kind
        #: payload bytes charged against the budget
        self.nbytes = nbytes
        #: the encoded reply, trace context as the populating miss sent it
        self.frame = frame


class ResponseCache:
    """Bytes-budgeted LRU of reply frames, keyed by content digest.

    A probe verifies the entry's retained metadata (model, payload kind)
    against the caller's before serving it, so a digest collision across
    models degrades to a counted miss instead of a cross-model answer.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes < 1:
            raise ValueError(
                f"budget_bytes must be >= 1, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self._lock = threading.Lock()
        self._lru: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.collisions = 0

    # ------------------------------------------------------------- probing
    def get(self, key: bytes, model: str,
            payload_kind: int) -> Optional[_Entry]:
        """The entry for ``key``, or ``None``; counts the outcome."""
        with self._lock:
            entry = self._lru.get(key)
            if entry is not None:
                if (entry.model != model
                        or entry.payload_kind != payload_kind):
                    # same digest, different identity: a structural
                    # collision — refuse it rather than cross-serve
                    self.collisions += 1
                    self.misses += 1
                    return None
                self._lru.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def put(self, key: bytes, model: str, payload_kind: int,
            tensor: Optional[np.ndarray] = None, text: Optional[str] = None,
            response_kind: int = MessageType.INFER_RESPONSE,
            frame: Optional[bytes] = None) -> int:
        """Insert one reply, evicting LRU entries past budget.

        ``tensor``/``text`` are the reply's payload, which the budget is
        charged for; ``frame`` is the reply as it was sent.  Without one,
        the frame is encoded here from the payload and ``response_kind``.

        Returns the number of entries evicted (including a refused insert
        counted against itself), so callers can mirror the eviction count
        into their own metrics.
        """
        nbytes = 0
        if tensor is not None:
            nbytes += np.asarray(tensor, dtype=np.float32).nbytes
        if text is not None:
            nbytes += len(text.encode("utf-8"))
        if nbytes > self.budget_bytes:
            with self._lock:
                self.evictions += 1  # refused: larger than the whole budget
            return 1
        if frame is None:
            frame = encode_message(Message(
                response_kind, name=model, tensor=tensor, text=text or "",
                payload_kind=(KIND_TEXT if response_kind
                              == MessageType.APP_RESPONSE else 0)))
        entry = _Entry(model, payload_kind, nbytes, bytes(frame))
        with self._lock:
            old = self._lru.pop(key, None)
            if old is not None:
                self.bytes -= old.nbytes
            # make room first, so ``bytes`` (read unlocked, e.g. for the
            # gauge) never passes the budget even for an instant
            evicted_now = 0
            while self.bytes + nbytes > self.budget_bytes:
                _, evicted = self._lru.popitem(last=False)
                self.bytes -= evicted.nbytes
                self.evictions += 1
                evicted_now += 1
            self._lru[key] = entry
            self.bytes += nbytes
            return evicted_now

    # ----------------------------------------------------------- reporting
    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "collisions": self.collisions,
                    "entries": len(self._lru), "bytes": self.bytes}
