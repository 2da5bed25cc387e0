r"""DjiNN wire protocol: a custom binary protocol over TCP/IP.

The paper (§3.1) describes DjiNN as "a standalone service accepting and
processing external requests ... using a custom socket protocol over
TCP/IP".  This module is that protocol: length-delimited frames carrying a
message type, a model name, and a float32 tensor payload.

Frame layout (all integers little-endian)::

    magic       4 bytes  b"DJNN"
    version     u8       1 (plain), 2 (trace), 3 (trace + QoS), 4 (+ stream),
                         5 (+ app payload)
    type        u8       MessageType
    name_len    u16      model-name byte count
    ndim        u8       payload tensor rank (0 = no tensor)
    trace_id    u64      \ only when version >= 2: request-scoped trace
    span_id     u64      / context (sender's span, the receiver's parent)
    deadline_us u32      \
    priority    i8        > only when version >= 3: QoS block
    tenant_len  u8       /
    stream_id   u32      \
    flags       u8        > only when version >= 4: stream block
    seq         u32      /
    payload_kind u8      only when version >= 5: raw-payload type tag
    dims        u32 * ndim
    body_len    u64      payload byte count (tensor data or UTF-8 text)
    name        name_len bytes (UTF-8)
    tenant      tenant_len bytes (UTF-8, version >= 3 only)
    body        body_len bytes

The trace context is optional and backward compatible: senders emit the
version-1 layout unless a message actually carries trace IDs, so untraced
traffic is byte-identical to the original protocol and old peers
interoperate unchanged.  A version-2 frame sent to a pre-trace peer fails
loudly (version check) rather than desyncing the stream.

Version 3 extends the same scheme to quality-of-service fields: a frame
carries the QoS block only when the message actually has a deadline,
priority, or tenant, so QoS-less traffic from a new client is
byte-identical to what an old client would send (version 1 or 2 as
before).  A version-3 frame always includes the trace block (zeros when
untraced) so each version has exactly one layout.  ``deadline_us`` is the
*remaining* budget at send time, in microseconds (0 = none) — a relative
duration, not a wall-clock timestamp, so it survives clock skew between
hosts; each receiver re-anchors it against its own monotonic clock.

Version 4 adds streaming: frames that belong to a stream (the
``STREAM_*`` message types, plus stream-scoped errors) carry a stream
block — ``stream_id`` scopes the frame to one stream on the connection
(ids are per-connection, chosen by the opener, never 0), ``seq`` is the
sender's ordinal within the stream, and ``flags`` bit 0 marks the final
frame of a stream's results.  The minimal-version rule is unchanged: a
message with no stream id still goes out as version 1/2/3, so every
unary byte sequence is identical to what a pre-streaming peer emits.  A
version-4 frame always includes the trace and QoS blocks (zeros when
unused) so each version has exactly one layout.

Version 5 adds application frames: an ``APP_REQUEST`` names a Tonic
*application* and carries the raw task payload — pixels, audio samples,
tokens — instead of a preprocessed float32 tensor, so the server owns
the whole preprocess → DNN → postprocess pipeline (the paper's central
service-architecture point; raw payloads are also typically far smaller
than the preprocessed tensor, e.g. u8 pixels at a quarter the bytes).
One ``payload_kind`` byte tags how the body decodes: ``KIND_TENSOR``
(float32, as before), ``KIND_U8`` (uint8 tensor, ``body_len ==
prod(dims)``), or ``KIND_TEXT`` (UTF-8, ``ndim == 0``).  The minimal-
version rule is unchanged: only frames that actually carry a payload
kind emit version 5, so all v1–v4 traffic is byte-identical to what a
pre-app peer sends.  A version-5 frame includes the trace/QoS/stream
blocks (stream zeroed — app frames are unary) so each version keeps
exactly one layout.

Receiving: a connection owns one :class:`FrameReader`, which takes a frame
in with one greedy ``recv`` (a large body: one more, straight into a
right-sized buffer) and parses it with one precompiled struct per version;
:func:`frame_parser` is the same decoder for callers that own the I/O.
``docs/service_protocol.md`` ("Receiving a frame") has the buffering,
leftover and tensor-aliasing rules.
"""

from __future__ import annotations

import math
import socket
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple

import numpy as np

from . import faultsite

__all__ = [
    "MessageType",
    "Message",
    "ProtocolError",
    "send_message",
    "recv_message",
    "FrameReader",
    "encode_message",
    "frame_parser",
    "MAX_BODY_BYTES",
    "MAX_NAME_BYTES",
    "MAX_NDIM",
    "MAX_TENANT_BYTES",
    "MAX_DEADLINE_MS",
    "MAX_STREAM_ID",
    "VERSION",
    "TRACE_VERSION",
    "QOS_VERSION",
    "STREAM_VERSION",
    "APP_VERSION",
    "STREAM_FINAL",
    "STREAM_TYPES",
    "APP_TYPES",
    "KIND_TENSOR",
    "KIND_TEXT",
    "KIND_U8",
]

MAGIC = b"DJNN"
VERSION = 1
#: Version emitted when a frame carries trace context (see module docstring).
TRACE_VERSION = 2
#: Version emitted when a frame carries QoS fields (deadline/priority/tenant).
QOS_VERSION = 3
#: Version emitted when a frame belongs to a stream (stream_id != 0).
STREAM_VERSION = 4
#: Version emitted when a frame carries a typed raw app payload.
APP_VERSION = 5
#: Stream-block flag bit: this frame is the final result of its stream.
STREAM_FINAL = 0x01
#: Payload kinds (version-5 ``payload_kind`` byte).
KIND_TENSOR = 1  #: float32 tensor, body_len == 4 * prod(dims)
KIND_TEXT = 2    #: UTF-8 text, ndim == 0
KIND_U8 = 3      #: uint8 tensor, body_len == prod(dims)
_PAYLOAD_KINDS = frozenset({KIND_TENSOR, KIND_TEXT, KIND_U8})
_HEADER = struct.Struct("<4sBBHB")
_TRACE = struct.Struct("<QQ")
_QOS = struct.Struct("<IbB")
_STREAM = struct.Struct("<IBI")
_PAYLOAD = struct.Struct("<B")
_DIM = struct.Struct("<I")
_BODY_LEN = struct.Struct("<Q")

_MAX_ID = (1 << 64) - 1
_MAX_DEADLINE_US = (1 << 32) - 1
_MAX_U32 = (1 << 32) - 1

#: Upper bound on a single payload (guards against corrupt frames).
MAX_BODY_BYTES = 1 << 31
#: Upper bound on a model-name field; real names are a few bytes.
MAX_NAME_BYTES = 1024
#: Upper bound on tensor rank; the Tonic models top out at rank 4.
MAX_NDIM = 16
#: Upper bound on a tenant identifier (wire field is one length byte).
MAX_TENANT_BYTES = 255
#: Upper bound on a request deadline (wire field is u32 microseconds).
MAX_DEADLINE_MS = _MAX_DEADLINE_US / 1e3
#: Upper bound on a stream id / sequence number (wire fields are u32).
MAX_STREAM_ID = _MAX_U32


class ProtocolError(RuntimeError):
    """Malformed frame, bad magic, or version mismatch."""


class MessageType(IntEnum):
    INFER_REQUEST = 1     # name = model, tensor = input batch
    INFER_RESPONSE = 2    # tensor = output batch
    ERROR = 3             # body = UTF-8 error text
    LIST_REQUEST = 4
    LIST_RESPONSE = 5     # body = UTF-8, newline-separated model names
    STATS_REQUEST = 6
    STATS_RESPONSE = 7    # body = UTF-8 JSON service statistics
    SHUTDOWN = 8
    METRICS_REQUEST = 9
    METRICS_RESPONSE = 10  # body = UTF-8 JSON MetricsRegistry dump
    DEADLINE_EXCEEDED = 11  # body = UTF-8 text: request expired before forward
    OVERLOADED = 12        # body = UTF-8 JSON {"error", "reason", "retry_after_ms"}
    STREAM_OPEN = 13       # name = model; opens the sender's stream_id
    STREAM_CHUNK = 14      # tensor = one chunk of stream input
    STREAM_RESULT = 15     # body = UTF-8 JSON partial/final result (flags bit 0)
    STREAM_CLOSE = 16      # end-of-stream from the opener
    SESSION_LIMIT = 17     # body = UTF-8 JSON {"error", "limit"}: table full
    APP_REQUEST = 18       # name = app, body = typed raw payload (payload_kind)
    APP_RESPONSE = 19      # body = UTF-8 JSON application result


#: Message types that always travel inside a stream (version-4 frames).
STREAM_TYPES = frozenset({
    MessageType.STREAM_OPEN,
    MessageType.STREAM_CHUNK,
    MessageType.STREAM_RESULT,
    MessageType.STREAM_CLOSE,
    MessageType.SESSION_LIMIT,
})

#: Message types that always carry a typed app payload (version-5 frames).
APP_TYPES = frozenset({
    MessageType.APP_REQUEST,
    MessageType.APP_RESPONSE,
})


@dataclass
class Message:
    """One protocol frame.

    ``trace_id``/``span_id`` are the optional request-scoped trace context
    (0 = absent).  A request carries the sender's span as ``span_id``; the
    receiver parents its own spans under it and echoes the context back on
    the response.

    ``deadline_ms``/``priority``/``tenant`` are the optional QoS fields
    (version-3 frames).  ``deadline_ms`` is the remaining latency budget at
    send time (0.0 = no deadline); ``priority`` is a signed class in
    [-128, 127], higher scheduled first; ``tenant`` names the requester for
    per-tenant admission control.

    ``stream_id``/``stream_seq``/``stream_final`` are the stream fields
    (version-4 frames).  ``stream_id`` is nonzero exactly when the frame
    belongs to a stream; ``stream_seq`` is the sender's ordinal within
    that stream; ``stream_final`` marks the last result of the stream.

    ``payload_kind`` is the app-payload type tag (version-5 frames):
    nonzero exactly when the frame carries a typed raw payload —
    :data:`KIND_TENSOR` (float32), :data:`KIND_U8` (uint8 pixels/samples),
    or :data:`KIND_TEXT` (UTF-8 tokens).  For ``KIND_U8`` the ``tensor``
    field holds a uint8 array.
    """

    type: MessageType
    name: str = ""
    tensor: Optional[np.ndarray] = None
    text: str = ""
    trace_id: int = 0
    span_id: int = 0
    deadline_ms: float = 0.0
    priority: int = 0
    tenant: str = ""
    stream_id: int = 0
    stream_seq: int = 0
    stream_final: bool = False
    payload_kind: int = 0

    @property
    def has_qos(self) -> bool:
        return bool(self.deadline_ms or self.priority or self.tenant)

    @property
    def has_stream(self) -> bool:
        return bool(self.stream_id)

    @property
    def has_app(self) -> bool:
        return bool(self.payload_kind)

    def body(self):
        """Payload bytes — a zero-copy memoryview when the tensor allows it.

        A C-contiguous float32 tensor (e.g. a view of an execution plan's
        output slab) is exposed directly as a read-only buffer; the single
        copy then happens inside the frame join in :func:`send_message`.
        Anything else falls back to the converting ``tobytes`` path.
        """
        if self.tensor is not None:
            t = self.tensor
            if self.payload_kind == KIND_U8:
                if t.dtype == np.uint8 and t.flags.c_contiguous:
                    return t.data.cast("B")
                return np.ascontiguousarray(t, dtype=np.uint8).tobytes()
            if t.dtype == np.float32 and t.flags.c_contiguous:
                return t.data.cast("B")
            return np.ascontiguousarray(t, dtype=np.float32).tobytes()
        return self.text.encode("utf-8")


def encode_message(message: Message) -> bytes:
    """Serialize one frame to bytes (the minimal-version layout)."""
    name = message.name.encode("utf-8")
    if len(name) > MAX_NAME_BYTES:
        raise ProtocolError(f"model name too long: {len(name)} bytes")
    tensor = message.tensor
    dims: Tuple[int, ...] = tuple(tensor.shape) if tensor is not None else ()
    if len(dims) > MAX_NDIM:
        raise ProtocolError(f"tensor rank too large: {len(dims)}")
    body = message.body()
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(f"payload too large: {len(body)} bytes")
    traced = bool(message.trace_id or message.span_id)
    if traced and not (0 <= message.trace_id <= _MAX_ID
                       and 0 <= message.span_id <= _MAX_ID):
        raise ProtocolError(
            f"trace context out of u64 range: "
            f"({message.trace_id}, {message.span_id})")
    qos = message.has_qos
    tenant = b""
    if qos:
        if not 0.0 <= message.deadline_ms <= MAX_DEADLINE_MS:
            raise ProtocolError(
                f"deadline out of range: {message.deadline_ms} ms")
        if not -128 <= message.priority <= 127:
            raise ProtocolError(f"priority out of i8 range: {message.priority}")
        tenant = message.tenant.encode("utf-8")
        if len(tenant) > MAX_TENANT_BYTES:
            raise ProtocolError(f"tenant too long: {len(tenant)} bytes")
    streamed = message.has_stream
    if message.type in STREAM_TYPES and not streamed:
        raise ProtocolError(f"{message.type.name} frame without a stream id")
    if (message.stream_seq or message.stream_final) and not streamed:
        raise ProtocolError("stream seq/final set on a non-stream frame")
    if streamed:
        if not 1 <= message.stream_id <= MAX_STREAM_ID:
            raise ProtocolError(
                f"stream id out of u32 range: {message.stream_id}")
        if not 0 <= message.stream_seq <= MAX_STREAM_ID:
            raise ProtocolError(
                f"stream seq out of u32 range: {message.stream_seq}")
    app = message.has_app
    if message.type in APP_TYPES and not app:
        raise ProtocolError(f"{message.type.name} frame without a payload kind")
    if app:
        kind = message.payload_kind
        if kind not in _PAYLOAD_KINDS:
            raise ProtocolError(f"unknown payload kind {kind}")
        if streamed:
            raise ProtocolError("app payload on a stream frame")
        if kind == KIND_TEXT and tensor is not None:
            raise ProtocolError("text payload kind with a tensor body")
        if kind in (KIND_TENSOR, KIND_U8) and (tensor is None or not dims):
            raise ProtocolError("tensor payload kind without a tensor body")
    if app:
        version = APP_VERSION
    elif streamed:
        version = STREAM_VERSION
    elif qos:
        version = QOS_VERSION
    elif traced:
        version = TRACE_VERSION
    else:
        version = VERSION
    # One pre-sized buffer for everything ahead of the body: a single
    # allocation and no per-block bytes objects, so small-request dispatch
    # doesn't pay a join over half a dozen packs.
    head_len = _HEADER.size + _BODY_LEN.size + len(dims) * _DIM.size \
        + len(name) + len(tenant)
    if version >= TRACE_VERSION:
        head_len += _TRACE.size
    if version >= QOS_VERSION:
        head_len += _QOS.size
    if version >= STREAM_VERSION:
        head_len += _STREAM.size
    if version >= APP_VERSION:
        head_len += _PAYLOAD.size
    head = bytearray(head_len)
    _HEADER.pack_into(head, 0, MAGIC, version, int(message.type),
                      len(name), len(dims))
    offset = _HEADER.size
    if version >= TRACE_VERSION:
        _TRACE.pack_into(head, offset, message.trace_id, message.span_id)
        offset += _TRACE.size
    if version >= QOS_VERSION:
        # a nonzero deadline never rounds down to "no deadline" on the wire
        deadline_us = int(round(message.deadline_ms * 1e3))
        if message.deadline_ms and not deadline_us:
            deadline_us = 1
        _QOS.pack_into(head, offset, deadline_us, message.priority, len(tenant))
        offset += _QOS.size
    if version >= STREAM_VERSION:
        flags = STREAM_FINAL if message.stream_final else 0
        _STREAM.pack_into(head, offset, message.stream_id, flags,
                          message.stream_seq)
        offset += _STREAM.size
    if version >= APP_VERSION:
        _PAYLOAD.pack_into(head, offset, message.payload_kind)
        offset += _PAYLOAD.size
    for d in dims:
        _DIM.pack_into(head, offset, d)
        offset += _DIM.size
    _BODY_LEN.pack_into(head, offset, len(body))
    offset += _BODY_LEN.size
    head[offset:offset + len(name)] = name
    offset += len(name)
    if version >= QOS_VERSION:
        head[offset:offset + len(tenant)] = tenant
    return b"".join((head, body))


def send_message(sock: socket.socket, message: Message) -> None:
    """Serialize and send one frame."""
    frame = encode_message(message)
    if faultsite.active is not None:
        frame = faultsite.active.on_send(sock, message.type.name, frame)
    sock.sendall(frame)


#: Per wire version: one precompiled struct for every fixed-width field
#: between the 9-byte header and the dims, and the zeros that stand in for
#: the blocks that version lacks.
_FIXED = {
    version: (struct.Struct(layout), (0,) * (9 - len(layout[1:])))
    for version, layout in (
        (VERSION, "<"),
        (TRACE_VERSION, "<QQ"),
        (QOS_VERSION, "<QQIbB"),
        (STREAM_VERSION, "<QQIbBIBI"),
        (APP_VERSION, "<QQIbBIBIB"),
    )
}
#: ``dims`` then ``body_len``, indexed by rank.
_DIMS = tuple(struct.Struct(f"<{ndim}IQ") for ndim in range(MAX_NDIM + 1))
_MESSAGE_TYPES = {int(mtype): mtype for mtype in MessageType}
_F32, _U8 = np.dtype(np.float32), np.dtype(np.uint8)


def _decode_head(buf):
    """Turn the start of a frame into fields — the one header decoder.

    ``buf`` holds a frame from its first byte on (and may run past its
    end).  While ``buf`` is too short the return value is the byte count
    the caller must have before calling again: the 9-byte header first,
    then everything whose length the header determines (the fixed part
    and the name).  Each stage is validated as soon as its bytes are in,
    so a corrupt header can never drive a large read.  With those bytes
    in, the result is a tuple::

        (tenant_at, tenant_len, body_len, dims, mtype, name, trace_id,
         span_id, deadline_us, priority, stream_id, stream_flags,
         stream_seq, payload_kind)

    where ``tenant_at`` is the offset at which the tenant, then the body,
    follow.
    """
    if len(buf) < _HEADER.size:
        return _HEADER.size
    magic, version, mtype, name_len, ndim = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version not in _FIXED:
        raise ProtocolError(f"unsupported protocol version {version}")
    # Bound the variable-length fields *before* reading them, so a corrupt
    # header can't drive huge reads.
    if name_len > MAX_NAME_BYTES:
        raise ProtocolError(f"model name too long: {name_len} bytes")
    if ndim > MAX_NDIM:
        raise ProtocolError(f"tensor rank too large: {ndim}")
    fixed, absent = _FIXED[version]
    dims_at = _HEADER.size + fixed.size
    name_at = dims_at + _DIMS[ndim].size
    tenant_at = name_at + name_len
    if len(buf) < tenant_at:
        return tenant_at
    (trace_id, span_id, deadline_us, priority, tenant_len, stream_id,
     stream_flags, stream_seq,
     payload_kind) = fixed.unpack_from(buf, _HEADER.size) + absent
    if version >= STREAM_VERSION:
        if version == STREAM_VERSION and not stream_id:
            raise ProtocolError("version-4 frame without a stream id")
        if stream_flags & ~STREAM_FINAL:
            raise ProtocolError(f"unknown stream flags 0x{stream_flags:02x}")
    if version >= APP_VERSION:
        if payload_kind not in _PAYLOAD_KINDS:
            raise ProtocolError(f"unknown payload kind {payload_kind}")
        if stream_id:
            raise ProtocolError("app payload on a stream frame")
    sizes = _DIMS[ndim].unpack_from(buf, dims_at)
    dims, body_len = sizes[:-1], sizes[-1]
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"payload too large: {body_len} bytes")
    name = str(buf[name_at:tenant_at], "utf-8") if name_len else ""
    return (tenant_at, tenant_len, body_len, dims, mtype, name,
            trace_id, span_id, deadline_us, priority, stream_id,
            stream_flags, stream_seq, payload_kind)


def _build_message(head, tenant, body) -> Message:
    """Finish a frame: ``head`` from :func:`_decode_head` plus the tenant
    and body bytes.  ``body`` is any buffer that holds exactly the payload
    and starts 4-byte aligned; a tensor aliases it (no copy) and inherits
    its read-only flag."""
    (_tenant_at, _tenant_len, body_len, dims, mtype, name, trace_id, span_id,
     deadline_us, priority, stream_id, stream_flags, stream_seq,
     payload_kind) = head
    tenant = str(tenant, "utf-8") if tenant else ""
    try:
        mtype = _MESSAGE_TYPES[mtype]
    except KeyError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    if mtype in STREAM_TYPES and not stream_id:
        raise ProtocolError(f"{mtype.name} frame without a stream id")
    if mtype in APP_TYPES and not payload_kind:
        raise ProtocolError(f"{mtype.name} frame without a payload kind")
    tensor, text = None, ""
    if dims:
        if payload_kind == KIND_TEXT:
            raise ProtocolError("text payload kind with tensor dims")
        itemsize = 1 if payload_kind == KIND_U8 else 4
        expected = math.prod(dims) * itemsize
        if expected != body_len:
            raise ProtocolError(
                f"tensor dims {dims} imply {expected} bytes, frame has {body_len}"
            )
        tensor = np.frombuffer(
            body, _U8 if payload_kind == KIND_U8 else _F32).reshape(dims)
    elif payload_kind in (KIND_TENSOR, KIND_U8):
        raise ProtocolError("tensor payload kind without tensor dims")
    elif body_len:
        text = str(body, "utf-8")
    return Message(mtype, name, tensor, text, trace_id, span_id,
                   deadline_us / 1e3, priority, tenant, stream_id, stream_seq,
                   bool(stream_flags & STREAM_FINAL), payload_kind)


def frame_parser():
    """Sans-IO incremental frame parser.

    A generator that yields the byte count it needs next and receives
    exactly those bytes back via ``send``; the parsed :class:`Message` is
    the ``StopIteration`` value.  A thin adapter over the decoder
    :class:`FrameReader` uses, for callers that own the I/O (the asyncio
    client in :mod:`repro.core.aio`), so the wire format has a single
    source of truth.  At most three reads: the header, the rest of the
    fixed part with the name, then tenant with body — so a tenant-less
    frame's body arrives as its own aligned buffer and is aliased, not
    copied.
    """
    buf = yield _HEADER.size
    buf += yield _decode_head(buf) - len(buf)
    head = _decode_head(buf)
    tenant_len, body_len = head[1], head[2]
    tail = (yield tenant_len + body_len) if tenant_len + body_len else b""
    return _build_message(head, tail[:tenant_len],
                          tail[tenant_len:] if tenant_len else tail)


#: First-read size: the header and, for every small frame, the whole frame
#: in one ``recv`` (a DIG tensor request is 4 132 bytes, the longest POS
#: response 5.4 KB).  The allocation is transient — ``recv`` trims it to
#: what arrived — so no scratch buffer outlives a call.  Not larger: the
#: read and the body it precedes are alive together in every connection
#: thread (16 KB read +1.7 % ``peak_rss_mb`` on ``pos_open_batch``, 8 KB
#: +1.0 %).
_READ_BYTES = 8 * 1024


class FrameReader:
    """Buffered blocking frame reader: one per socket, for its whole life.

    ``read()`` issues one greedy ``recv`` and parses whatever frame starts
    the buffer.  Bytes past that frame's end (peers may pipeline, so
    frames do coalesce) stay buffered for the next ``read()``, which
    touches the socket only if the next frame is not already complete.
    That is also why a reader must be dropped with its socket and never
    shared between sockets: after a :class:`ProtocolError` the buffered
    bytes belong to no known frame boundary.

    A body too large for the first read is received straight into one
    right-sized buffer, and nothing is read past it.

    ``exact=True`` never reads past the current frame (three small reads
    instead of one greedy one) — for :func:`recv_message`, whose reader
    does not outlive the call and so has nowhere to keep leftovers.
    """

    __slots__ = ("_sock", "_fault_scope", "_exact", "_buf")

    def __init__(self, sock: socket.socket, fault_scope: str = "",
                 exact: bool = False):
        self._sock = sock
        self._fault_scope = fault_scope
        self._exact = exact
        self._buf = b""

    def _fill(self, buf: bytes, need: int) -> bytes:
        """Receive until ``buf`` holds at least ``need`` bytes."""
        while len(buf) < need:
            short = need - len(buf)
            chunk = self._sock.recv(
                short if self._exact else max(short, _READ_BYTES))
            if not chunk:
                raise ConnectionError("peer closed connection mid-frame")
            buf = buf + chunk if buf else chunk
        return buf

    def read(self) -> Message:
        """Receive and parse one frame (blocking)."""
        if faultsite.active is not None:
            faultsite.active.on_recv(self._sock, self._fault_scope)
        buf, self._buf = self._buf, b""
        head = _decode_head(buf)
        while isinstance(head, int):  # header, then fixed part + name, short
            buf = self._fill(buf, head)
            head = _decode_head(buf)
        tenant_at, tenant_len, body_len = head[:3]
        body_at = tenant_at + tenant_len
        end = body_at + body_len
        # A small frame goes through the (greedy) buffer whole; a large one
        # only up to its body.
        buf = self._fill(buf, end if end <= _READ_BYTES else body_at)
        if len(buf) >= end:
            # The body is sliced out into its own bytes object — a copy of
            # a few KB that keeps float32 data aligned whatever the header
            # length and does not pin the whole read behind one tensor.
            body = buf[body_at:end]
            self._buf = buf[end:]
        else:
            body = self._read_body(memoryview(buf)[body_at:], body_len)
        return _build_message(head, buf[tenant_at:body_at], body)

    def _read_body(self, got: memoryview, body_len: int) -> np.ndarray:
        """Receive a large body into one uninitialised right-sized buffer
        (no chunk list, no join, no zero-fill); ``got`` is its start."""
        body = np.empty(body_len, dtype=np.uint8)
        view = memoryview(body)
        filled = len(got)
        view[:filled] = got
        while filled < body_len:
            count = self._sock.recv_into(view[filled:])
            if not count:
                raise ConnectionError("peer closed connection mid-frame")
            filled += count
        body.flags.writeable = False
        return body


def recv_message(sock: socket.socket, fault_scope: str = "") -> Message:
    """Receive and parse one frame (blocking), reading not one byte past it.

    For one-shot callers and tests; a connection that is read repeatedly
    owns a :class:`FrameReader` instead.  ``fault_scope`` names the
    receiving role for the fault-injection seam (e.g. ``"client"``,
    ``"gateway.client"``, ``"probe"``, or a server's service name); it has
    no effect unless a fault plan is armed.
    """
    return FrameReader(sock, fault_scope, exact=True).read()
