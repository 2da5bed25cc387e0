r"""DjiNN wire protocol: a custom binary protocol over TCP/IP.

The paper (§3.1) describes DjiNN as "a standalone service accepting and
processing external requests ... using a custom socket protocol over
TCP/IP".  This module is that protocol: length-delimited frames carrying a
message type, a model name, and a float32 tensor payload.

Frame layout (all integers little-endian), one layout for every frame::

    magic        4 bytes  b"DJNN"
    version      u8       VERSION; any other value is refused
    type         u8       MessageType
    name_len     u16      model-name byte count
    ndim         u8       payload tensor rank (0 = no tensor)
    trace_id     u64      \ request-scoped trace context (sender's span,
    span_id      u64      / the receiver's parent)
    deadline_us  u32      \
    priority     i8        > QoS
    tenant_len   u8       /
    stream_id    u32      \
    flags        u8        > stream
    seq          u32      /
    payload_kind u8       raw-payload type tag
    dims         u32 * ndim
    body_len     u64      payload byte count (tensor data or UTF-8 text)
    name         name_len bytes (UTF-8)
    tenant       tenant_len bytes (UTF-8)
    body         body_len bytes

The optional fields are always present and zero means absent: trace_id 0
is untraced, deadline_us 0 has no deadline, stream_id 0 is a unary frame,
payload_kind 0 carries no typed app payload.  ``deadline_us`` is the
*remaining* budget at send time — a relative duration, not a wall-clock
timestamp, so it survives clock skew between hosts; each receiver
re-anchors it against its own monotonic clock.  The rules tying a frame's
type to its stream and app fields are :func:`_check_blocks`, applied on
both send and receive.

Receiving: a connection owns one :class:`FrameReader`, which takes a frame
in with one greedy ``recv`` (a large body: one more, straight into a
right-sized buffer) and parses it with one precompiled header struct;
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
    "send_frame",
    "with_trace",
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
    "STREAM_FINAL",
    "STREAM_TYPES",
    "APP_TYPES",
    "KIND_TENSOR",
    "KIND_TEXT",
    "KIND_U8",
]

MAGIC = b"DJNN"
VERSION = 6
#: Stream flag bit: this frame is the final result of its stream.
STREAM_FINAL = 0x01
#: Payload kinds (the ``payload_kind`` byte).
KIND_TENSOR = 1  #: float32 tensor, body_len == 4 * prod(dims)
KIND_TEXT = 2    #: UTF-8 text, ndim == 0
KIND_U8 = 3      #: uint8 tensor, body_len == prod(dims)
_PAYLOAD_KINDS = frozenset({KIND_TENSOR, KIND_TEXT, KIND_U8})
#: The fixed header: every field up to the dims.
_HEADER = struct.Struct("<4sBBHBQQIbBIBIB")
#: Its first 9 bytes, validated before anything they size is read.
_PREFIX = struct.Struct("<4sBBHB")
#: trace_id and span_id, right behind the prefix: header bytes 9-24
_TRACE = struct.Struct("<QQ")

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
#: ``dims`` then ``body_len``, indexed by rank.
_DIMS = tuple(struct.Struct(f"<{ndim}IQ") for ndim in range(MAX_NDIM + 1))


class ProtocolError(RuntimeError):
    """Malformed frame, bad magic, or version mismatch."""


class MessageType(IntEnum):
    INFER_REQUEST = 1     # name = model, tensor = input batch
    INFER_RESPONSE = 2    # tensor = output batch
    ERROR = 3             # body = UTF-8 error text
    LIST_REQUEST = 4
    LIST_RESPONSE = 5     # body = UTF-8, newline-separated model names
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


#: Message types that always travel inside a stream (nonzero stream id).
STREAM_TYPES = frozenset({
    MessageType.STREAM_OPEN,
    MessageType.STREAM_CHUNK,
    MessageType.STREAM_RESULT,
    MessageType.STREAM_CLOSE,
    MessageType.SESSION_LIMIT,
})

#: Message types that always carry a typed app payload (nonzero kind).
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

    ``deadline_ms``/``priority``/``tenant`` are the optional QoS fields.
    ``deadline_ms`` is the remaining latency budget at send time (0.0 = no
    deadline); ``priority`` is a signed class in [-128, 127], higher
    scheduled first; ``tenant`` names the requester for per-tenant
    admission control.

    ``stream_id``/``stream_seq``/``stream_final`` are the stream fields.
    ``stream_id`` is nonzero exactly when the frame belongs to a stream;
    ``stream_seq`` is the sender's ordinal within that stream;
    ``stream_final`` marks the last result of the stream.

    ``payload_kind`` is the app-payload type tag: nonzero exactly when the
    frame carries a typed raw payload — :data:`KIND_TENSOR` (float32),
    :data:`KIND_U8` (uint8 pixels/samples), or :data:`KIND_TEXT` (UTF-8
    tokens).  For ``KIND_U8`` the ``tensor`` field holds a uint8 array.
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


def _check_blocks(mtype: MessageType, stream_id: int, seq: int, flags: int,
                  kind: int, has_dims: bool) -> None:
    """The rules tying a frame's type to its stream and app fields.

    One copy for both directions, so a receiver never accepts a frame its
    own encoder would refuse to forward."""
    if flags & ~STREAM_FINAL:
        raise ProtocolError(f"unknown stream flags 0x{flags:02x}")
    if not stream_id:
        if mtype in STREAM_TYPES:
            raise ProtocolError(f"{mtype.name} frame without a stream id")
        if seq or flags:
            raise ProtocolError("stream seq/final set on a non-stream frame")
    if not kind:
        if mtype in APP_TYPES:
            raise ProtocolError(f"{mtype.name} frame without a payload kind")
        return
    if kind not in _PAYLOAD_KINDS:
        raise ProtocolError(f"unknown payload kind {kind}")
    if stream_id:
        raise ProtocolError("app payload on a stream frame")
    if kind == KIND_TEXT:
        if has_dims:
            raise ProtocolError("text payload kind with tensor dims")
    elif not has_dims:
        raise ProtocolError("tensor payload kind without tensor dims")


def encode_message(message: Message) -> bytes:
    """Serialize one frame to bytes."""
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
    if not (0 <= message.trace_id <= _MAX_ID and 0 <= message.span_id <= _MAX_ID):
        raise ProtocolError(
            f"trace context out of u64 range: "
            f"({message.trace_id}, {message.span_id})")
    deadline_us = 0
    if message.deadline_ms:
        if not 0.0 < message.deadline_ms <= MAX_DEADLINE_MS:
            raise ProtocolError(
                f"deadline out of range: {message.deadline_ms} ms")
        # a nonzero deadline never rounds down to "no deadline" on the wire
        deadline_us = max(1, int(round(message.deadline_ms * 1e3)))
    if not -128 <= message.priority <= 127:
        raise ProtocolError(f"priority out of i8 range: {message.priority}")
    tenant = message.tenant.encode("utf-8")
    if len(tenant) > MAX_TENANT_BYTES:
        raise ProtocolError(f"tenant too long: {len(tenant)} bytes")
    if not 0 <= message.stream_id <= MAX_STREAM_ID:
        raise ProtocolError(f"stream id out of u32 range: {message.stream_id}")
    if not 0 <= message.stream_seq <= MAX_STREAM_ID:
        raise ProtocolError(
            f"stream seq out of u32 range: {message.stream_seq}")
    flags = STREAM_FINAL if message.stream_final else 0
    _check_blocks(message.type, message.stream_id, message.stream_seq, flags,
                  message.payload_kind, bool(dims))
    return b"".join((
        _HEADER.pack(MAGIC, VERSION, message.type, len(name), len(dims),
                     message.trace_id, message.span_id, deadline_us,
                     message.priority, len(tenant), message.stream_id, flags,
                     message.stream_seq, message.payload_kind),
        _DIMS[len(dims)].pack(*dims, len(body)), name, tenant, body))


def with_trace(frame: bytes, trace_id: int, span_id: int) -> bytearray:
    """A copy of an encoded frame carrying another trace context."""
    out = bytearray(frame)
    _TRACE.pack_into(out, _PREFIX.size, trace_id, span_id)
    return out


def send_frame(sock: socket.socket, frame) -> None:
    """Send one encoded frame through the ``protocol.send`` fault site."""
    if faultsite.active is not None:
        frame = faultsite.active.on_send(
            sock, _MESSAGE_TYPES[frame[5]].name, frame)
    sock.sendall(frame)


def send_message(sock: socket.socket, message: Message) -> None:
    """Serialize and send one frame."""
    send_frame(sock, encode_message(message))


_MESSAGE_TYPES = {int(mtype): mtype for mtype in MessageType}
_F32, _U8 = np.dtype(np.float32), np.dtype(np.uint8)


def _decode_head(buf):
    """Turn the start of a frame into fields — the one header decoder.

    ``buf`` holds a frame from its first byte on (and may run past its
    end).  While ``buf`` is too short the return value is the byte count
    the caller must have before calling again: the 9-byte prefix first,
    then everything whose length the prefix determines (the rest of the
    header, the dims and the name).  Each stage is validated as soon as
    its bytes are in, so a corrupt header can never drive a large read.
    With those bytes in, the result is a tuple::

        (tenant_at, tenant_len, body_len, dims, mtype, name, trace_id,
         span_id, deadline_us, priority, stream_id, stream_flags,
         stream_seq, payload_kind)

    where ``tenant_at`` is the offset at which the tenant, then the body,
    follow.
    """
    if len(buf) < _PREFIX.size:
        return _PREFIX.size
    magic, version, _, name_len, ndim = _PREFIX.unpack_from(buf)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    # Bound the variable-length fields *before* reading them, so a corrupt
    # header can't drive huge reads.
    if name_len > MAX_NAME_BYTES:
        raise ProtocolError(f"model name too long: {name_len} bytes")
    if ndim > MAX_NDIM:
        raise ProtocolError(f"tensor rank too large: {ndim}")
    name_at = _HEADER.size + _DIMS[ndim].size
    tenant_at = name_at + name_len
    if len(buf) < tenant_at:
        return tenant_at
    (_, _, mtype, _, _, trace_id, span_id, deadline_us, priority, tenant_len,
     stream_id, stream_flags, stream_seq,
     payload_kind) = _HEADER.unpack_from(buf)
    try:
        mtype = _MESSAGE_TYPES[mtype]
    except KeyError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    _check_blocks(mtype, stream_id, stream_seq, stream_flags, payload_kind,
                  ndim > 0)
    sizes = _DIMS[ndim].unpack_from(buf, _HEADER.size)
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
    tensor, text = None, ""
    if dims:
        itemsize = 1 if payload_kind == KIND_U8 else 4
        expected = math.prod(dims) * itemsize
        if expected != body_len:
            raise ProtocolError(
                f"tensor dims {dims} imply {expected} bytes, frame has {body_len}"
            )
        tensor = np.frombuffer(
            body, _U8 if payload_kind == KIND_U8 else _F32).reshape(dims)
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
    source of truth.  At most three reads: the prefix, the rest of the
    header with the name, then tenant with body — so a tenant-less frame's
    body arrives as its own aligned buffer and is aliased, not copied.
    """
    buf = yield _PREFIX.size
    buf += yield _decode_head(buf) - len(buf)
    head = _decode_head(buf)
    tenant_len, body_len = head[1], head[2]
    tail = (yield tenant_len + body_len) if tenant_len + body_len else b""
    return _build_message(head, tail[:tenant_len],
                          tail[tenant_len:] if tenant_len else tail)


#: First-read size: the header and, for every small frame, the whole frame
#: in one ``recv`` (a DIG tensor request is 4 164 bytes, the longest POS
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
        while isinstance(head, int):  # prefix, then header + name, short
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
