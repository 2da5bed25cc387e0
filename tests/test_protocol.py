"""Unit tests for the DjiNN wire protocol."""

import dataclasses
import json
import socket
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import protocol
from repro.core.client import DjinnClient, DjinnConnectionError
from repro.core.protocol import (
    KIND_TENSOR,
    KIND_TEXT,
    KIND_U8,
    MAX_DEADLINE_MS,
    MAX_NAME_BYTES,
    MAX_NDIM,
    MAX_STREAM_ID,
    MAX_TENANT_BYTES,
    STREAM_FINAL,
    STREAM_TYPES,
    VERSION,
    FrameReader,
    Message,
    MessageType,
    ProtocolError,
    encode_message,
    frame_parser,
    recv_message,
    send_message,
)

_T, _ROW = MessageType, np.zeros((1, 4), np.float32)


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def roundtrip(pair, message):
    a, b = pair
    send_message(a, message)
    return recv_message(b)


def assert_roundtrips(pair, *messages):
    for message in messages:
        assert_same_message(roundtrip(pair, message), message)


def pack_frame(message, flags=None, body=None, version=VERSION):
    """``message`` packed by hand from the documented layout, with none of
    the encoder's checks — for frames a conforming sender never emits."""
    dims = message.tensor.shape if message.tensor is not None else ()
    name, tenant = message.name.encode(), message.tenant.encode()
    body = bytes(message.body()) if body is None else body
    return (struct.pack("<4sBBHBQQIbBIBIB", b"DJNN", version, message.type,
                        len(name), len(dims), message.trace_id,
                        message.span_id, round(message.deadline_ms * 1e3),
                        message.priority, len(tenant), message.stream_id,
                        STREAM_FINAL * message.stream_final if flags is None
                        else flags, message.stream_seq, message.payload_kind)
            + struct.pack(f"<{len(dims)}IQ", *dims, len(body))
            + name + tenant + body)


class TestRoundtrip:
    def test_tensor_message(self, sock_pair, rng):
        tensor = rng.normal(size=(3, 4, 5)).astype(np.float32)
        assert_roundtrips(sock_pair, Message(MessageType.INFER_REQUEST, name="imc",
                                             tensor=tensor))

    def test_tensor_cast_to_float32(self, sock_pair):
        tensor = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = roundtrip(sock_pair, Message(MessageType.INFER_RESPONSE, tensor=tensor))
        assert out.tensor.dtype == np.float32
        np.testing.assert_array_equal(out.tensor, tensor)

    def test_non_contiguous_tensor(self, sock_pair, rng):
        tensor = rng.normal(size=(4, 6)).astype(np.float32)[:, ::2]
        out = roundtrip(sock_pair, Message(MessageType.INFER_RESPONSE, tensor=tensor))
        np.testing.assert_array_equal(out.tensor, tensor)

    def test_text_message(self, sock_pair):
        assert_roundtrips(sock_pair, Message(MessageType.ERROR,
                                             text="no such model: café"))

    def test_empty_message(self, sock_pair):
        assert_roundtrips(sock_pair, Message(MessageType.LIST_REQUEST))

    def test_back_to_back_frames(self, sock_pair):
        a, b = sock_pair
        send_message(a, Message(MessageType.LIST_REQUEST))
        send_message(a, Message(MessageType.METRICS_REQUEST))
        assert recv_message(b).type == MessageType.LIST_REQUEST
        assert recv_message(b).type == MessageType.METRICS_REQUEST

    def test_large_tensor(self, sock_pair, rng):
        """A payload larger than the kernel socket buffer needs a concurrent
        reader (send from a thread, as a real client/server pair would)."""
        tensor = rng.normal(size=(100, 1000)).astype(np.float32)  # ~400KB
        a, b = sock_pair
        sender = threading.Thread(
            target=send_message,
            args=(a, Message(MessageType.INFER_REQUEST, name="x", tensor=tensor)),
        )
        sender.start()
        out = recv_message(b)
        sender.join(timeout=10)
        assert not sender.is_alive()
        np.testing.assert_array_equal(out.tensor, tensor)


class TestTraceContext:
    """The trace context (trace_id 0 = untraced)."""

    def test_trace_ids_roundtrip(self, sock_pair):
        assert_roundtrips(sock_pair, GOLDEN_MESSAGES["traced-infer-response"])

    def test_untraced_frame_is_byte_identical_v1(self):
        """Trace context touches only its own 16 bytes: the untraced frame
        is the traced one with that block zeroed."""
        plain = GOLDEN_MESSAGES["plain-infer"]
        traced = encode_message(dataclasses.replace(plain, trace_id=7, span_id=9))
        assert traced[9:25] == struct.pack("<QQ", 7, 9)
        assert traced[:9] + bytes(16) + traced[25:] == encode_message(plain)

    def test_old_client_v1_frame_parses_with_zero_trace(self, sock_pair):
        """A hand-packed frame from a sender with no trace context: the
        zero trace block reads as absent, everything else intact."""
        a, b = sock_pair
        a.sendall(pack_frame(Message(_T.METRICS_REQUEST)))
        out = recv_message(b)
        assert (out.type, out.trace_id, out.span_id) == (_T.METRICS_REQUEST, 0, 0)

    def test_traced_error_and_text_frames(self, sock_pair):
        assert_roundtrips(sock_pair, Message(MessageType.ERROR, text="boom",
                                             trace_id=1, span_id=2))

    def test_trace_id_out_of_u64_range_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="u64"):
            send_message(a, Message(MessageType.LIST_REQUEST, trace_id=1 << 64))
        with pytest.raises(ProtocolError, match="u64"):
            send_message(a, Message(MessageType.LIST_REQUEST,
                                    trace_id=1, span_id=-5))

    def test_metrics_message_types_roundtrip(self, sock_pair):
        assert_roundtrips(sock_pair, Message(MessageType.METRICS_REQUEST),
                          Message(MessageType.METRICS_RESPONSE,
                                  text='{"metrics": {}}'))


class TestQosContext:
    """The QoS fields (deadline 0 = none, priority 0, empty tenant)."""

    def test_qos_fields_roundtrip(self, sock_pair):
        assert_roundtrips(sock_pair, GOLDEN_MESSAGES["qos-infer-tenant"])

    def test_qos_with_trace_context(self, sock_pair):
        assert_roundtrips(sock_pair, Message(
            MessageType.INFER_REQUEST, name="dig", tensor=np.zeros((1, 4), np.float32),
            trace_id=7, span_id=9, deadline_ms=100.0, priority=-2, tenant="t"))

    def test_qos_less_frame_is_byte_identical_v1(self):
        """With no tenant, QoS touches only its own 6 bytes: the QoS-less
        frame is the QoS one with that block zeroed."""
        plain = GOLDEN_MESSAGES["plain-infer"]
        qos = encode_message(dataclasses.replace(plain, deadline_ms=2.5, priority=-1))
        assert qos[25:31] == struct.pack("<IbB", 2500, -1, 0)
        assert qos[:25] + bytes(6) + qos[31:] == encode_message(plain)

    def test_tiny_deadline_survives_the_wire(self, sock_pair):
        """A nonzero deadline must never round down to "no deadline": the
        wire floor is 1 microsecond."""
        out = roundtrip(sock_pair, Message(MessageType.INFER_REQUEST,
                                           name="m", deadline_ms=0.0001))
        assert out.deadline_ms == pytest.approx(0.001)  # 1 us
        assert out.has_qos

    def test_deadline_out_of_range_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="deadline"):
            send_message(a, Message(MessageType.INFER_REQUEST, name="m",
                                    deadline_ms=MAX_DEADLINE_MS * 2))
        with pytest.raises(ProtocolError, match="deadline"):
            send_message(a, Message(MessageType.INFER_REQUEST, name="m",
                                    deadline_ms=-1.0))

    def test_priority_out_of_i8_range_rejected(self, sock_pair):
        a, _ = sock_pair
        for bad in (128, -129):
            with pytest.raises(ProtocolError, match="priority"):
                send_message(a, Message(MessageType.INFER_REQUEST, name="m",
                                        priority=bad))

    def test_tenant_too_long_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="tenant"):
            send_message(a, Message(MessageType.INFER_REQUEST, name="m",
                                    tenant="x" * (MAX_TENANT_BYTES + 1)))

    def test_max_tenant_roundtrips(self, sock_pair):
        assert_roundtrips(sock_pair, Message(MessageType.INFER_REQUEST, name="m",
                                             tenant="t" * MAX_TENANT_BYTES))

    def test_qos_rejection_types_roundtrip(self, sock_pair):
        body = '{"error": "shed", "reason": "predicted_late", "retry_after_ms": 5.0}'
        assert_roundtrips(sock_pair,
                          Message(MessageType.DEADLINE_EXCEEDED, text="too late"),
                          Message(MessageType.OVERLOADED, text=body))

    def test_old_receiver_rejects_v3_loudly(self, sock_pair):
        """No silent desync: a whole frame in a layout this receiver does
        not speak (a retired version or a later one) fails on its 9-byte
        prefix, and nothing past the prefix is read."""
        a, b = sock_pair
        b.settimeout(5.0)
        for version in (3, VERSION + 1):
            frame = pack_frame(GOLDEN_MESSAGES["qos-infer-tenant"], version=version)
            a.sendall(frame)
            with pytest.raises(ProtocolError, match="unsupported protocol version"):
                recv_message(b)
            assert b.recv(len(frame)) == frame[9:]


class TestStreamContext:
    """The stream fields (stream_id 0 = unary)."""

    def test_stream_frame_types_roundtrip(self, sock_pair, rng):
        chunk = rng.normal(size=(2, 5)).astype(np.float32)
        assert_roundtrips(
            sock_pair,
            Message(MessageType.STREAM_OPEN, name="asr", stream_id=3),
            Message(MessageType.STREAM_CHUNK, name="asr", tensor=chunk,
                    stream_id=3, stream_seq=1),
            Message(MessageType.STREAM_RESULT, text='{"partial": "go"}',
                    stream_id=3, stream_seq=1),
            Message(MessageType.STREAM_RESULT, text='{"transcript": "go"}',
                    stream_id=3, stream_seq=2, stream_final=True),
            Message(MessageType.STREAM_CLOSE, name="asr", stream_id=3,
                    stream_seq=2),
            Message(MessageType.SESSION_LIMIT,
                    text='{"error": "full", "limit": 64}', stream_id=3))

    def test_stream_frame_with_trace_and_qos(self, sock_pair, rng):
        chunk = rng.normal(size=(1, 4)).astype(np.float32)
        assert_roundtrips(sock_pair, Message(
            MessageType.STREAM_CHUNK, name="asr", tensor=chunk, stream_id=9,
            stream_seq=4, trace_id=0xCAFE, span_id=2, priority=3, tenant="alice"))

    def test_unary_v1_bytes_unchanged_exact(self):
        """Byte for byte, a plain unary frame packed field by field: the
        prefix, 32 zero bytes of optional fields, dims, body_len, name, body."""
        expected = (b"DJNN" + bytes([VERSION, _T.INFER_REQUEST])
                    + struct.pack("<HB", 3, 2) + bytes(32)
                    + struct.pack("<IIQ", 1, 4, 16) + b"dig" + bytes(16))
        assert _capture_frame(Message(_T.INFER_REQUEST, name="dig",
                                      tensor=_ROW)) == expected

    def test_encode_message_matches_send_message_bytes(self):
        for name in ("stream-chunk", "stream-result-final"):
            msg = GOLDEN_MESSAGES[name]
            assert encode_message(msg) == _capture_frame(msg)

    def test_v4_frame_with_zero_stream_id_rejected(self, sock_pair):
        assert_readers_refuse(sock_pair, pack_frame(Message(_T.STREAM_CLOSE,
                                                            name="asr")),
                              "STREAM_CLOSE frame without a stream id")

    def test_stream_type_without_stream_id_rejected_on_send(self, sock_pair):
        """Refused before anything reaches the wire."""
        a, b = sock_pair
        for mtype in STREAM_TYPES:
            with pytest.raises(ProtocolError,
                               match=f"{mtype.name} frame without a stream id"):
                send_message(a, Message(mtype, name="m"))
        b.setblocking(False)
        with pytest.raises(BlockingIOError):
            b.recv(1)

    def test_stream_id_out_of_u32_range_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="stream id"):
            send_message(a, Message(MessageType.STREAM_OPEN, name="m",
                                    stream_id=MAX_STREAM_ID + 1))
        with pytest.raises(ProtocolError, match="stream seq"):
            send_message(a, Message(MessageType.STREAM_CHUNK, name="m",
                                    tensor=np.zeros((1, 2), np.float32),
                                    stream_id=1, stream_seq=MAX_STREAM_ID + 1))

    def test_unknown_stream_flags_rejected(self, sock_pair):
        """Flag bits no ``Message`` can carry: refused on receive."""
        a, b = sock_pair
        a.sendall(pack_frame(Message(_T.STREAM_RESULT, stream_id=1), flags=0x80))
        with pytest.raises(ProtocolError, match="unknown stream flags 0x80"):
            recv_message(b)

    def test_error_frame_can_carry_stream_scope(self, sock_pair):
        """A stream-scoped ERROR (dead stream, live connection) is an ERROR
        frame with the stream id attached."""
        assert_roundtrips(sock_pair, Message(MessageType.ERROR, stream_id=7,
                                             text="unknown or closed stream 7"))

    def test_random_stream_messages_roundtrip(self, sock_pair, rng):
        """Random stream frames, pipelined through one socket and one
        FrameReader, come back in order, field for field."""
        messages = []
        for i in range(30):
            payload = (dict(tensor=rng.normal(size=(1, 3)).astype(np.float32))
                       if i % 2 else dict(text='{"n": 1}'))
            messages.append(Message(
                _T.STREAM_CHUNK if i % 2 else _T.STREAM_RESULT, name="asr",
                stream_id=int(rng.integers(1, MAX_STREAM_ID + 1)),
                stream_seq=int(rng.integers(0, MAX_STREAM_ID + 1)),
                stream_final=bool(rng.random() < 0.3),
                trace_id=int(rng.integers(0, 1 << 63)),
                tenant="t" * int(rng.integers(0, 3)), **payload))
        a, b = sock_pair
        b.settimeout(5.0)
        a.sendall(b"".join(encode_message(m) for m in messages))
        reader = FrameReader(b)
        for message in messages:
            assert_same_message(reader.read(), message)


#: (fields, error) for every rule tying a frame's type to its stream and
#: app fields.
BLOCK_RULES = {
    **{f"{t.name.lower()}-without-id": (dict(type=t), f"{t.name} frame without a "
       "stream id") for t in STREAM_TYPES},
    "seq-without-id": (dict(type=_T.INFER_RESPONSE, tensor=_ROW, stream_seq=7),
                       "seq/final set on a non-stream"),
    "final-without-id": (dict(type=_T.APP_RESPONSE, text="x", payload_kind=KIND_TEXT,
                              stream_final=True), "seq/final set on a non-stream"),
    "app-without-kind": (dict(type=_T.APP_REQUEST, tensor=_ROW),
                         "APP_REQUEST frame without a payload kind"),
    "unknown-kind": (dict(type=_T.APP_REQUEST, text="x", payload_kind=9),
                     "unknown payload kind 9"),
    "app-on-stream": (dict(type=_T.STREAM_CHUNK, tensor=_ROW, stream_id=1,
                           payload_kind=KIND_TENSOR), "app payload on a stream"),
    "text-kind-with-dims": (dict(type=_T.APP_REQUEST, tensor=_ROW,
                                 payload_kind=KIND_TEXT), "text payload kind with"),
    "tensor-kind-without-dims": (dict(type=_T.APP_REQUEST, text="x",
                                      payload_kind=KIND_TENSOR), "tensor payload kind"),
    "u8-kind-without-dims": (dict(type=_T.APP_REQUEST, text="x",
                                  payload_kind=KIND_U8), "tensor payload kind"),
}


@pytest.mark.parametrize("rule", sorted(BLOCK_RULES))
def test_block_rule_holds_on_send_and_receive(sock_pair, rule):
    """A receiver refuses exactly the frames its own encoder refuses, so it
    never accepts a reply it cannot forward."""
    fields, error = BLOCK_RULES[rule]
    message = Message(**fields)
    with pytest.raises(ProtocolError, match=error):
        encode_message(message)
    a, b = sock_pair
    a.sendall(pack_frame(message))
    with pytest.raises(ProtocolError, match=error):
        recv_message(b)


def assert_readers_refuse(pair, frame, error):
    """``frame`` is refused by the buffered reader and the sans-IO parser."""
    a, b = pair
    b.settimeout(5.0)
    a.sendall(frame)
    for read in (FrameReader(b).read, lambda: drive_parser(frame)):
        with pytest.raises(ProtocolError, match=error):
            read()


#: One message per frame kind; ``tests/golden/frames.json`` holds each one's
#: frame in hex.  To regenerate after an *intentional* wire change, dump
#: ``{name: encode_message(m).hex() for name, m in GOLDEN_MESSAGES.items()}``.
GOLDEN_MESSAGES = {
    "plain-infer": Message(_T.INFER_REQUEST, name="dig",
                           tensor=np.float32([[0.0, 1.0, 2.0, 3.0]])),
    "traced-infer-response": Message(
        _T.INFER_RESPONSE, name="dig", tensor=np.float32([[0.25, -1.5, 3.0]]),
        trace_id=0xDEADBEEFCAFEF00D, span_id=42),
    "qos-infer-tenant": Message(
        _T.INFER_REQUEST, name="pos", tensor=np.float32([[1.0, 2.0]]),
        deadline_ms=2.5, priority=-1, tenant="acme"),
    "stream-chunk": Message(_T.STREAM_CHUNK, name="asr", stream_id=5,
                            stream_seq=2, tensor=np.float32([[0.5, 4.0]])),
    "stream-result-final": Message(_T.STREAM_RESULT, text='{"transcript": "go"}',
                                   stream_id=5, stream_seq=3, stream_final=True),
    "app-request-u8": Message(
        _T.APP_REQUEST, name="dig", payload_kind=KIND_U8, trace_id=11,
        span_id=12, tensor=np.arange(16, dtype=np.uint8).reshape(1, 4, 4)),
    "app-response-text": Message(_T.APP_RESPONSE, name="dig",
                                 text='{"result": [7]}', payload_kind=KIND_TEXT),
}
GOLDEN_FRAMES = {name: bytes.fromhex(frame) for name, frame in json.loads(
    (Path(__file__).parent / "golden" / "frames.json").read_text()).items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_MESSAGES))
class TestGoldenFrames:
    def test_encoder_emits_the_golden_bytes(self, name):
        assert encode_message(GOLDEN_MESSAGES[name]) == GOLDEN_FRAMES[name]
        assert pack_frame(GOLDEN_MESSAGES[name]) == GOLDEN_FRAMES[name]

    def test_every_reader_decodes_the_golden_bytes(self, sock_pair, name):
        frame, (a, b) = GOLDEN_FRAMES[name], sock_pair
        b.settimeout(5.0)
        a.sendall(frame * 2)  # the one-shot read leaves the second copy
        for out in (recv_message(b), FrameReader(b).read(), drive_parser(frame)):
            assert_same_message(out, GOLDEN_MESSAGES[name])


class TestErrors:
    def test_bad_magic(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"HTTP" + bytes(20))
        with pytest.raises(ProtocolError, match="magic"):
            recv_message(b)

    def test_bad_version(self, sock_pair):
        """Any other version byte, retired ones included, fails at the prefix."""
        a, b = sock_pair
        for version in (0, 1, 2, 3, 4, 5, 255):
            a.sendall(pack_frame(Message(_T.LIST_REQUEST), version=version)[:9])
            with pytest.raises(ProtocolError, match=f"version {version}$"):
                recv_message(b)

    def test_unknown_message_type(self, sock_pair):
        a, b = sock_pair
        a.sendall(pack_frame(Message(200)))
        with pytest.raises(ProtocolError, match="unknown message type"):
            recv_message(b)

    def test_truncated_frame_raises_connection_error(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"DJNN" + bytes([1]))
        a.close()
        with pytest.raises(ConnectionError):
            recv_message(b)

    def test_dims_body_mismatch(self, sock_pair):
        a, b = sock_pair
        # claims a (2, 2) tensor but ships only 4 bytes
        a.sendall(pack_frame(Message(MessageType.INFER_RESPONSE,
                                     tensor=np.zeros((2, 2), np.float32)),
                             body=bytes(4)))
        with pytest.raises(ProtocolError, match="imply"):
            recv_message(b)

    def test_received_tensor_is_readonly_zero_copy(self, sock_pair):
        # the deserialized tensor is backed by the frame's bytes (no copy),
        # so it is read-only — consumers that need to mutate copy themselves
        out = roundtrip(sock_pair, Message(MessageType.INFER_RESPONSE,
                                           tensor=np.ones((2, 2), np.float32)))
        assert not out.tensor.flags.writeable
        with pytest.raises(ValueError):
            out.tensor[0, 0] = 5.0
        owned = out.tensor.copy()
        owned[0, 0] = 5.0  # the explicit copy is writable


class TestHeaderBounds:
    """A corrupt header must not drive huge reads — it must fail fast."""

    @staticmethod
    def header(name_len=0, ndim=0, mtype=4, version=VERSION, magic=b"DJNN"):
        return struct.pack("<4sBBHB", magic, version, mtype, name_len, ndim)

    def test_name_len_over_bound_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall(self.header(name_len=0xFFFF))
        with pytest.raises(ProtocolError, match="name too long"):
            recv_message(b)

    def test_ndim_over_bound_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall(self.header(ndim=255))
        with pytest.raises(ProtocolError, match="rank too large"):
            recv_message(b)

    def test_bounds_are_inclusive(self, sock_pair):
        """A frame right at the limits still parses (no off-by-one)."""
        assert_roundtrips(sock_pair, Message(
            MessageType.INFER_REQUEST, name="x" * MAX_NAME_BYTES,
            tensor=np.zeros((1,) * MAX_NDIM, np.float32)))

    def test_send_side_rejects_oversized_name(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="name too long"):
            send_message(a, Message(MessageType.LIST_REQUEST,
                                    name="x" * (MAX_NAME_BYTES + 1)))

    def test_send_side_rejects_oversized_rank(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="rank too large"):
            send_message(a, Message(MessageType.INFER_REQUEST, name="m",
                                    tensor=np.zeros((1,) * (MAX_NDIM + 1), np.float32)))

    def test_fuzzed_headers_never_hang_or_overallocate(self, sock_pair, rng):
        """Random corrupt headers: every outcome is a clean ProtocolError or
        ConnectionError, raised from the header alone (socket then closed)."""
        for _ in range(50):
            a, b = __import__("socket").socketpair()
            try:
                name_len = int(rng.integers(MAX_NAME_BYTES + 1, 0xFFFF + 1))
                ndim = int(rng.integers(MAX_NDIM + 1, 256))
                corrupt = self.header(
                    name_len=name_len if rng.random() < 0.5 else 0,
                    ndim=ndim if rng.random() < 0.5 else 0,
                    mtype=int(rng.integers(0, 256)),
                    version=int(rng.integers(0, 256)),
                    magic=bytes(rng.integers(0, 256, size=4, dtype=np.uint8)),
                )
                a.sendall(corrupt)
                a.close()
                with pytest.raises((ProtocolError, ConnectionError)):
                    recv_message(b)
            finally:
                b.close()


def _capture_frame(message):
    """The exact bytes ``send_message`` puts on the wire for ``message``."""
    a, b = socket.socketpair()
    try:
        send_message(a, message)
        a.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = b.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        a.close()
        b.close()


class TestFuzzRoundtrip:
    """Property-based sweeps: arbitrary well-formed messages roundtrip
    exactly, and *every* way of cutting a valid frame short fails typed."""

    def test_random_messages_roundtrip(self, rng):
        """Random name / rank / dims / payload, with the trace, QoS, stream
        and app fields each drawn independently — what goes in comes out,
        field for field."""
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz_0123456789"))

        def word(longest):
            return "".join(rng.choice(letters,
                                      size=int(rng.integers(0, longest + 1))))

        for _ in range(60):
            fields = dict(name=word(MAX_NAME_BYTES))
            if rng.random() < 0.5:
                fields.update(trace_id=int(rng.integers(1, 1 << 63)),
                              span_id=int(rng.integers(1, 1 << 63)))
            if rng.random() < 0.5:
                fields.update(deadline_ms=int(rng.integers(1, 1 << 32)) / 1e3,
                              priority=int(rng.integers(-128, 128)),
                              tenant=word(MAX_TENANT_BYTES))
            kind = 0
            if rng.random() < 0.3:
                fields.update(stream_id=int(rng.integers(1, MAX_STREAM_ID + 1)),
                              stream_seq=int(rng.integers(0, MAX_STREAM_ID + 1)),
                              stream_final=bool(rng.random() < 0.3))
            elif rng.random() < 0.5:
                kind = (KIND_TENSOR, KIND_TEXT, KIND_U8)[int(rng.integers(0, 3))]
            if kind in (KIND_TENSOR, KIND_U8) or (not kind and rng.random() < 0.5):
                shape = tuple(rng.integers(1, 3, size=rng.integers(1, MAX_NDIM + 1)))
                fields["tensor"] = (
                    rng.integers(0, 256, size=shape, dtype=np.uint8)
                    if kind == KIND_U8 else rng.normal(size=shape).astype(np.float32))
            else:
                fields["text"] = word(64)
            if kind:
                mtype = _T.APP_REQUEST
            elif "stream_id" in fields:
                mtype = _T.STREAM_CHUNK if "tensor" in fields else _T.STREAM_RESULT
            else:
                mtype = _T.INFER_RESPONSE if "tensor" in fields else _T.ERROR
            msg = Message(mtype, payload_kind=kind, **fields)
            assert_same_message(drive_parser(encode_message(msg)), msg)

    @pytest.mark.parametrize("message", [
        Message(MessageType.INFER_REQUEST, name="pos",
                tensor=np.arange(6, dtype=np.float32).reshape(2, 3)),
        Message(MessageType.INFER_REQUEST, name="pos",
                tensor=np.arange(4, dtype=np.float32).reshape(2, 2),
                trace_id=0xABCDEF, span_id=7),
        Message(MessageType.ERROR, text="model said no"),
        Message(MessageType.STREAM_OPEN, name="asr", stream_id=1),
        Message(MessageType.STREAM_CHUNK, name="asr",
                tensor=np.arange(4, dtype=np.float32).reshape(1, 4),
                stream_id=2, stream_seq=3),
        Message(MessageType.STREAM_RESULT, text='{"partial": "go"}',
                stream_id=2, stream_seq=3, stream_final=True),
        Message(MessageType.STREAM_CLOSE, name="asr", stream_id=2,
                stream_seq=4),
        Message(MessageType.SESSION_LIMIT, text='{"limit": 64}', stream_id=5),
    ], ids=["v1-tensor", "v2-traced-tensor", "text", "v4-open", "v4-chunk",
            "v4-result-final", "v4-close", "v4-session-limit"])
    def test_every_truncation_point_fails_typed(self, message):
        """Cut a valid frame at every possible byte boundary: the receiver
        must raise ProtocolError or ConnectionError each time — never hang,
        never return a bogus message.  A 1-second socket timeout converts a
        would-be hang into a loud failure."""
        frame = _capture_frame(message)
        assert len(frame) > 9  # sanity: magic + version + some header
        for cut in range(len(frame)):
            a, b = socket.socketpair()
            try:
                b.settimeout(1.0)
                a.sendall(frame[:cut])
                a.close()  # EOF right after the truncated prefix
                with pytest.raises((ProtocolError, ConnectionError)):
                    recv_message(b)
            finally:
                b.close()

    def test_full_frame_still_parses_after_truncation_sweep(self, sock_pair):
        """Control for the sweep above: the untruncated frame is valid."""
        assert_roundtrips(sock_pair, Message(
            MessageType.INFER_REQUEST, name="pos",
            tensor=np.arange(6, dtype=np.float32).reshape(2, 3)))


class TestAppPayload:
    """APP_REQUEST/APP_RESPONSE frames with typed raw payloads."""

    def test_tensor_payload_roundtrip(self, sock_pair, rng):
        raw = rng.normal(size=(2, 3, 4)).astype(np.float32)
        assert_roundtrips(sock_pair, Message(MessageType.APP_REQUEST, name="imc",
                                             tensor=raw, payload_kind=KIND_TENSOR))

    def test_u8_payload_roundtrip(self, sock_pair, rng):
        raw = rng.integers(0, 256, size=(1, 28, 28)).astype(np.uint8)
        assert_roundtrips(sock_pair, Message(MessageType.APP_REQUEST, name="dig",
                                             tensor=raw, payload_kind=KIND_U8))

    def test_u8_body_is_one_byte_per_element(self, sock_pair):
        """The whole point of KIND_U8: pixels ship 4x smaller than f32."""
        raw = np.zeros((1, 28, 28), np.uint8)
        frame = _capture_frame(Message(
            MessageType.APP_REQUEST, name="dig", tensor=raw,
            payload_kind=KIND_U8))
        f32 = _capture_frame(Message(
            MessageType.APP_REQUEST, name="dig",
            tensor=raw.astype(np.float32), payload_kind=KIND_TENSOR))
        assert len(f32) - len(frame) == raw.size * 3

    def test_text_payload_roundtrip(self, sock_pair):
        assert_roundtrips(sock_pair, Message(
            MessageType.APP_REQUEST, name="pos", text="the quick brown fox",
            payload_kind=KIND_TEXT))

    def test_app_response_roundtrip(self, sock_pair):
        assert_roundtrips(sock_pair, GOLDEN_MESSAGES["app-response-text"])

    def test_app_payload_rides_trace_and_qos(self, sock_pair):
        assert_roundtrips(sock_pair, Message(
            MessageType.APP_REQUEST, name="face", tensor=np.ones((2, 2), np.float32),
            payload_kind=KIND_TENSOR, trace_id=7, span_id=9, deadline_ms=25.0,
            priority=1, tenant="acme"))

    def test_app_payload_on_stream_frame_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="app payload on a stream"):
            send_message(a, Message(_T.STREAM_RESULT, text="x", stream_id=1,
                                    payload_kind=KIND_TEXT))

    def test_app_payload_on_stream_frame_rejected_on_recv(self, sock_pair):
        assert_readers_refuse(sock_pair, pack_frame(Message(
            _T.STREAM_RESULT, text="x", stream_id=1, payload_kind=KIND_TEXT)),
            "app payload on a stream")

    def test_u8_dims_body_mismatch_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall(pack_frame(Message(MessageType.APP_REQUEST, name="dig",
                                     tensor=np.zeros(8, np.uint8),
                                     payload_kind=KIND_U8),
                             body=bytes(7)))  # dims say 8 bytes, body has 7
        with pytest.raises(ProtocolError, match="imply"):
            recv_message(b)

    def test_encode_message_matches_send_for_app_frames(self):
        for name in ("app-request-u8", "app-response-text"):
            msg = GOLDEN_MESSAGES[name]
            assert encode_message(msg) == _capture_frame(msg)


# ------------------------------------------------------------ FrameReader
class CountingSocket:
    """A socket that counts the receive calls made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.recv_calls = 0
        self.recv_into_calls = 0

    @property
    def calls(self):
        return self.recv_calls + self.recv_into_calls

    def recv(self, *args):
        self.recv_calls += 1
        return self._sock.recv(*args)

    def recv_into(self, *args):
        self.recv_into_calls += 1
        return self._sock.recv_into(*args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def assert_same_message(a, b):
    for field in dataclasses.fields(a):
        if field.name != "tensor":
            assert getattr(a, field.name) == getattr(b, field.name), field.name
    if a.tensor is None:
        assert b.tensor is None
    else:
        assert a.tensor.dtype == b.tensor.dtype
        assert a.tensor.shape == b.tensor.shape
        assert a.tensor.tobytes() == b.tensor.tobytes()


def drive_parser(frame):
    """``frame_parser`` fed from memory, the way :mod:`repro.core.aio` and
    the repository benchmark drive it: exactly the bytes it asks for."""
    parser = frame_parser()
    need = next(parser)
    offset, yields = 0, 1
    try:
        while True:
            chunk = frame[offset:offset + need]
            offset += need
            need = parser.send(chunk)
            yields += 1
    except StopIteration as done:
        assert offset == len(frame)
        assert yields <= 3
        return done.value


def _tensor(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


#: one message per frame kind
FRAME_KINDS = list(GOLDEN_MESSAGES.values())


def _benchmark_frames():
    """The request and response frames of the four benchmark workloads
    (shapes from ``benchmarks/djinn_bench/workloads.py``)."""
    pixels = np.random.default_rng(1).integers(
        0, 256, size=(1, 28, 28), dtype=np.uint8)
    return {
        "imc.request": Message(MessageType.INFER_REQUEST, name="imc",
                               tensor=_tensor((1, 3, 227, 227))),
        "imc.response": Message(MessageType.INFER_RESPONSE, name="imc",
                                tensor=_tensor((1, 1000))),
        "dig_app.request": Message(MessageType.APP_REQUEST, name="dig",
                                   tensor=pixels, payload_kind=KIND_U8,
                                   trace_id=9, span_id=10),
        "dig_app.response": Message(MessageType.APP_RESPONSE, name="dig",
                                    text="[7]", payload_kind=KIND_TEXT),
        "dig.request": Message(MessageType.INFER_REQUEST, name="dig",
                               tensor=_tensor((1, 1, 32, 32))),
        "dig.response": Message(MessageType.INFER_RESPONSE, name="dig",
                                tensor=_tensor((1, 10))),
        "pos.request": Message(MessageType.INFER_REQUEST, name="pos",
                               tensor=_tensor((17, 300)), deadline_ms=1000.0),
        "pos.request.longest": Message(
            MessageType.INFER_REQUEST, name="pos", tensor=_tensor((30, 300)),
            deadline_ms=1000.0),
        "pos.response.longest": Message(
            MessageType.INFER_RESPONSE, name="pos", tensor=_tensor((30, 45))),
    }


BENCH_FRAMES = _benchmark_frames()
#: the reader's greedy first read
FIRST_READ = protocol._READ_BYTES


class TestFrameReader:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_MESSAGES))
    def test_dribbled_frame_equals_one_shot_parse(self, sock_pair, kind):
        """A byte at a time — every possible short read — parses the same."""
        a, b = sock_pair
        message = GOLDEN_MESSAGES[kind]
        frame = encode_message(message)
        b.settimeout(5.0)
        reader = FrameReader(b)
        got = []
        thread = threading.Thread(target=lambda: got.append(reader.read()))
        thread.start()
        for i in range(len(frame)):
            a.sendall(frame[i:i + 1])
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        a.sendall(frame)
        assert_same_message(got[0], reader.read())
        assert_same_message(got[0], message)

    @pytest.mark.parametrize("count", [2, 3])
    def test_coalesced_frames_come_back_in_order(self, sock_pair, count):
        """Frames written in one ``sendall`` and nothing after: a greedy
        reader that dropped its leftovers would block on the second read
        (the timeout turns that hang into a failure)."""
        a, b = sock_pair
        messages = FRAME_KINDS[1:1 + count]
        a.sendall(b"".join(encode_message(m) for m in messages))
        b.settimeout(2.0)
        counting = CountingSocket(b)
        reader = FrameReader(counting)
        for message in messages:
            assert_same_message(reader.read(), message)
        assert counting.calls == 1  # later reads never touched the socket

    def test_leftover_partial_frame_is_completed_from_the_socket(self, sock_pair):
        a, b = sock_pair
        first, second = (encode_message(m) for m in FRAME_KINDS[:2])
        a.sendall(first + second[:11])
        b.settimeout(2.0)
        reader = FrameReader(b)
        assert_same_message(reader.read(), FRAME_KINDS[0])
        a.sendall(second[11:])
        assert_same_message(reader.read(), FRAME_KINDS[1])

    @pytest.mark.parametrize("name", sorted(BENCH_FRAMES))
    def test_reads_per_buffered_frame(self, name):
        """With the whole frame already in the socket buffer: one receive
        call for a frame that fits the first read, at most two up to
        64 KB, and a large body arrives in one buffer (no chunk join)."""
        message = BENCH_FRAMES[name]
        frame = encode_message(message)
        a, b = socket.socketpair()
        b.settimeout(5.0)
        try:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
            b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
            sender = threading.Thread(target=a.sendall, args=(frame,))
            sender.start()
            if len(frame) <= 64 * 1024:
                sender.join(timeout=10.0)
                assert not sender.is_alive()  # all of it is queued at b
            counting = CountingSocket(b)
            out = FrameReader(counting).read()
            sender.join(timeout=10.0)
        finally:
            a.close()
            b.close()
        assert_same_message(out, message)
        if len(frame) <= 64 * 1024:
            assert counting.calls == (1 if len(frame) <= FIRST_READ else 2)
        # only the first read makes a bytes object; the rest of a large body
        # goes straight into its final buffer
        assert counting.recv_calls == 1
        assert bool(counting.recv_into_calls) == (len(frame) > FIRST_READ)
        if out.tensor is not None:
            # the tensor aliases one buffer that holds exactly the body
            base = out.tensor
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            assert memoryview(base).nbytes == out.tensor.nbytes
            assert np.shares_memory(out.tensor, np.frombuffer(base, np.uint8))

    def test_frames_that_must_fit_the_first_read(self):
        """The 848-byte DIG app frame, the 4 164-byte DIG tensor frame, and
        every benchmark response."""
        sizes = {name: len(encode_message(m)) for name, m in BENCH_FRAMES.items()}
        assert sizes["dig.request"] == 4164
        assert sizes["dig_app.request"] == 848
        for name, size in sizes.items():
            if name.endswith("response") or name.endswith("response.longest"):
                assert size <= FIRST_READ, name
        assert FIRST_READ < sizes["pos.request"] < 64 * 1024
        assert sizes["imc.request"] > 600_000

    @pytest.mark.parametrize("name_len", [0, 1, 2, 3, 4, 7])
    @pytest.mark.parametrize("tenant_len", [0, 1, 3, 4])
    @pytest.mark.parametrize("rows", [1, 6000])
    def test_float_tensors_are_aligned_and_read_only(self, name_len, tenant_len,
                                                     rows):
        """Odd name and tenant lengths with every optional field set or not,
        both the buffered and the large-body path, and the sans-IO parser."""
        tensor = _tensor((rows, 3))
        variants = [
            dict(),                                             # plain
            dict(trace_id=1, span_id=2),                        # traced
            dict(deadline_ms=5.0, tenant="t" * tenant_len),     # QoS
            dict(payload_kind=KIND_TENSOR, tenant="t" * tenant_len,
                 type=MessageType.APP_REQUEST),                 # app
        ]
        for extra in variants:
            fields = dict(type=MessageType.INFER_REQUEST, name="n" * name_len,
                          tensor=tensor)
            fields.update(extra)
            message = Message(**fields)
            frame = encode_message(message)
            a, b = socket.socketpair()
            b.settimeout(5.0)
            try:
                sender = threading.Thread(target=a.sendall, args=(frame,))
                sender.start()
                outs = [FrameReader(b).read(), drive_parser(frame)]
                sender.join(timeout=10.0)
                a.sendall(frame[:len(frame) // 2])
                a.sendall(frame[len(frame) // 2:])
                outs.append(recv_message(b))
            finally:
                a.close()
                b.close()
            for out in outs:
                assert_same_message(out, message)
                assert out.tensor.flags.aligned
                assert out.tensor.ctypes.data % 4 == 0
                assert not out.tensor.flags.writeable
                with pytest.raises(ValueError):
                    out.tensor[0, 0] = 1.0

    @pytest.mark.parametrize("message", FRAME_KINDS + list(BENCH_FRAMES.values()))
    def test_frame_parser_equals_frame_reader(self, sock_pair, message):
        a, b = sock_pair
        b.settimeout(5.0)
        frame = encode_message(message)
        sender = threading.Thread(target=a.sendall, args=(frame,))
        sender.start()
        try:
            from_reader = FrameReader(b).read()
        finally:
            sender.join(timeout=10.0)
        assert_same_message(drive_parser(frame), from_reader)
        assert_same_message(from_reader, message)

    def test_recv_message_never_reads_past_its_frame(self, sock_pair):
        """The one-shot form has nowhere to keep leftovers, so it must leave
        the next frame in the socket — in at most three reads."""
        a, b = sock_pair
        b.settimeout(5.0)
        a.sendall(b"".join(encode_message(m) for m in FRAME_KINDS))
        counting = CountingSocket(b)
        for message in FRAME_KINDS:
            before = counting.calls
            assert_same_message(recv_message(counting), message)
            assert counting.calls - before <= 3

    def test_on_recv_fires_once_per_frame_before_any_read(self, sock_pair,
                                                          monkeypatch):
        from repro.core import faultsite

        a, b = sock_pair
        b.settimeout(5.0)
        counting = CountingSocket(b)
        events = []

        class Seam:
            def on_recv(self, sock, scope):
                events.append((sock is counting, scope, counting.calls))

        monkeypatch.setattr(faultsite, "active", Seam())
        a.sendall(encode_message(FRAME_KINDS[0]) * 2)
        reader = FrameReader(counting, fault_scope="probe")
        reader.read()
        reader.read()  # served from the buffer: still announced
        a.sendall(encode_message(FRAME_KINDS[1]))
        recv_message(counting, fault_scope="client")
        assert events == [(True, "probe", 0), (True, "probe", 1),
                          (True, "client", 1)]

    def test_peer_close_mid_body_is_a_connection_error(self):
        for message in (BENCH_FRAMES["dig.request"], BENCH_FRAMES["pos.request"]):
            frame = encode_message(message)
            a, b = socket.socketpair()
            try:
                a.sendall(frame[:-100])
                a.close()
                with pytest.raises(ConnectionError, match="mid-frame"):
                    FrameReader(b).read()
            finally:
                b.close()


class _ScriptedServer:
    """A one-thread TCP peer: for each accepted connection, read one request
    and run the next scripted reply function on the connection."""

    def __init__(self, *replies):
        self._replies = list(replies)
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = self._listener.getsockname()
        self.release = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        conns = []
        try:
            for reply in self._replies:
                conn, _ = self._listener.accept()
                conns.append(conn)
                recv_message(conn)
                reply(conn)
            self.release.wait(10.0)
        finally:
            for conn in conns:
                conn.close()

    def close(self):
        self.release.set()
        self._thread.join(timeout=10.0)
        self._listener.close()
        assert not self._thread.is_alive()


class TestClientOwnsItsReader:
    RESPONSE = Message(MessageType.INFER_RESPONSE, name="dig",
                       tensor=_tensor((1, 10), seed=3))

    def test_corrupt_frame_leaves_nothing_buffered_for_the_next_connection(self):
        """A corrupt frame with more bytes riding behind it in the same
        read: the desynced reader dies with its socket, so the reconnect
        starts from a clean buffer."""
        good = encode_message(self.RESPONSE)
        server = _ScriptedServer(
            lambda conn: conn.sendall(b"XJNN" + good[4:] + good[:37]),
            lambda conn: conn.sendall(good))
        try:
            with DjinnClient(*server.address, timeout_s=5.0) as client:
                x = _tensor((1, 1, 32, 32))
                with pytest.raises(DjinnConnectionError, match="desync"):
                    client.infer("dig", x)
                assert client._sock is None and client._reader is None
                np.testing.assert_array_equal(client.infer("dig", x),
                                              self.RESPONSE.tensor)
        finally:
            server.close()

    @pytest.mark.parametrize("rows", [100, 20000], ids=["buffered", "large-body"])
    def test_timeout_mid_body_is_a_connection_error(self, rows):
        frame = encode_message(Message(MessageType.INFER_RESPONSE, name="dig",
                                       tensor=_tensor((rows, 10))))
        server = _ScriptedServer(lambda conn: conn.sendall(frame[:-64]))
        try:
            with DjinnClient(*server.address, timeout_s=0.2) as client:
                with pytest.raises(DjinnConnectionError, match="transport"):
                    client.infer("dig", _tensor((1, 1, 32, 32)))
                assert client._sock is None and client._reader is None
        finally:
            server.close()

    @pytest.mark.parametrize("rows", [100, 20000], ids=["buffered", "large-body"])
    def test_interrupt_mid_body_is_a_connection_error(self, rows):
        frame = encode_message(Message(MessageType.INFER_RESPONSE, name="dig",
                                       tensor=_tensor((rows, 10))))
        sent = threading.Event()

        def reply(conn):
            conn.sendall(frame[:-64])
            sent.set()

        server = _ScriptedServer(reply)
        try:
            with DjinnClient(*server.address, timeout_s=10.0) as client:
                errors = []

                def call():
                    try:
                        client.infer("dig", _tensor((1, 1, 32, 32)))
                    except DjinnConnectionError as exc:
                        errors.append(exc)

                caller = threading.Thread(target=call)
                caller.start()
                assert sent.wait(5.0)
                time.sleep(0.05)  # let the caller park inside the body read
                client.interrupt()
                caller.join(timeout=5.0)
                assert not caller.is_alive()
                assert len(errors) == 1
        finally:
            server.close()
