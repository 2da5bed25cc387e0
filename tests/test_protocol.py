"""Unit tests for the DjiNN wire protocol."""

import dataclasses
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import protocol
from repro.core.client import DjinnClient, DjinnConnectionError
from repro.core.protocol import (
    APP_VERSION,
    KIND_TENSOR,
    KIND_TEXT,
    KIND_U8,
    MAX_DEADLINE_MS,
    MAX_NAME_BYTES,
    MAX_NDIM,
    MAX_STREAM_ID,
    MAX_TENANT_BYTES,
    QOS_VERSION,
    STREAM_FINAL,
    STREAM_TYPES,
    STREAM_VERSION,
    TRACE_VERSION,
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


class TestRoundtrip:
    def test_tensor_message(self, sock_pair, rng):
        tensor = rng.normal(size=(3, 4, 5)).astype(np.float32)
        out = roundtrip(sock_pair, Message(MessageType.INFER_REQUEST, name="imc", tensor=tensor))
        assert out.type == MessageType.INFER_REQUEST
        assert out.name == "imc"
        np.testing.assert_array_equal(out.tensor, tensor)

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
        out = roundtrip(sock_pair, Message(MessageType.ERROR, text="no such model: café"))
        assert out.type == MessageType.ERROR
        assert out.text == "no such model: café"

    def test_empty_message(self, sock_pair):
        out = roundtrip(sock_pair, Message(MessageType.LIST_REQUEST))
        assert out.type == MessageType.LIST_REQUEST
        assert out.tensor is None and out.text == ""

    def test_back_to_back_frames(self, sock_pair):
        a, b = sock_pair
        send_message(a, Message(MessageType.LIST_REQUEST))
        send_message(a, Message(MessageType.STATS_REQUEST))
        assert recv_message(b).type == MessageType.LIST_REQUEST
        assert recv_message(b).type == MessageType.STATS_REQUEST

    def test_large_tensor(self, sock_pair, rng):
        """A payload larger than the kernel socket buffer needs a concurrent
        reader (send from a thread, as a real client/server pair would)."""
        import threading

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
    """The optional version-2 trace extension and its v1 interop."""

    def test_trace_ids_roundtrip(self, sock_pair, rng):
        tensor = rng.normal(size=(2, 3)).astype(np.float32)
        msg = Message(MessageType.INFER_REQUEST, name="pos", tensor=tensor,
                      trace_id=0xDEADBEEFCAFEF00D, span_id=42)
        out = roundtrip(sock_pair, msg)
        assert out.trace_id == 0xDEADBEEFCAFEF00D
        assert out.span_id == 42
        np.testing.assert_array_equal(out.tensor, tensor)

    def test_untraced_frame_is_byte_identical_v1(self, sock_pair):
        """A new sender with no trace context must emit exactly the old
        wire bytes — this is what keeps old receivers working."""
        a, b = sock_pair
        msg = Message(MessageType.INFER_REQUEST, name="dig",
                      tensor=np.zeros((1, 4), np.float32))
        send_message(a, msg)
        frame = b.recv(1 << 16)
        # hand-pack the original v1 layout
        import struct
        expected = struct.pack("<4sBBHB", b"DJNN", VERSION,
                               int(MessageType.INFER_REQUEST), 3, 2)
        expected += struct.pack("<I", 1) + struct.pack("<I", 4)
        expected += struct.pack("<Q", 16) + b"dig" + bytes(16)
        assert frame == expected

    def test_old_client_v1_frame_parses_with_zero_trace(self, sock_pair):
        """Hand-packed v1 frame (an old client) → new receiver: trace
        context reads as absent, everything else intact."""
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", VERSION,
                            int(MessageType.STATS_REQUEST), 0, 0)
        frame += struct.pack("<Q", 0)
        a.sendall(frame)
        out = recv_message(b)
        assert out.type == MessageType.STATS_REQUEST
        assert out.trace_id == 0 and out.span_id == 0

    def test_hand_packed_v2_frame_parses(self, sock_pair):
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", TRACE_VERSION,
                            int(MessageType.LIST_REQUEST), 0, 0)
        frame += struct.pack("<QQ", 7, 9) + struct.pack("<Q", 0)
        a.sendall(frame)
        out = recv_message(b)
        assert out.type == MessageType.LIST_REQUEST
        assert (out.trace_id, out.span_id) == (7, 9)

    def test_traced_error_and_text_frames(self, sock_pair):
        out = roundtrip(sock_pair, Message(MessageType.ERROR, text="boom",
                                           trace_id=1, span_id=2))
        assert (out.trace_id, out.span_id) == (1, 2)
        assert out.text == "boom"

    def test_trace_id_out_of_u64_range_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="u64"):
            send_message(a, Message(MessageType.LIST_REQUEST, trace_id=1 << 64))
        with pytest.raises(ProtocolError, match="u64"):
            send_message(a, Message(MessageType.LIST_REQUEST,
                                    trace_id=1, span_id=-5))

    def test_metrics_message_types_roundtrip(self, sock_pair):
        assert roundtrip(sock_pair, Message(MessageType.METRICS_REQUEST)).type \
            == MessageType.METRICS_REQUEST
        out = roundtrip(sock_pair, Message(MessageType.METRICS_RESPONSE,
                                           text='{"metrics": {}}'))
        assert out.type == MessageType.METRICS_RESPONSE
        assert out.text == '{"metrics": {}}'


class TestQosContext:
    """The version-3 QoS extension and its v1/v2 interop."""

    def test_qos_fields_roundtrip(self, sock_pair, rng):
        tensor = rng.normal(size=(2, 3)).astype(np.float32)
        msg = Message(MessageType.INFER_REQUEST, name="pos", tensor=tensor,
                      deadline_ms=12.5, priority=3, tenant="alice")
        out = roundtrip(sock_pair, msg)
        assert out.deadline_ms == pytest.approx(12.5)
        assert out.priority == 3
        assert out.tenant == "alice"
        assert out.has_qos
        np.testing.assert_array_equal(out.tensor, tensor)

    def test_qos_with_trace_context(self, sock_pair):
        msg = Message(MessageType.INFER_REQUEST, name="dig",
                      tensor=np.zeros((1, 4), np.float32),
                      trace_id=7, span_id=9, deadline_ms=100.0, priority=-2,
                      tenant="t")
        out = roundtrip(sock_pair, msg)
        assert (out.trace_id, out.span_id) == (7, 9)
        assert (out.deadline_ms, out.priority, out.tenant) == (100.0, -2, "t")

    def test_qos_less_frame_is_byte_identical_v1(self, sock_pair):
        """A QoS-capable sender with no QoS fields must emit exactly the
        old wire bytes — golden-digest compatibility depends on this."""
        import struct
        a, b = sock_pair
        msg = Message(MessageType.INFER_REQUEST, name="dig",
                      tensor=np.zeros((1, 4), np.float32))
        send_message(a, msg)
        frame = b.recv(1 << 16)
        assert frame[4] == VERSION  # not QOS_VERSION
        expected = struct.pack("<4sBBHB", b"DJNN", VERSION,
                               int(MessageType.INFER_REQUEST), 3, 2)
        expected += struct.pack("<I", 1) + struct.pack("<I", 4)
        expected += struct.pack("<Q", 16) + b"dig" + bytes(16)
        assert frame == expected

    def test_traced_qos_less_frame_stays_v2(self, sock_pair):
        a, b = sock_pair
        send_message(a, Message(MessageType.LIST_REQUEST, trace_id=1, span_id=2))
        frame = b.recv(1 << 16)
        assert frame[4] == TRACE_VERSION

    def test_hand_packed_v3_frame_parses(self, sock_pair):
        """A v3 frame built byte by byte from the documented layout."""
        import struct
        a, b = sock_pair
        tenant = b"acme"
        frame = struct.pack("<4sBBHB", b"DJNN", QOS_VERSION,
                            int(MessageType.INFER_REQUEST), 3, 2)
        frame += struct.pack("<QQ", 0, 0)               # trace block (zeros)
        frame += struct.pack("<IbB", 2500, -1, len(tenant))  # QoS block
        frame += struct.pack("<I", 1) + struct.pack("<I", 4)
        frame += struct.pack("<Q", 16) + b"dig" + tenant + bytes(16)
        a.sendall(frame)
        out = recv_message(b)
        assert out.type == MessageType.INFER_REQUEST
        assert out.name == "dig"
        assert out.deadline_ms == pytest.approx(2.5)
        assert out.priority == -1
        assert out.tenant == "acme"
        assert out.tensor.shape == (1, 4)

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
        tenant = "t" * MAX_TENANT_BYTES
        out = roundtrip(sock_pair, Message(MessageType.INFER_REQUEST,
                                           name="m", tenant=tenant))
        assert out.tenant == tenant

    def test_qos_rejection_types_roundtrip(self, sock_pair):
        out = roundtrip(sock_pair, Message(MessageType.DEADLINE_EXCEEDED,
                                           text="too late"))
        assert out.type == MessageType.DEADLINE_EXCEEDED
        assert out.text == "too late"
        body = '{"error": "shed", "reason": "predicted_late", "retry_after_ms": 5.0}'
        out = roundtrip(sock_pair, Message(MessageType.OVERLOADED, text=body))
        assert out.type == MessageType.OVERLOADED
        assert out.text == body

    def test_old_receiver_rejects_v3_loudly(self, sock_pair):
        """There is no silent desync path: a peer that has never heard of
        version 3 fails the version check on the first header."""
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", 99,
                            int(MessageType.INFER_REQUEST), 0, 0)
        frame += struct.pack("<Q", 0)
        a.sendall(frame)
        with pytest.raises(ProtocolError, match="version"):
            recv_message(b)


class TestStreamContext:
    """The version-4 stream extension and its v1/v2/v3 interop."""

    def test_stream_frame_types_roundtrip(self, sock_pair, rng):
        chunk = rng.normal(size=(2, 5)).astype(np.float32)
        frames = [
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
                    text='{"error": "full", "limit": 64}', stream_id=3),
        ]
        for msg in frames:
            out = roundtrip(sock_pair, msg)
            assert out.type == msg.type
            assert out.stream_id == msg.stream_id
            assert out.stream_seq == msg.stream_seq
            assert out.stream_final == msg.stream_final
            assert out.text == msg.text
            if msg.tensor is not None:
                np.testing.assert_array_equal(out.tensor, msg.tensor)

    def test_stream_frame_with_trace_and_qos(self, sock_pair, rng):
        chunk = rng.normal(size=(1, 4)).astype(np.float32)
        msg = Message(MessageType.STREAM_CHUNK, name="asr", tensor=chunk,
                      stream_id=9, stream_seq=4, trace_id=0xCAFE, span_id=2,
                      priority=3, tenant="alice")
        out = roundtrip(sock_pair, msg)
        assert (out.trace_id, out.span_id) == (0xCAFE, 2)
        assert (out.priority, out.tenant) == (3, "alice")
        assert (out.stream_id, out.stream_seq) == (9, 4)

    def test_unary_frames_keep_their_pre_stream_versions(self, sock_pair):
        """The minimal-version rule survives v4: plain → 1, traced → 2,
        qos → 3.  This is the no-regression guarantee for every golden
        digest and every old peer."""
        a, b = sock_pair
        cases = [
            (Message(MessageType.INFER_REQUEST, name="dig",
                     tensor=np.zeros((1, 4), np.float32)), VERSION),
            (Message(MessageType.LIST_REQUEST, trace_id=1, span_id=2),
             TRACE_VERSION),
            (Message(MessageType.INFER_REQUEST, name="m", deadline_ms=5.0),
             QOS_VERSION),
            (Message(MessageType.STREAM_OPEN, name="m", stream_id=1),
             STREAM_VERSION),
        ]
        for msg, version in cases:
            send_message(a, msg)
            frame = b.recv(1 << 16)
            assert frame[4] == version

    def test_unary_v1_bytes_unchanged_exact(self, sock_pair):
        """Full byte-for-byte regression of the v1 layout post-v4."""
        import struct
        frame = _capture_frame(Message(MessageType.INFER_REQUEST, name="dig",
                                       tensor=np.zeros((1, 4), np.float32)))
        expected = struct.pack("<4sBBHB", b"DJNN", VERSION,
                               int(MessageType.INFER_REQUEST), 3, 2)
        expected += struct.pack("<I", 1) + struct.pack("<I", 4)
        expected += struct.pack("<Q", 16) + b"dig" + bytes(16)
        assert frame == expected

    def test_encode_message_matches_send_message_bytes(self):
        for msg in (
            Message(MessageType.INFER_REQUEST, name="pos",
                    tensor=np.arange(6, dtype=np.float32).reshape(2, 3)),
            Message(MessageType.STREAM_CHUNK, name="asr",
                    tensor=np.ones((1, 4), np.float32),
                    stream_id=2, stream_seq=7),
        ):
            assert encode_message(msg) == _capture_frame(msg)

    def test_hand_packed_v4_frame_parses(self, sock_pair):
        """A v4 frame built byte by byte from the documented layout."""
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", STREAM_VERSION,
                            int(MessageType.STREAM_CHUNK), 3, 2)
        frame += struct.pack("<QQ", 0, 0)              # trace block (zeros)
        frame += struct.pack("<IbB", 0, 0, 0)          # qos block (zeros)
        frame += struct.pack("<IBI", 5, 0, 2)          # stream block
        frame += struct.pack("<I", 1) + struct.pack("<I", 4)
        frame += struct.pack("<Q", 16) + b"asr" + bytes(16)
        a.sendall(frame)
        out = recv_message(b)
        assert out.type == MessageType.STREAM_CHUNK
        assert (out.stream_id, out.stream_seq, out.stream_final) == (5, 2, False)
        assert out.tensor.shape == (1, 4)

    def test_v4_frame_with_zero_stream_id_rejected(self, sock_pair):
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", STREAM_VERSION,
                            int(MessageType.STREAM_OPEN), 0, 0)
        frame += struct.pack("<QQ", 0, 0) + struct.pack("<IbB", 0, 0, 0)
        frame += struct.pack("<IBI", 0, 0, 0)
        frame += struct.pack("<Q", 0)
        a.sendall(frame)
        with pytest.raises(ProtocolError, match="without a stream id"):
            recv_message(b)

    def test_unknown_stream_flags_rejected(self, sock_pair):
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", STREAM_VERSION,
                            int(MessageType.STREAM_RESULT), 0, 0)
        frame += struct.pack("<QQ", 0, 0) + struct.pack("<IbB", 0, 0, 0)
        frame += struct.pack("<IBI", 1, 0x80, 1)
        frame += struct.pack("<Q", 0)
        a.sendall(frame)
        with pytest.raises(ProtocolError, match="stream flags"):
            recv_message(b)

    def test_stream_type_without_stream_id_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        for mtype in STREAM_TYPES:
            with pytest.raises(ProtocolError, match="without a stream id"):
                send_message(a, Message(mtype, name="m"))

    def test_stream_fields_on_unary_frame_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="non-stream"):
            send_message(a, Message(MessageType.INFER_REQUEST, name="m",
                                    stream_seq=1))
        with pytest.raises(ProtocolError, match="non-stream"):
            send_message(a, Message(MessageType.ERROR, text="x",
                                    stream_final=True))

    def test_stream_id_out_of_u32_range_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="stream id"):
            send_message(a, Message(MessageType.STREAM_OPEN, name="m",
                                    stream_id=MAX_STREAM_ID + 1))
        with pytest.raises(ProtocolError, match="stream seq"):
            send_message(a, Message(MessageType.STREAM_CHUNK, name="m",
                                    tensor=np.zeros((1, 2), np.float32),
                                    stream_id=1, stream_seq=MAX_STREAM_ID + 1))

    def test_error_frame_can_carry_stream_scope(self, sock_pair):
        """A stream-scoped ERROR (dead stream, live connection) is a v4
        ERROR frame with the stream id attached."""
        out = roundtrip(sock_pair, Message(MessageType.ERROR,
                                           text="unknown or closed stream 7",
                                           stream_id=7))
        assert out.type == MessageType.ERROR
        assert out.stream_id == 7
        assert out.has_stream

    def test_random_stream_messages_roundtrip(self, rng):
        for _ in range(30):
            stream_id = int(rng.integers(1, MAX_STREAM_ID + 1))
            seq = int(rng.integers(0, MAX_STREAM_ID + 1))
            final = bool(rng.random() < 0.3)
            traced = bool(rng.random() < 0.5)
            if rng.random() < 0.5:
                shape = tuple(int(d) for d in rng.integers(1, 4, size=2))
                msg = Message(MessageType.STREAM_CHUNK, name="m",
                              tensor=rng.normal(size=shape).astype(np.float32),
                              stream_id=stream_id, stream_seq=seq,
                              stream_final=final,
                              trace_id=int(rng.integers(1, 1 << 63)) if traced else 0)
            else:
                msg = Message(MessageType.STREAM_RESULT, text='{"n": 1}',
                              stream_id=stream_id, stream_seq=seq,
                              stream_final=final,
                              tenant="t" if rng.random() < 0.5 else "")
            a, b = socket.socketpair()
            try:
                send_message(a, msg)
                out = recv_message(b)
            finally:
                a.close()
                b.close()
            assert (out.stream_id, out.stream_seq, out.stream_final) == \
                (stream_id, seq, final)
            assert out.trace_id == msg.trace_id
            assert out.tenant == msg.tenant


class TestErrors:
    def test_bad_magic(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"HTTP" + bytes(20))
        with pytest.raises(ProtocolError, match="magic"):
            recv_message(b)

    def test_bad_version(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"DJNN" + bytes([99, 1, 0, 0, 0]) + bytes(16))
        with pytest.raises(ProtocolError, match="version"):
            recv_message(b)

    def test_unknown_message_type(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"DJNN" + bytes([1, 200, 0, 0, 0]) + bytes(8))
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
        import struct
        # claims a (2, 2) tensor but ships only 4 bytes
        frame = struct.pack("<4sBBHB", b"DJNN", 1, 2, 0, 2)
        frame += struct.pack("<I", 2) + struct.pack("<I", 2)
        frame += struct.pack("<Q", 4) + b"\x00" * 4
        a.sendall(frame)
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
    def header(name_len=0, ndim=0, mtype=4, version=1, magic=b"DJNN"):
        import struct
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
        msg = Message(MessageType.INFER_REQUEST, name="x" * MAX_NAME_BYTES,
                      tensor=np.zeros((1,) * MAX_NDIM, np.float32))
        out = roundtrip(sock_pair, msg)
        assert out.name == "x" * MAX_NAME_BYTES
        assert out.tensor.shape == (1,) * MAX_NDIM

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
        """Random name length / rank / dims / payload, with and without the
        v2 trace extension — what goes in comes out, field for field."""
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz_0123456789"))
        types = (MessageType.INFER_REQUEST, MessageType.INFER_RESPONSE,
                 MessageType.ERROR, MessageType.LIST_RESPONSE)
        for _ in range(40):
            mtype = types[int(rng.integers(0, len(types)))]
            name = "".join(rng.choice(letters,
                                      size=int(rng.integers(0, MAX_NAME_BYTES + 1))))
            traced = bool(rng.random() < 0.5)
            trace_id = int(rng.integers(1, 1 << 63)) if traced else 0
            span_id = int(rng.integers(1, 1 << 63)) if traced else 0
            if mtype in (MessageType.INFER_REQUEST, MessageType.INFER_RESPONSE):
                ndim = int(rng.integers(1, MAX_NDIM + 1))
                shape = tuple(int(d) for d in rng.integers(1, 4, size=ndim))
                tensor = rng.normal(size=shape).astype(np.float32)
                msg = Message(mtype, name=name, tensor=tensor,
                              trace_id=trace_id, span_id=span_id)
            else:
                tensor = None
                msg = Message(mtype, name=name,
                              text="".join(rng.choice(letters,
                                                      size=int(rng.integers(0, 64)))),
                              trace_id=trace_id, span_id=span_id)
            a, b = socket.socketpair()
            try:
                send_message(a, msg)
                out = recv_message(b)
            finally:
                a.close()
                b.close()
            assert out.type == msg.type
            assert out.name == msg.name
            assert out.text == msg.text
            assert (out.trace_id, out.span_id) == (trace_id, span_id)
            if tensor is not None:
                np.testing.assert_array_equal(out.tensor, tensor)
            else:
                assert out.tensor is None

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

    def test_full_frame_still_parses_after_truncation_sweep(self):
        """Control for the sweep above: the untruncated frame is valid."""
        msg = Message(MessageType.INFER_REQUEST, name="pos",
                      tensor=np.arange(6, dtype=np.float32).reshape(2, 3))
        a, b = socket.socketpair()
        try:
            a.sendall(_capture_frame(msg))
            out = recv_message(b)
        finally:
            a.close()
            b.close()
        np.testing.assert_array_equal(out.tensor, msg.tensor)


class TestAppPayload:
    """Protocol v5: APP_REQUEST/APP_RESPONSE frames with typed raw payloads."""

    def test_tensor_payload_roundtrip(self, sock_pair, rng):
        raw = rng.normal(size=(2, 3, 4)).astype(np.float32)
        out = roundtrip(sock_pair, Message(
            MessageType.APP_REQUEST, name="imc", tensor=raw,
            payload_kind=KIND_TENSOR))
        assert out.type == MessageType.APP_REQUEST
        assert out.payload_kind == KIND_TENSOR
        assert out.has_app
        assert out.tensor.dtype == np.float32
        np.testing.assert_array_equal(out.tensor, raw)

    def test_u8_payload_roundtrip(self, sock_pair, rng):
        raw = rng.integers(0, 256, size=(1, 28, 28)).astype(np.uint8)
        out = roundtrip(sock_pair, Message(
            MessageType.APP_REQUEST, name="dig", tensor=raw,
            payload_kind=KIND_U8))
        assert out.payload_kind == KIND_U8
        assert out.tensor.dtype == np.uint8
        np.testing.assert_array_equal(out.tensor, raw)

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
        out = roundtrip(sock_pair, Message(
            MessageType.APP_REQUEST, name="pos",
            text="the quick brown fox", payload_kind=KIND_TEXT))
        assert out.payload_kind == KIND_TEXT
        assert out.tensor is None
        assert out.text == "the quick brown fox"

    def test_app_response_roundtrip(self, sock_pair):
        out = roundtrip(sock_pair, Message(
            MessageType.APP_RESPONSE, name="dig",
            text='{"result": [7]}', payload_kind=KIND_TEXT))
        assert out.type == MessageType.APP_RESPONSE
        assert out.text == '{"result": [7]}'

    def test_app_payload_rides_trace_and_qos(self, sock_pair):
        raw = np.ones((2, 2), np.float32)
        out = roundtrip(sock_pair, Message(
            MessageType.APP_REQUEST, name="face", tensor=raw,
            payload_kind=KIND_TENSOR, trace_id=7, span_id=9,
            deadline_ms=25.0, priority=1, tenant="acme"))
        assert (out.trace_id, out.span_id) == (7, 9)
        assert out.deadline_ms == pytest.approx(25.0)
        assert (out.priority, out.tenant) == (1, "acme")

    def test_app_frame_without_kind_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="without a payload kind"):
            send_message(a, Message(MessageType.APP_REQUEST, name="dig",
                                    tensor=np.zeros((1, 4), np.float32)))

    def test_text_kind_with_tensor_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="text payload kind"):
            send_message(a, Message(MessageType.APP_REQUEST, name="pos",
                                    tensor=np.zeros((1, 4), np.float32),
                                    payload_kind=KIND_TEXT))

    def test_tensor_kind_without_tensor_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        for kind in (KIND_TENSOR, KIND_U8):
            with pytest.raises(ProtocolError, match="without a tensor body"):
                send_message(a, Message(MessageType.APP_REQUEST, name="imc",
                                        text="x", payload_kind=kind))

    def test_app_payload_on_stream_frame_rejected_on_send(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(ProtocolError, match="app payload on a stream"):
            send_message(a, Message(MessageType.STREAM_CHUNK, name="asr",
                                    tensor=np.zeros((1, 4), np.float32),
                                    stream_id=1, payload_kind=KIND_TENSOR))

    def test_app_payload_on_stream_frame_rejected_on_recv(self, sock_pair):
        """A hand-built hostile frame: stream id AND payload kind set."""
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", APP_VERSION,
                            int(MessageType.STREAM_CHUNK), 3, 0)
        frame += struct.pack("<QQ", 0, 0) + struct.pack("<IbB", 0, 0, 0)
        frame += struct.pack("<IBI", 5, 0, 1)          # stream block
        frame += struct.pack("<B", KIND_TENSOR)        # payload kind
        frame += struct.pack("<Q", 0) + b"asr"
        a.sendall(frame)
        with pytest.raises(ProtocolError, match="app payload on a stream"):
            recv_message(b)

    def test_hand_packed_v5_frame_parses(self, sock_pair):
        """A v5 frame built byte by byte from the documented layout."""
        import struct
        a, b = sock_pair
        pixels = bytes(range(16))
        frame = struct.pack("<4sBBHB", b"DJNN", APP_VERSION,
                            int(MessageType.APP_REQUEST), 3, 2)
        frame += struct.pack("<QQ", 11, 12)            # trace block
        frame += struct.pack("<IbB", 0, 0, 0)          # qos block (zeros)
        frame += struct.pack("<IBI", 0, 0, 0)          # stream block (zeros)
        frame += struct.pack("<B", KIND_U8)            # payload kind
        frame += struct.pack("<I", 4) + struct.pack("<I", 4)
        frame += struct.pack("<Q", 16) + b"dig" + pixels
        a.sendall(frame)
        out = recv_message(b)
        assert out.type == MessageType.APP_REQUEST
        assert out.payload_kind == KIND_U8
        assert (out.trace_id, out.span_id) == (11, 12)
        np.testing.assert_array_equal(
            out.tensor, np.frombuffer(pixels, np.uint8).reshape(4, 4))

    def test_v5_frame_with_unknown_kind_rejected(self, sock_pair):
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", APP_VERSION,
                            int(MessageType.APP_REQUEST), 3, 0)
        frame += struct.pack("<QQ", 0, 0) + struct.pack("<IbB", 0, 0, 0)
        frame += struct.pack("<IBI", 0, 0, 0)
        frame += struct.pack("<B", 9)                  # bogus kind
        frame += struct.pack("<Q", 1) + b"dig" + b"x"
        a.sendall(frame)
        with pytest.raises(ProtocolError, match="unknown payload kind"):
            recv_message(b)

    def test_u8_dims_body_mismatch_rejected(self, sock_pair):
        import struct
        a, b = sock_pair
        frame = struct.pack("<4sBBHB", b"DJNN", APP_VERSION,
                            int(MessageType.APP_REQUEST), 3, 1)
        frame += struct.pack("<QQ", 0, 0) + struct.pack("<IbB", 0, 0, 0)
        frame += struct.pack("<IBI", 0, 0, 0)
        frame += struct.pack("<B", KIND_U8)
        frame += struct.pack("<I", 8)                  # dims say 8 bytes...
        frame += struct.pack("<Q", 7) + b"dig" + bytes(7)   # ...body has 7
        a.sendall(frame)
        with pytest.raises(ProtocolError, match="imply"):
            recv_message(b)

    def test_pre_v5_frames_byte_identical_under_v5(self, sock_pair):
        """The compatibility contract: adding APP frames changed not one
        byte of any v1-v4 frame.  Minimal-version selection keeps every
        app-less message on its pre-v5 wire version."""
        import struct
        cases = [
            (Message(MessageType.INFER_REQUEST, name="dig",
                     tensor=np.zeros((1, 4), np.float32)), VERSION),
            (Message(MessageType.LIST_REQUEST, trace_id=1, span_id=2),
             TRACE_VERSION),
            (Message(MessageType.INFER_REQUEST, name="m", deadline_ms=5.0),
             QOS_VERSION),
            (Message(MessageType.STREAM_OPEN, name="m", stream_id=1),
             STREAM_VERSION),
        ]
        for msg, version in cases:
            frame = _capture_frame(msg)
            assert frame[4] == version
            # the payload_kind byte exists only on v5 frames: a pre-v5
            # header is exactly header+trace+qos+stream blocks, no more
            head = struct.calcsize("<4sBBHB")
            if version >= TRACE_VERSION:
                head += struct.calcsize("<QQ")
            if version >= QOS_VERSION:
                head += struct.calcsize("<IbB")
            if version >= STREAM_VERSION:
                head += struct.calcsize("<IBI")
            ndim = frame[8]
            name_len = int.from_bytes(frame[6:8], "little")
            body = frame[head + 4 * ndim:]
            body_len = int.from_bytes(body[:8], "little")
            assert len(frame) == head + 4 * ndim + 8 + name_len + body_len \
                + (len(msg.tenant.encode()) if version >= QOS_VERSION else 0)

    def test_app_frame_version_is_5(self, sock_pair):
        frame = _capture_frame(Message(
            MessageType.APP_REQUEST, name="pos", text="hi",
            payload_kind=KIND_TEXT))
        assert frame[4] == APP_VERSION

    def test_encode_message_matches_send_for_app_frames(self):
        for msg in (
            Message(MessageType.APP_REQUEST, name="dig",
                    tensor=np.zeros((1, 28, 28), np.uint8),
                    payload_kind=KIND_U8),
            Message(MessageType.APP_RESPONSE, name="dig",
                    text='{"ok": true}', payload_kind=KIND_TEXT),
        ):
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


#: one frame per wire version (v1 .. v5)
VERSION_FRAMES = [
    Message(MessageType.INFER_REQUEST, name="dig", tensor=_tensor((2, 3))),
    Message(MessageType.INFER_RESPONSE, name="dig", tensor=_tensor((1, 10)),
            trace_id=0xABCDEF, span_id=7),
    Message(MessageType.INFER_REQUEST, name="pos", tensor=_tensor((3, 5)),
            deadline_ms=12.5, priority=-2, tenant="tenant-a"),
    Message(MessageType.STREAM_RESULT, text='{"partial": "go"}',
            stream_id=2, stream_seq=3, stream_final=True),
    Message(MessageType.APP_REQUEST, name="dig", payload_kind=KIND_U8,
            tensor=np.arange(16, dtype=np.uint8).reshape(1, 4, 4),
            trace_id=5, span_id=6, deadline_ms=3.0),
]
VERSION_IDS = ["v1", "v2", "v3", "v4", "v5"]


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
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5], ids=VERSION_IDS)
    def test_dribbled_frame_equals_one_shot_parse(self, sock_pair, version):
        """A byte at a time — every possible short read — parses the same."""
        a, b = sock_pair
        message = VERSION_FRAMES[version - 1]
        frame = encode_message(message)
        assert frame[4] == version
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
        messages = (VERSION_FRAMES * 2)[1:1 + count]
        a.sendall(b"".join(encode_message(m) for m in messages))
        b.settimeout(2.0)
        counting = CountingSocket(b)
        reader = FrameReader(counting)
        for message in messages:
            assert_same_message(reader.read(), message)
        assert counting.calls == 1  # later reads never touched the socket

    def test_leftover_partial_frame_is_completed_from_the_socket(self, sock_pair):
        a, b = sock_pair
        first, second = (encode_message(m) for m in VERSION_FRAMES[:2])
        a.sendall(first + second[:11])
        b.settimeout(2.0)
        reader = FrameReader(b)
        assert_same_message(reader.read(), VERSION_FRAMES[0])
        a.sendall(second[11:])
        assert_same_message(reader.read(), VERSION_FRAMES[1])

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
        """The sizes the issue names: the 848-byte DIG app frame, the
        4 132-byte DIG tensor frame, and every benchmark response."""
        sizes = {name: len(encode_message(m)) for name, m in BENCH_FRAMES.items()}
        assert sizes["dig.request"] == 4132
        assert 840 <= sizes["dig_app.request"] <= 860
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
        """Every header length (v1/v2/v3/v5, odd name and tenant lengths),
        both the buffered and the large-body path, and the sans-IO parser."""
        tensor = _tensor((rows, 3))
        variants = [
            dict(),                                             # v1
            dict(trace_id=1, span_id=2),                        # v2
            dict(deadline_ms=5.0, tenant="t" * tenant_len),     # v3
            dict(payload_kind=KIND_TENSOR, tenant="t" * tenant_len,
                 type=MessageType.APP_REQUEST),                 # v5
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

    @pytest.mark.parametrize("message", VERSION_FRAMES + list(BENCH_FRAMES.values()))
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
        a.sendall(b"".join(encode_message(m) for m in VERSION_FRAMES))
        counting = CountingSocket(b)
        for message in VERSION_FRAMES:
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
        a.sendall(encode_message(VERSION_FRAMES[0]) * 2)
        reader = FrameReader(counting, fault_scope="probe")
        reader.read()
        reader.read()  # served from the buffer: still announced
        a.sendall(encode_message(VERSION_FRAMES[1]))
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
