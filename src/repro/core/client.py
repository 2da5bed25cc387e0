"""DjiNN client library and the remote DNN backend for Tonic apps."""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import render_exposition
from ..obs.trace import Tracer, get_tracer
from ..tonic.app import DnnBackend
from .protocol import (
    FrameReader,
    KIND_TENSOR,
    KIND_TEXT,
    KIND_U8,
    Message,
    MessageType,
    ProtocolError,
    send_message,
)
from .stats import summarize

__all__ = [
    "DjinnClient",
    "DjinnStream",
    "StreamResult",
    "RemoteBackend",
    "DjinnServiceError",
    "DjinnConnectionError",
    "DjinnDeadlineError",
    "DjinnOverloadedError",
    "DjinnStreamError",
    "DjinnSessionLimitError",
]


class DjinnServiceError(RuntimeError):
    """The service answered with an ERROR frame."""


class DjinnDeadlineError(DjinnServiceError):
    """The request's deadline expired before the service ran it.

    A typed rejection (DEADLINE_EXCEEDED frame), not a transport failure:
    the request was received, parsed, and deliberately dropped because its
    latency budget was already spent.  Retrying verbatim is pointless — the
    budget does not reset — so the gateway passes it through un-retried.
    """


class DjinnOverloadedError(DjinnServiceError):
    """The service shed the request under load (OVERLOADED frame).

    Backpressure, not failure: the request never ran.  ``retry_after_ms``
    is the sender's hint for when capacity is expected back (0 = unknown);
    ``reason`` distinguishes tenant throttling from predicted-late shedding.
    """

    def __init__(self, message: str, reason: str = "", retry_after_ms: float = 0.0):
        super().__init__(message)
        self.reason = reason
        self.retry_after_ms = retry_after_ms


class DjinnStreamError(DjinnServiceError):
    """A stream-scoped typed error (stream-carrying ERROR frame).

    The *connection* is still healthy — only the named stream is dead
    (chunk after close, unknown stream id, injected mid-stream drop, a
    chunk the application rejected).  Other streams multiplexed on the
    same connection continue unaffected.
    """

    def __init__(self, message: str, stream_id: int = 0):
        super().__init__(message)
        self.stream_id = stream_id


class DjinnSessionLimitError(DjinnStreamError):
    """The server's stream session table is full (SESSION_LIMIT frame).

    Backpressure on stream *opens*, analogous to OVERLOADED for unary
    requests: nothing about this stream was wrong, the table was simply at
    capacity — retry after closing other streams or against another
    backend.  ``limit`` echoes the server's configured table size.
    """

    def __init__(self, message: str, stream_id: int = 0, limit: int = 0):
        super().__init__(message, stream_id=stream_id)
        self.limit = limit


@dataclass(frozen=True)
class StreamResult:
    """One STREAM_RESULT payload: the decoded JSON plus frame metadata."""

    data: dict = field(default_factory=dict)
    seq: int = 0
    final: bool = False


class DjinnConnectionError(DjinnServiceError, OSError):
    """The request failed at the transport level (connect/send/recv).

    Unlike a plain :class:`DjinnServiceError` (the model rejected the
    request), a connection error is retryable: the same request may succeed
    against another replica, or this one after :meth:`DjinnClient.reconnect`.
    Also an :class:`OSError` so callers that treat the client like a raw
    socket (``except OSError`` around connect/poll loops) keep working.
    """


class DjinnClient:
    """Blocking client for one DjiNN connection.

    One client maps to one TCP connection; requests on it are serialized.
    Load generators open one client per concurrent stream.

    ``tracer`` defaults to the process tracer (disabled unless enabled);
    while it is enabled each :meth:`infer` opens a ``client.infer`` span and
    sends its trace context on the wire, so the server's spans join the same
    trace.  With the tracer disabled, the frame's trace context is zero.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0,
                 tracer: Optional[Tracer] = None, fault_scope: str = "client"):
        self._host, self._port, self._timeout_s = host, port, timeout_s
        self._tracer = tracer if tracer is not None else get_tracer()
        self._fault_scope = fault_scope
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[FrameReader] = None
        self._connect()
        self._closed = False
        self._next_stream_id = 1

    def _connect(self) -> None:
        """Dial the server; the socket gets its own frame reader."""
        try:
            sock = socket.create_connection((self._host, self._port),
                                            timeout=self._timeout_s)
        except OSError as exc:
            raise DjinnConnectionError(
                f"cannot connect to {self._host}:{self._port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reader = FrameReader(sock, self._fault_scope)

    # -------------------------------------------------------------- plumbing
    def _teardown(self) -> None:
        """Drop the socket and, with it, whatever its reader had buffered;
        the next roundtrip dials fresh."""
        sock, self._sock, self._reader = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _exchange(self, request: Message) -> Message:
        """Send one frame, receive one frame; transport errors are typed."""
        if self._closed:
            raise RuntimeError("client is closed")
        if self._sock is None:
            # previous roundtrip died on a transport error; reconnect rather
            # than read whatever half-frame the dead stream left behind
            self._connect()
        try:
            send_message(self._sock, request)
            return self._reader.read()
        except ProtocolError as exc:
            # A malformed frame means the stream is desynced: any bytes still
            # buffered belong to no known frame boundary, so the connection
            # can never be trusted again.  Surface it as retryable transport
            # failure — a fresh connection will resync.
            self._teardown()
            raise DjinnConnectionError(
                f"protocol desync talking to {self._host}:{self._port}: {exc}"
            ) from exc
        except (ConnectionError, socket.timeout, OSError) as exc:
            self._teardown()
            raise DjinnConnectionError(
                f"transport failure talking to {self._host}:{self._port}: {exc}"
            ) from exc

    def exchange(self, request: Message) -> Message:
        """Raw one-request/one-reply exchange with no response typing.

        The gateway relays every frame it forwards — unary requests and
        stream frames alike — through this and hands back whatever the
        backend answered: typed interpretation happens at the edge client,
        not mid-path.  Transport failures still raise
        :class:`DjinnConnectionError`.
        """
        return self._exchange(request)

    def _roundtrip(self, request: Message) -> Message:
        response = self._exchange(request)
        if response.type == MessageType.ERROR:
            raise DjinnServiceError(response.text)
        if response.type == MessageType.DEADLINE_EXCEEDED:
            raise DjinnDeadlineError(response.text)
        if response.type == MessageType.OVERLOADED:
            try:
                detail = json.loads(response.text)
            except ValueError:
                detail = {"error": response.text}
            raise DjinnOverloadedError(
                detail.get("error", response.text),
                reason=detail.get("reason", ""),
                retry_after_ms=float(detail.get("retry_after_ms", 0.0)))
        return response

    def _stream_roundtrip(self, request: Message) -> Message:
        """Roundtrip with stream-scoped (rather than unary) error typing."""
        response = self._exchange(request)
        if response.type == MessageType.SESSION_LIMIT:
            try:
                detail = json.loads(response.text)
            except ValueError:
                detail = {"error": response.text}
            raise DjinnSessionLimitError(
                detail.get("error", response.text),
                stream_id=response.stream_id,
                limit=int(detail.get("limit", 0)))
        if response.type == MessageType.ERROR:
            if response.stream_id:
                raise DjinnStreamError(response.text,
                                       stream_id=response.stream_id)
            raise DjinnServiceError(response.text)
        return response

    def interrupt(self) -> None:
        """Wake a roundtrip blocked in recv on another thread.

        ``close()`` only drops the fd — a thread already parked inside
        ``recv`` stays parked.  ``shutdown`` forces that recv to return
        end-of-stream, so the blocked roundtrip unwinds with a
        :class:`DjinnConnectionError`.  Used by the gateway's hedged
        requests to cancel the losing arm first-wins.
        """
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def reconnect(self) -> "DjinnClient":
        """Drop the current connection (if any) and dial the server again."""
        self._teardown()
        self._connect()
        self._closed = False
        return self

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._teardown()

    @property
    def address(self) -> Tuple[str, int]:
        return (self._host, self._port)

    def __enter__(self) -> "DjinnClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- requests
    def infer(self, model: str, inputs: np.ndarray,
              deadline_ms: float = 0.0, priority: int = 0,
              tenant: str = "") -> np.ndarray:
        """Run a batch through ``model`` on the service.

        ``deadline_ms`` is the remaining latency budget (0 = none): a server
        that cannot run the request within it answers with a typed
        DEADLINE_EXCEEDED frame (:class:`DjinnDeadlineError`) instead of
        queueing it to die.  ``priority`` (higher first) and ``tenant`` feed
        the server-side scheduler and the gateway's admission control.  With
        all three at their defaults the request is byte-identical to a
        pre-QoS client's.
        """
        inputs = np.ascontiguousarray(inputs, dtype=np.float32)
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("client.infer", category="client", model=model,
                             backend=f"{self._host}:{self._port}") as span:
                response = self._roundtrip(
                    Message(MessageType.INFER_REQUEST, name=model, tensor=inputs,
                            trace_id=span.trace_id, span_id=span.span_id,
                            deadline_ms=deadline_ms, priority=priority,
                            tenant=tenant)
                )
        else:
            response = self._roundtrip(
                Message(MessageType.INFER_REQUEST, name=model, tensor=inputs,
                        deadline_ms=deadline_ms, priority=priority,
                        tenant=tenant)
            )
        if response.type != MessageType.INFER_RESPONSE or response.tensor is None:
            raise DjinnServiceError(f"unexpected response type {response.type}")
        return response.tensor

    @staticmethod
    def app_message(app: str, raw, deadline_ms: float = 0.0,
                    priority: int = 0, tenant: str = "",
                    trace_id: int = 0, span_id: int = 0) -> Message:
        """Build the APP_REQUEST frame for a raw application payload.

        The payload kind follows the python type: ``str`` ships as UTF-8
        text (NLP queries), a ``uint8`` array as raw bytes (pixel/sample
        bytes at a quarter of the float wire size — the server rescales to
        [0, 1]), anything else as a float32 tensor.
        """
        kwargs = dict(deadline_ms=deadline_ms, priority=priority,
                      tenant=tenant, trace_id=trace_id, span_id=span_id)
        if isinstance(raw, str):
            return Message(MessageType.APP_REQUEST, name=app, text=raw,
                           payload_kind=KIND_TEXT, **kwargs)
        arr = np.asarray(raw)
        if arr.dtype == np.uint8:
            return Message(MessageType.APP_REQUEST, name=app,
                           tensor=np.ascontiguousarray(arr),
                           payload_kind=KIND_U8, **kwargs)
        return Message(MessageType.APP_REQUEST, name=app,
                       tensor=np.ascontiguousarray(arr, dtype=np.float32),
                       payload_kind=KIND_TENSOR, **kwargs)

    def infer_app(self, app: str, raw, deadline_ms: float = 0.0,
                  priority: int = 0, tenant: str = ""):
        """Run one raw application query server-side (an APP frame).

        ``raw`` is the *unpreprocessed* payload — an image (float array in
        [0, 1] or uint8 bytes), audio samples, or query text — and the
        server runs the whole Tonic preprocess -> DNN -> postprocess
        pipeline, returning the application's JSON answer (labels,
        identities, a transcript, tags) instead of a raw tensor.  QoS
        fields behave as in :meth:`infer`.
        """
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("client.app", category="client", model=app,
                             backend=f"{self._host}:{self._port}") as span:
                response = self._roundtrip(self.app_message(
                    app, raw, deadline_ms, priority, tenant,
                    trace_id=span.trace_id, span_id=span.span_id))
        else:
            response = self._roundtrip(self.app_message(
                app, raw, deadline_ms, priority, tenant))
        if response.type != MessageType.APP_RESPONSE:
            raise DjinnServiceError(f"unexpected response type {response.type}")
        return json.loads(response.text) if response.text else None

    def list_models(self) -> List[str]:
        response = self._roundtrip(Message(MessageType.LIST_REQUEST))
        return [name for name in response.text.split("\n") if name]

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-model request summary — requests, inputs, mean/p50/p95/p99/max
        ms — of one METRICS dump (:func:`repro.core.stats.summarize`)."""
        return summarize(self.metrics())

    def metrics(self) -> dict:
        """The server's metrics-registry dump (see ``repro.obs.metrics``)."""
        response = self._roundtrip(Message(MessageType.METRICS_REQUEST))
        if response.type != MessageType.METRICS_RESPONSE:
            raise DjinnServiceError(f"unexpected response type {response.type}")
        return json.loads(response.text) if response.text else {"metrics": {}}

    def metrics_text(self) -> str:
        """The server's metrics as Prometheus-style text exposition."""
        return render_exposition(self.metrics())

    def shutdown_server(self) -> None:
        """Ask the server to stop (used by examples; tests stop it directly)."""
        try:
            self._roundtrip(Message(MessageType.SHUTDOWN))
        except (DjinnConnectionError, ConnectionError, OSError):
            pass
        self.close()

    # ------------------------------------------------------------- streaming
    def open_stream(self, model: str, stream_id: Optional[int] = None,
                    priority: int = 0, tenant: str = "") -> "DjinnStream":
        """Open a streaming session for ``model`` (stream frames).

        Stream ids are per-connection; by default the client allocates the
        next unused one.  Raises :class:`DjinnSessionLimitError` when the
        server's session table is full, :class:`DjinnServiceError` for an
        unknown model.  Several streams may be open on one client and
        interleaved freely — every operation is one ordered roundtrip.
        """
        if stream_id is None:
            stream_id = self._next_stream_id
        self._next_stream_id = max(self._next_stream_id, stream_id) + 1
        open_msg = Message(MessageType.STREAM_OPEN, name=model,
                           stream_id=stream_id, priority=priority,
                           tenant=tenant)
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("client.stream", category="client", model=model,
                             backend=f"{self._host}:{self._port}") as span:
                open_msg.trace_id = span.trace_id
                open_msg.span_id = span.span_id
                ack = self._stream_roundtrip(open_msg)
        else:
            ack = self._stream_roundtrip(open_msg)
        if ack.type != MessageType.STREAM_OPEN or ack.stream_id != stream_id:
            raise DjinnServiceError(
                f"unexpected stream-open reply {ack.type} "
                f"(stream {ack.stream_id})")
        return DjinnStream(self, model, stream_id,
                           trace_id=open_msg.trace_id,
                           span_id=open_msg.span_id)


class DjinnStream:
    """One open stream on a :class:`DjinnClient` connection.

    Every :meth:`send` carries one chunk and returns the server's partial
    :class:`StreamResult` for it; :meth:`close` ends the stream and returns
    the final result.  When the server endpoints the stream early (trailing
    silence on an ASR stream), the partial returned by ``send`` is already
    final — ``close`` then just hands back that cached result instead of
    touching the wire.  Deliberately *no* local liveness guard beyond that:
    a chunk sent after close reaches the server and comes back as the typed
    :class:`DjinnStreamError` the lifecycle tests pin down.
    """

    def __init__(self, client: DjinnClient, model: str, stream_id: int,
                 trace_id: int = 0, span_id: int = 0):
        self.client = client
        self.model = model
        self.stream_id = stream_id
        self._trace_id = trace_id
        self._span_id = span_id
        self._seq = 0
        self._final: Optional[StreamResult] = None

    @property
    def finalized(self) -> bool:
        return self._final is not None

    def _result(self, response: Message) -> StreamResult:
        if (response.type != MessageType.STREAM_RESULT
                or response.stream_id != self.stream_id):
            raise DjinnServiceError(
                f"unexpected stream reply {response.type} "
                f"(stream {response.stream_id})")
        try:
            data = json.loads(response.text) if response.text else {}
        except ValueError:
            data = {"raw": response.text}
        result = StreamResult(data=data, seq=response.stream_seq,
                              final=response.stream_final)
        if result.final:
            self._final = result
        return result

    def send(self, chunk: np.ndarray) -> StreamResult:
        """Send one chunk; returns the partial (or endpointed-final) result."""
        chunk = np.ascontiguousarray(chunk, dtype=np.float32)
        self._seq += 1
        response = self.client._stream_roundtrip(
            Message(MessageType.STREAM_CHUNK, name=self.model, tensor=chunk,
                    stream_id=self.stream_id, stream_seq=self._seq,
                    trace_id=self._trace_id, span_id=self._span_id))
        return self._result(response)

    def close(self) -> StreamResult:
        """End the stream; returns the final result."""
        if self._final is not None:
            return self._final
        self._seq += 1
        response = self.client._stream_roundtrip(
            Message(MessageType.STREAM_CLOSE, name=self.model,
                    stream_id=self.stream_id, stream_seq=self._seq,
                    trace_id=self._trace_id, span_id=self._span_id))
        return self._result(response)

    def __enter__(self) -> "DjinnStream":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None and not self.finalized:
            self.close()


class RemoteBackend(DnnBackend):
    """A :class:`TonicApp` backend that calls a live DjiNN service.

    Optional QoS defaults (``deadline_ms``/``priority``/``tenant``) are
    stamped on every request the backend issues — the way an application
    front-end would tag all of its traffic with one SLO class.
    """

    def __init__(self, client: DjinnClient, deadline_ms: float = 0.0,
                 priority: int = 0, tenant: str = ""):
        self.client = client
        self.deadline_ms = deadline_ms
        self.priority = priority
        self.tenant = tenant

    def infer(self, model: str, inputs: np.ndarray) -> np.ndarray:
        return self.client.infer(model, inputs,
                                 deadline_ms=self.deadline_ms,
                                 priority=self.priority, tenant=self.tenant)
