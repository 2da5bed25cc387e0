"""``repro.core`` — DjiNN: DNN-as-a-service (the paper's primary artifact).

A standalone threaded TCP service with a custom binary protocol, an
in-memory model registry shared read-only across workers, optional
server-side dynamic batching, a client library, and a remote backend that
plugs directly into the Tonic applications.
"""

from .aio import DjinnStreamClient
from .batching import BatchingExecutor, BatchPolicy
from .client import (
    DjinnClient,
    DjinnConnectionError,
    DjinnDeadlineError,
    DjinnOverloadedError,
    DjinnServiceError,
    DjinnSessionLimitError,
    DjinnStream,
    DjinnStreamError,
    RemoteBackend,
    StreamResult,
)
from .loadgen import LoadResult, run_closed_loop_load
from .procpool import ProcPoolError, ProcPoolExecutor, parse_workers
from .protocol import Message, MessageType, ProtocolError, recv_message, send_message
from .registry import ModelRegistry
from .server import DjinnServer
from .session import SessionLimitError, SessionManager, TensorStreamApp
from .stats import RequestLedger

__all__ = [
    "BatchingExecutor",
    "BatchPolicy",
    "ProcPoolError",
    "ProcPoolExecutor",
    "parse_workers",
    "DjinnClient",
    "DjinnConnectionError",
    "DjinnDeadlineError",
    "DjinnOverloadedError",
    "DjinnServiceError",
    "DjinnSessionLimitError",
    "DjinnStream",
    "DjinnStreamError",
    "DjinnStreamClient",
    "StreamResult",
    "SessionLimitError",
    "SessionManager",
    "TensorStreamApp",
    "RemoteBackend",
    "Message",
    "MessageType",
    "ProtocolError",
    "recv_message",
    "send_message",
    "ModelRegistry",
    "DjinnServer",
    "RequestLedger",
    "LoadResult",
    "run_closed_loop_load",
]
