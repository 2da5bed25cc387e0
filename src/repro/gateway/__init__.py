"""``repro.gateway`` — a sharded, fault-tolerant front-end for DjiNN fleets.

The paper scales DjiNN by replication: one service instance per GPU, with
load spread across them (§5.2–§5.3, Fig. 11).  This package is the missing
entry point in front of that fleet: a :class:`GatewayServer` that speaks
the existing wire protocol (clients work unchanged), shards requests across
healthy backends under pluggable routing policies, health-checks the fleet,
and retries transport failures with backoff before surfacing an error.

Layers
------
:class:`BackendPool` / :class:`BackendHandle`
    Per-backend health, in-flight counters, and pooled connections.
:class:`Router`
    round_robin | least_outstanding | model_affinity request sharding.
:class:`HealthChecker`
    Periodic LIST_REQUEST probes; mark-down/mark-up.
:class:`RetryPolicy`
    Bounded attempts, exponential backoff, full jitter.
:class:`ClusterLauncher`
    Spin up/down an in-process backend fleet for tests and benchmarks.
:class:`ResponseCache`
    Content-addressed memo of unary responses (``--cache-mb``).
:class:`GatewayServer`
    The TCP front-end tying it all together.
"""

from .cache import ResponseCache, response_key
from .health import HealthChecker
from .launcher import ClusterLauncher
from .pool import BackendHandle, BackendPool
from .retry import RetryPolicy
from .router import POLICIES, Router, rendezvous_score
from .server import GatewayServer

__all__ = [
    "BackendHandle",
    "BackendPool",
    "ClusterLauncher",
    "GatewayServer",
    "HealthChecker",
    "POLICIES",
    "ResponseCache",
    "RetryPolicy",
    "Router",
    "rendezvous_score",
    "response_key",
]
