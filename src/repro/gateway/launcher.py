"""Fleet lifecycle: spin up/down N in-process DjiNN backends.

The paper's multi-GPU experiments (§5.2, Fig. 11) run one DjiNN instance
per GPU.  :class:`ClusterLauncher` is that fleet in miniature for tests and
benchmarks: N :class:`DjinnServer` instances on loopback ports, sharing a
read-only registry (or built per-backend from a factory), each optionally
device-paced via ``service_floor_s``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from ..core.batching import BatchPolicy
from ..core.registry import ModelRegistry
from ..core.server import DjinnServer

__all__ = ["ClusterLauncher"]

RegistrySource = Union[ModelRegistry, Callable[[int], ModelRegistry]]


class ClusterLauncher:
    """Start and stop a fleet of in-process DjiNN backends.

    Parameters
    ----------
    registry:
        Either one :class:`ModelRegistry` shared read-only by every backend
        (models are immutable after registration, so this is safe), or a
        callable ``f(backend_index) -> ModelRegistry`` for heterogeneous
        fleets (e.g. model-partitioned backends).
    backends:
        Fleet size.
    batching, sched, service_floor_s, profile_layers:
        Forwarded to every :class:`DjinnServer` (``sched`` selects the
        batching executor's scheduling policy — ``"fixed"``/``"adaptive"``
        or a :class:`repro.sched.SchedPolicy`; ``profile_layers`` arms
        per-layer span capture for traced requests).
    workers, worker_fault_plan:
        Forwarded to every :class:`DjinnServer`; ``workers="proc:N"`` makes
        each backend front its own forked process pool.  With a shared
        registry every backend's workers inherit the same weight pages —
        still one physical copy per host.
    layer_cache:
        Optional :class:`repro.nn.engine.LayerCacheConfig` forwarded to
        every backend, arming the engine-level activation cache (requires
        ``batching``).
    """

    def __init__(
        self,
        registry: RegistrySource,
        backends: int = 2,
        host: str = "127.0.0.1",
        batching: Optional[BatchPolicy] = None,
        sched=None,
        service_floor_s: float = 0.0,
        profile_layers: bool = False,
        workers=None,
        worker_fault_plan=None,
        layer_cache=None,
    ):
        if backends < 1:
            raise ValueError(f"need at least one backend, got {backends}")
        self._source = registry
        self._n = backends
        self._host = host
        self._batching = batching
        self._sched = sched
        self._floor_s = service_floor_s
        self._profile_layers = profile_layers
        self._workers = workers
        self._worker_fault_plan = worker_fault_plan
        self._layer_cache = layer_cache
        self.servers: List[DjinnServer] = []

    def _registry_for(self, index: int) -> ModelRegistry:
        if callable(self._source):
            return self._source(index)
        return self._source

    # --------------------------------------------------------- lifecycle
    def start(self) -> "ClusterLauncher":
        if self.servers:
            raise RuntimeError("cluster already started")
        for i in range(self._n):
            server = DjinnServer(
                self._registry_for(i), host=self._host, port=0,
                batching=self._batching, sched=self._sched,
                service_floor_s=self._floor_s,
                profile_layers=self._profile_layers,
                workers=self._workers,
                worker_fault_plan=self._worker_fault_plan,
                layer_cache=self._layer_cache,
            )
            server.start()
            self.servers.append(server)
        return self

    def stop(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []

    def __enter__(self) -> "ClusterLauncher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ----------------------------------------------------------- control
    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [server.address for server in self.servers]

    def kill_backend(self, index: int) -> Tuple[str, int]:
        """Hard-stop one backend (listener and live connections die).

        The server object stays in :attr:`servers` so indices are stable;
        returns the address it was serving on.
        """
        server = self.servers[index]
        address = server.address
        server.stop()
        return address

    def __len__(self) -> int:
        return len(self.servers)
