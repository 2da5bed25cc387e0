"""DjiNN model registry.

Paper §3.1, "Request Processing": *"At initialization, DjiNN loads the
pre-trained model associated with each application into memory, giving all
worker threads read-only access to this data.  Consequently, incoming
requests using the same model are accepted without needing to load their
own copy of the model into memory."*

The registry is exactly that: one materialized :class:`repro.nn.Net` per
model name, shared read-only by every worker.  Inference passes never write
layer state (caches are only populated with ``train=True``), so concurrent
forward passes over one net are safe.

It also caches one :class:`repro.nn.engine.ExecutionPlan` per (model,
batch-bucket): plans are sized to the power-of-two bucket covering the
requested batch, so an executor asking for 16 and a bench asking for 9 share
one arena instead of compiling per exact size.  Unlike the net, a plan is
*not* shareable across threads — callers serialize on ``plan.lock``.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from ..nn.netspec import NetSpec
from ..nn.network import Net

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Thread-safe name -> materialized net mapping."""

    def __init__(self):
        self._models: Dict[str, Net] = {}
        self._lock = threading.Lock()
        #: (name, batch_bucket) -> compiled ExecutionPlan; separate lock so
        #: slow plan compiles (FACE arenas) never block model lookups
        self._plans: Dict[tuple, object] = {}
        self._plan_lock = threading.Lock()

    def register(self, name: str, net: Net) -> None:
        """Register a materialized net under ``name``."""
        if not net.materialized:
            raise ValueError(f"model {name!r}: net must be materialized before registration")
        with self._lock:
            if name in self._models:
                raise ValueError(f"model {name!r} already registered")
            self._models[name] = net

    def register_spec(self, name: str, spec: NetSpec, seed: int = 0) -> Net:
        """Build, materialize (seeded), and register a net from a spec."""
        net = Net(spec).materialize(seed)
        self.register(name, net)
        return net

    def get(self, name: str) -> Net:
        with self._lock:
            try:
                return self._models[name]
            except KeyError:
                raise KeyError(
                    f"model {name!r} not loaded; available: {sorted(self._models)}"
                ) from None

    def plan(self, name: str, batch: int):
        """Arena-backed plan for ``name`` covering batches up to ``batch``.

        Plans are cached per power-of-two bucket (``batch=9..16`` all share
        the 16-wide arena), so the steady state compiles each model once.
        The returned plan's :attr:`lock` must be held around any use.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        net = self.get(name)
        bucket = 1 << max(0, batch - 1).bit_length()
        key = (name, bucket)
        with self._plan_lock:
            plan = self._plans.get(key)
            if plan is None:
                from ..nn.engine import ExecutionPlan

                plan = ExecutionPlan(net, bucket)
                self._plans[key] = plan
            return plan

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def total_param_bytes(self) -> int:
        """Resident model memory — what the paper keeps pinned in GPU DRAM."""
        with self._lock:
            return sum(net.param_bytes() for net in self._models.values())
