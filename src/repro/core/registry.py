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

It also caches :class:`repro.nn.engine.ExecutionPlan` objects per (model,
batch-bucket): plans are sized to the power-of-two bucket covering the
requested batch, so an executor asking for 16 and a bench asking for 9 share
one arena instead of compiling per exact size.  Unlike the net, a plan is
*not* shareable across threads — callers serialize on ``plan.lock``.  So
that concurrent requests for one model still run in parallel, a bucket
holds up to :attr:`ModelRegistry.lanes` plans ("lanes"), one more compiled
only when every existing lane is busy (:meth:`ModelRegistry.acquire`).
Lanes are never freed: resident arenas are bounded by ``lanes`` x buckets
x models.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from typing import Dict, List, Optional

from ..nn.engine import ExecutionPlan
from ..nn.netspec import NetSpec
from ..nn.network import Net

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Thread-safe name -> materialized net mapping."""

    def __init__(self):
        self._models: Dict[str, Net] = {}
        self._lock = threading.Lock()
        #: (name, batch_bucket) -> its compiled ExecutionPlan lanes; separate
        #: lock so slow plan compiles (FACE arenas) never block model lookups
        self._plans: Dict[tuple, tuple] = {}
        self._plan_lock = threading.Lock()
        #: (name, batch_bucket) -> lanes being compiled outside _plan_lock
        self._compiling: Counter = Counter()
        #: most plans kept per (name, bucket): one per CPU this process may
        #: run on, so each can drive one concurrent forward
        self.lanes = (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)

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
        This is the bucket's first lane; its :attr:`lock` must be held
        around any use.
        """
        with self._plan_lock:
            return self._lanes(name, batch)[2][0]

    def acquire(self, name: str, batch: int, lanes: Optional[int] = None):
        """A free plan for ``name`` covering ``batch`` rows, its lock held.

        Never waits on a plan: the first of the bucket's first ``lanes``
        lanes (default, and at most, :attr:`lanes`) whose lock is free is
        returned, and a new lane is compiled only when every one of them
        is busy and fewer than ``lanes`` exist.  ``None`` means every lane
        is busy.  The caller releases ``plan.lock``.
        """
        most = self.lanes if lanes is None else min(lanes, self.lanes)
        with self._plan_lock:
            net, key, plans = self._lanes(name, batch)
            for plan in plans[:most]:
                if plan.lock.acquire(blocking=False):
                    return plan
            if len(plans) + self._compiling[key] >= most:
                return None
            # reserve the lane, then compile it without the registry lock:
            # a large arena must not stall every other model's lookups
            self._compiling[key] += 1
        plan = None
        try:
            plan = ExecutionPlan(net, key[1])
            plan.lock.acquire()
            return plan
        finally:
            with self._plan_lock:
                self._compiling[key] -= 1
                if plan is not None:
                    self._plans[key] += (plan,)

    def _lanes(self, name: str, batch: int):
        """``(net, key, lanes)`` of the power-of-two bucket covering
        ``batch``, lane 0 compiled if missing; ``_plan_lock`` is held."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        net = self.get(name)
        key = (name, 1 << max(0, batch - 1).bit_length())
        plans = self._plans.get(key)
        if not plans:
            plans = self._plans[key] = (ExecutionPlan(net, key[1]),)
        return net, key, plans

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
