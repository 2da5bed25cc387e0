"""Deterministic fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a seeded list of :class:`FaultRule` entries.  Each
rule names an injection *site* (one of :data:`SITES`), the *kind* of fault
to inject there, an optional *scope* filter narrowing which events at the
site qualify (message type, backend key, model name, service name — what a
site reports as its event detail), and a *trigger*: explicit 1-based event
ordinals (``nth``), a modulus (``every``), or a ``probability`` drawn from
the plan's own ``random.Random(seed)``.  Two runs of the same plan seed
over the same event sequence inject exactly the same faults — that is what
makes a chaos run replayable by seed.

Arming a plan (``with plan.armed() as injector:``) installs a
:class:`FaultInjector` into :mod:`repro.core.faultsite`; every hook in the
serving stack consults that seam and is a no-op while nothing is armed.

Sites and the kinds they honour
-------------------------------

``protocol.send``  (detail: message-type name, e.g. ``INFER_RESPONSE``)
    ``reset``     raise :class:`InjectedFault` before any bytes move
    ``stall``     sleep ``delay_s`` before sending (drive peer timeouts)
    ``truncate``  send only ``bytes_kept`` bytes of the frame, then kill
                  the connection — the peer sees a mid-frame EOF
    ``corrupt``   flip the frame's magic so the peer raises ProtocolError
``protocol.recv``  (detail: the receiver's role — ``client`` for
                   application clients, ``gateway.client`` for the
                   gateway's pooled backend connections, ``probe`` for
                   health probes, or a server's service name)
    ``reset``, ``stall``
``server.accept``  (detail: service name, ``djinn`` or ``gateway``)
    ``refuse``    close the freshly accepted connection immediately
``pool.checkout``  (detail: backend key ``host:port``)
    ``refuse``    raise DjinnConnectionError from the gateway's checkout
``batch.execute``  (detail: model name)
    ``crash``     raise mid-batch: every waiter errors, connections die
    ``delay``     sleep ``delay_s`` per batch (a slow / saturated backend,
                  the moral equivalent of inflating ``service_floor_s``)
``health.probe``   (detail: backend key ``host:port``)
    ``flap``      force the probe to fail, marking the backend down
``proc.dispatch``  (detail: model name)
    ``kill``      mark the dispatched shm slot so the proc-pool worker that
                  picks it up dies (``os._exit``) mid-request — exercises
                  the supervisor's reap/requeue/respawn path.  Fires at the
                  parent's dispatch ordinal, so it is deterministic no
                  matter which worker draws the slot.
``sched.admit``    (detail: model name)
    ``reject``    force the gateway's admission controller to shed the
                  request (typed OVERLOADED, ``reason="injected"``) —
                  exercises the load-shedding path without real overload
``sched.hedge``    (detail: model name)
    ``delay``     sleep ``delay_s`` in the hedged primary arm before it
                  contacts its backend, forcing the hedge to fire and win
                  deterministically
``app.preprocess`` (detail: model name)
    ``error``     raise ``ValueError`` from the server-side app preprocess
                  stage — a poisoned raw payload.  Must surface as a typed
                  per-request error (the batch it coalesced into, and the
                  worker serving it, keep going) — that isolation is what
                  the ``app_poison`` chaos scenario asserts.
``cache.probe``    (detail: model name)
    ``error``     raise from inside the gateway's response-cache probe.
                  The probe must *fail open*: the request is forwarded as
                  an uncacheable miss, no client ever sees the fault, and
                  no hit/miss counter moves for the poisoned probe — the
                  ``cache_poison`` chaos scenario asserts lost==0 and that
                  served hits still equal ``gateway_cache_hits_total``.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import faultsite
from ..core.client import DjinnConnectionError
from ..core.faultsite import InjectedFault

__all__ = ["SITES", "KINDS_BY_SITE", "FaultRule", "FaultPlan", "FaultInjector",
           "InjectedFault"]

#: Every injection site wired into the serving stack.
SITES = ("protocol.send", "protocol.recv", "server.accept", "pool.checkout",
         "batch.execute", "health.probe", "proc.dispatch", "sched.admit",
         "sched.hedge", "stream.chunk", "app.preprocess", "cache.probe")

#: Fault kinds each site honours (validation happens at plan build time).
KINDS_BY_SITE = {
    "protocol.send": ("reset", "stall", "truncate", "corrupt"),
    "protocol.recv": ("reset", "stall"),
    "server.accept": ("refuse",),
    "pool.checkout": ("refuse",),
    "batch.execute": ("crash", "delay"),
    "health.probe": ("flap",),
    "proc.dispatch": ("kill",),
    "sched.admit": ("reject",),
    "sched.hedge": ("delay",),
    "stream.chunk": ("drop",),
    "app.preprocess": ("error",),
    "cache.probe": ("error",),
}


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: site + kind + trigger.

    The trigger fields compose as an OR: the rule fires on any event whose
    1-based match ordinal is in ``nth``, or divides ``every``, or wins the
    ``probability`` draw.  ``limit`` caps total fires (0 = unlimited).
    """

    site: str
    kind: str
    scope: str = ""               # "" matches every event at the site
    nth: Tuple[int, ...] = ()
    every: int = 0
    probability: float = 0.0
    limit: int = 0
    delay_s: float = 0.0          # stall / delay kinds
    bytes_kept: int = 9           # truncate: header magic+version survive

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {SITES}")
        if self.kind not in KINDS_BY_SITE[self.site]:
            raise ValueError(
                f"site {self.site!r} does not honour kind {self.kind!r}; "
                f"it takes {KINDS_BY_SITE[self.site]}")
        if any(n < 1 for n in self.nth):
            raise ValueError(f"nth ordinals are 1-based, got {self.nth}")
        if self.every < 0 or self.limit < 0:
            raise ValueError("every and limit must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.bytes_kept < 1:
            raise ValueError(f"bytes_kept must be >= 1, got {self.bytes_kept}")
        if not (self.nth or self.every or self.probability):
            raise ValueError("rule needs a trigger: nth, every, or probability")

    @property
    def label(self) -> str:
        return f"{self.site}:{self.kind}:{self.scope or '*'}"

    def to_dict(self) -> dict:
        return {"site": self.site, "kind": self.kind, "scope": self.scope,
                "nth": list(self.nth), "every": self.every,
                "probability": self.probability, "limit": self.limit,
                "delay_s": self.delay_s, "bytes_kept": self.bytes_kept}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultRule":
        d = dict(d)
        d["nth"] = tuple(d.get("nth", ()))
        return cls(**d)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of faults.

    The plan itself holds no mutable state; arming it builds a fresh
    :class:`FaultInjector` (counters zeroed, RNG re-seeded), so the same
    plan object can be replayed any number of times with identical results.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    @contextmanager
    def armed(self):
        """Install a fresh injector for this plan; disarm on exit."""
        injector = FaultInjector(self)
        faultsite.install(injector)
        try:
            yield injector
        finally:
            faultsite.uninstall()

    def to_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        return cls(rules=tuple(FaultRule.from_dict(r) for r in d.get("rules", ())),
                   seed=int(d.get("seed", 0)), name=d.get("name", ""))


class _RuleState:
    __slots__ = ("rule", "seen", "fired")

    def __init__(self, rule: FaultRule):
        self.rule = rule
        self.seen = 0    # matching events observed
        self.fired = 0   # faults actually injected


class FaultInjector:
    """The armed runtime of a :class:`FaultPlan`.

    One lock guards the per-rule counters and the plan RNG, so concurrent
    connection threads observe a single global event order.  Determinism
    therefore extends as far as the caller's event order does — the chaos
    harness drives traffic sequentially for exactly this reason.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._by_site: Dict[str, List[_RuleState]] = {site: [] for site in SITES}
        for rule in plan.rules:
            self._by_site[rule.site].append(_RuleState(rule))

    # ------------------------------------------------------------- matching
    def _fire(self, site: str, detail: str) -> Optional[FaultRule]:
        """Count this event against every matching rule; return the first
        rule that decides to fire (later rules still see the event)."""
        states = self._by_site[site]
        if not states:
            return None
        winner: Optional[FaultRule] = None
        with self._lock:
            for state in states:
                rule = state.rule
                if rule.scope and rule.scope != detail:
                    continue
                state.seen += 1
                fires = (state.seen in rule.nth
                         or (rule.every and state.seen % rule.every == 0)
                         or (rule.probability
                             and self._rng.random() < rule.probability))
                if fires and (not rule.limit or state.fired < rule.limit):
                    state.fired += 1
                    if winner is None:
                        winner = rule
        return winner

    def fires(self) -> Dict[str, int]:
        """Faults injected so far, per rule label (report material)."""
        with self._lock:
            out: Dict[str, int] = {}
            for states in self._by_site.values():
                for state in states:
                    if state.fired:
                        key = state.rule.label
                        out[key] = out.get(key, 0) + state.fired
            return out

    def total_fires(self) -> int:
        return sum(self.fires().values())

    # ------------------------------------------------------- site endpoints
    def on_send(self, sock: socket.socket, type_name: str, frame: bytes) -> bytes:
        """Called by ``send_frame`` with the fully serialized frame."""
        rule = self._fire("protocol.send", type_name)
        if rule is None:
            return frame
        if rule.kind == "reset":
            raise InjectedFault(f"injected reset before send of {type_name}")
        if rule.kind == "stall":
            time.sleep(rule.delay_s)
            return frame
        if rule.kind == "truncate":
            keep = min(rule.bytes_kept, max(1, len(frame) - 1))
            try:
                sock.sendall(frame[:keep])
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise InjectedFault(
                f"injected truncation of {type_name} after {keep} bytes")
        # corrupt: bad magic — the receiver fails with a typed ProtocolError
        return b"XJNN" + frame[4:]

    def on_recv(self, sock: socket.socket, scope: str) -> None:
        """Called by ``FrameReader.read`` once per frame, before any bytes
        are read."""
        rule = self._fire("protocol.recv", scope)
        if rule is None:
            return
        if rule.kind == "reset":
            raise InjectedFault("injected reset before recv")
        time.sleep(rule.delay_s)  # stall

    def on_accept(self, service: str) -> bool:
        """Called by the accept loop; True = drop the new connection."""
        rule = self._fire("server.accept", service)
        return rule is not None  # only kind: refuse

    def on_checkout(self, backend_key: str) -> None:
        """Called by ``BackendHandle.checkout`` before lending a client."""
        rule = self._fire("pool.checkout", backend_key)
        if rule is not None:
            raise DjinnConnectionError(
                f"injected refusal checking out backend {backend_key}")

    def on_batch(self, model: str) -> None:
        """Called by the batching executor before each forward pass."""
        rule = self._fire("batch.execute", model)
        if rule is None:
            return
        if rule.kind == "crash":
            raise InjectedFault(f"injected backend crash mid-batch ({model})")
        time.sleep(rule.delay_s)  # delay: slow backend

    def on_probe(self, backend_key: str) -> bool:
        """Called by ``HealthChecker.probe``; True = force the probe down."""
        rule = self._fire("health.probe", backend_key)
        return rule is not None  # only kind: flap

    def on_dispatch(self, model: str) -> bool:
        """Called by the proc pool as it dispatches a slot; True = mark the
        slot so the worker that picks it up dies (kind ``kill``)."""
        rule = self._fire("proc.dispatch", model)
        return rule is not None

    def on_admit(self, model: str) -> bool:
        """Called by the gateway's admission gate; True = force a shed."""
        rule = self._fire("sched.admit", model)
        return rule is not None  # only kind: reject

    def on_hedge(self, model: str) -> None:
        """Called in the hedged primary arm before it contacts a backend;
        sleeps to force the hedge arm to fire (kind ``delay``)."""
        rule = self._fire("sched.hedge", model)
        if rule is not None:
            time.sleep(rule.delay_s)

    def on_preprocess(self, model: str) -> None:
        """Called once per raw-payload request as the app preprocess stage
        picks it up.  Raises ``ValueError`` (kind ``error``): a poisoned
        payload, which the executor must convert into a typed per-request
        failure without losing the rest of the batch."""
        rule = self._fire("app.preprocess", model)
        if rule is not None:
            raise ValueError(f"injected preprocess error (app {model})")

    def on_cache_probe(self, model: str) -> None:
        """Called inside the gateway's response-cache probe, before the key
        is derived.  Raises (kind ``error``): the gateway must fail open and
        forward the request as an uncacheable miss."""
        rule = self._fire("cache.probe", model)
        if rule is not None:
            raise InjectedFault(f"injected cache probe failure ({model})")

    def on_stream_chunk(self, model: str) -> bool:
        """Called by the server as a stream chunk arrives; True = drop the
        chunk and abort its stream (kind ``drop``)."""
        rule = self._fire("stream.chunk", model)
        return rule is not None
