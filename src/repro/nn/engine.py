"""Planned execution: compile a net into an arena-backed ``ExecutionPlan``.

The paper's serving path pays its latency in GEMMs; this numpy substrate was
paying it in allocation — every ``Net.forward`` built fresh activation and
im2col buffers, so the "steady state" of a DjiNN backend was a page-fault
loop.  The fix follows the TPU playbook: walk the layer graph once, size
every output and scratch buffer for a maximum batch, and lay them out in one
reusable arena so repeated forwards allocate nothing.

Compilation
-----------
:class:`ExecutionPlan` accepts either a sequential :class:`repro.nn.Net` or a
DAG :class:`repro.nn.GraphNet` (duck-typed on its ``_specs`` table) and
lowers it to a list of steps, one per layer.  Each step's output buffer is
assigned by a liveness scan:

* ``plan_alias`` layers (Dropout at inference, Flatten) produce a *view* of
  their input's buffer — no memory, no kernel;
* ``plan_inplace`` layers (activations, Softmax) write over their input's
  buffer when nothing else reads it later (DAG fan-out disables this);
* everything else gets a first-fit offset among the buffers live at that
  step, so ping/pong reuse falls out of lifetime analysis rather than a
  hard-coded double-buffer scheme.

Per-layer scratch (im2col columns, padded copies, reduction slots — declared
via :meth:`repro.nn.layers.base.Layer.plan_scratch`) shares a single slab
sized by the hungriest step; steps never overlap in time, so the slab needs
no liveness tracking.

Execution
---------
``execute(n)`` runs the compiled steps over the arena for any batch ``n`` up
to ``max_batch`` — partial batches are prefix views, no re-stack.  The first
call at a given ``n`` binds every layer's kernel over that view
(:meth:`repro.nn.layers.base.Layer.bind`: window views, weight reshapes,
per-group GEMM operands resolved once), and the plan caches the resulting
tuple of kernels, so the steady state is one loop of calls that creates no
Python garbage.  ``execute``, ``execute_range``, ``run_from``, ``run_into``
and the per-layer ``timer`` hook (:class:`repro.obs.LayerTimer`) all iterate
that one tuple; the timer fires for every step, including aliases, so the
planned path emits the exact span taxonomy of the legacy loop.

Bound kernels hold the weight arrays they were bound over.  Any
``Blob.data`` rebind bumps ``Blob.rebinds``; the plan compares it once per
execute and re-binds every view when it moved, so new weights are served at
once and the old arrays are released: no stale answers, and no heap copy
pinned after a shared-memory export.

Because both paths run the same bound kernels, planned output is
byte-identical to the allocating ``forward`` — the equivalence suite in
``tests/test_engine.py`` pins that per model.

Thread safety: a plan is one arena, so callers must hold :attr:`lock` around
gather + execute + result consumption.  ``Net.forward`` and
:class:`repro.core.BatchingExecutor` both do; the latter keeps the lock until
every response view has been serialized (its lease barrier).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .layers.base import Layer
from .layers.merge import MultiInputLayer
from .tensor import Blob

__all__ = ["PlanError", "ExecutionPlan", "LayerCache", "LayerCacheConfig"]

#: Reserved top name for the network input (mirrors ``repro.nn.graph.INPUT``).
INPUT = "input"

#: Byte alignment of every arena / scratch region.
ALIGN = 64

_F32 = np.dtype(np.float32)


class PlanError(RuntimeError):
    """A net cannot be compiled or a plan is used outside its envelope."""


def _align(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) & ~(ALIGN - 1)


class _Step:
    """One compiled layer invocation."""

    __slots__ = ("layer", "bottoms", "top", "alias", "multi")

    def __init__(self, layer: Layer, bottoms: List[str], top: str):
        self.layer = layer
        self.bottoms = bottoms
        self.top = top
        self.alias = bool(layer.plan_alias)
        self.multi = isinstance(layer, MultiInputLayer)


def _skip() -> None:
    """The kernel of an alias step: its output already is its input."""


def _run(kernels, timer) -> None:
    """Call ``(layer, kernel)`` pairs in order, bracketing each with the
    timer's begin/end when one is given (alias steps included)."""
    if timer is None:
        for _, kernel in kernels:
            kernel()
    else:
        for layer, kernel in kernels:
            timer.begin(layer)
            kernel()
            timer.end(layer)


class _Views:
    """Per-batch-size arena views and the kernels bound over them (cached
    per ``n``; dropped whenever any weight blob is rebound)."""

    __slots__ = ("input", "output", "kernels", "tops")

    def __init__(self, input_view, output_view, kernels, tops):
        self.input = input_view
        self.output = output_view
        self.kernels = kernels
        self.tops = tops


class ExecutionPlan:
    """A net compiled for batches up to ``max_batch`` over one arena.

    ``allocate=False`` compiles shapes and layout only (no arena), which is
    what :func:`repro.nn.workspace.plan_footprint` uses to cost a plan
    without committing the memory.
    """

    def __init__(self, net, max_batch: int, allocate: bool = True):
        if max_batch < 1:
            raise PlanError(f"max_batch must be >= 1, got {max_batch}")
        self.net = net
        self.max_batch = int(max_batch)
        self.lock = threading.RLock()
        self._steps, self._output = self._extract(net)
        self._shapes: Dict[str, Tuple[int, ...]] = {INPUT: tuple(net.input_shape)}
        for step in self._steps:
            self._shapes[step.top] = tuple(step.layer.out_shape)
        self._assign_slots()
        self._layout()
        self.scratch_bytes = max(
            (self._scratch_total(step, self.max_batch) for step in self._steps),
            default=0,
        )
        self._arena: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._view_cache: Dict[int, _Views] = {}
        #: ``Blob.rebinds`` when the cached kernels were bound
        self._bound_rebinds = Blob.rebinds
        if allocate:
            # zeros (not empty) so a fresh plan is deterministic: stale-data
            # bleed between batches would show up as an exact-equality diff
            self._arena = np.zeros(self.arena_bytes, dtype=np.uint8)
            self._scratch = np.zeros(self.scratch_bytes, dtype=np.uint8)

    # ------------------------------------------------------------ compile
    @staticmethod
    def _extract(net) -> Tuple[List[_Step], str]:
        layers = getattr(net, "layers", None)
        if not layers:
            raise PlanError(f"net {getattr(net, 'name', net)!r} has no layers")
        specs = getattr(net, "_specs", None)
        steps: List[_Step] = []
        if specs is not None:  # GraphNet: named bottoms, declared output
            for layer in layers:
                spec = specs[layer.name]
                steps.append(_Step(layer, list(spec.bottoms), layer.name))
            output = net.spec.output
        else:  # Net: a chain
            prev = INPUT
            for layer in layers:
                steps.append(_Step(layer, [prev], layer.name))
                prev = layer.name
            output = prev
        for step in steps:
            if step.alias and len(step.bottoms) != 1:
                raise PlanError(
                    f"alias layer {step.layer.name!r} must have exactly one bottom")
        return steps, output

    def _sample_bytes(self, name: str) -> int:
        return int(np.prod(self._shapes[name])) * _F32.itemsize

    def _assign_slots(self) -> None:
        """Map every top to a storage slot (alias/in-place merge inputs)."""
        steps = self._steps
        reads: Dict[str, List[int]] = {INPUT: []}
        for i, step in enumerate(steps):
            reads[step.top] = []
            for bottom in step.bottoms:
                reads[bottom].append(i)
        # the network output must survive until after the last step
        reads[self._output].append(len(steps))

        slot_of: Dict[str, int] = {INPUT: 0}
        slot_names: List[List[str]] = [[INPUT]]
        slot_bytes: List[int] = [self._sample_bytes(INPUT)]

        def fresh_slot(name: str) -> int:
            slot_names.append([name])
            slot_bytes.append(self._sample_bytes(name))
            return len(slot_names) - 1

        for i, step in enumerate(steps):
            nbytes = self._sample_bytes(step.top)
            slot = None
            if step.alias or (step.layer.plan_inplace and len(step.bottoms) == 1):
                candidate = slot_of[step.bottoms[0]]
                if step.alias:
                    if nbytes != slot_bytes[candidate]:
                        raise PlanError(
                            f"alias layer {step.layer.name!r} changes buffer size")
                    slot = candidate
                # in-place: legal only if no later step reads anything stored
                # in the candidate slot, and never over the input slab (the
                # serve path gathers the next batch into it)
                elif (candidate != 0 and nbytes == slot_bytes[candidate]
                        and not any(j > i for name in slot_names[candidate]
                                    for j in reads[name])):
                    slot = candidate
            if slot is None:
                slot = fresh_slot(step.top)
            else:
                slot_names[slot].append(step.top)
            slot_of[step.top] = slot

        last_use = [0] * len(slot_names)
        produced_at: Dict[str, int] = {INPUT: -1}
        for i, step in enumerate(steps):
            produced_at[step.top] = i
        for slot, names in enumerate(slot_names):
            last_use[slot] = max(
                max((produced_at[name] for name in names)),
                max((j for name in names for j in reads[name]), default=-1),
            )
        self._slot_of = slot_of
        self._slot_bytes = slot_bytes
        self._slot_last_use = last_use
        # retained for split-point liveness (live_tops / run_from)
        self._reads = reads
        self._produced_at = produced_at

    def _layout(self) -> None:
        """First-fit offsets driven by slot liveness (the ping/pong slabs)."""
        max_batch = self.max_batch
        offsets: List[Optional[int]] = [None] * len(self._slot_bytes)
        live: List[Tuple[int, int, int]] = []  # (offset, end, slot)

        def place(slot: int) -> None:
            size = _align(self._slot_bytes[slot] * max_batch)
            candidates = sorted({0, *(end for _, end, _ in live)})
            for off in candidates:
                if all(off + size <= o or off >= e for o, e, _ in live):
                    offsets[slot] = off
                    live.append((off, off + size, slot))
                    return
            raise PlanError("first-fit placement failed")  # pragma: no cover

        def release(step_index: int) -> None:
            live[:] = [iv for iv in live
                       if self._slot_last_use[iv[2]] > step_index]

        place(0)  # the input slab
        release(-1)
        for i, step in enumerate(self._steps):
            slot = self._slot_of[step.top]
            if offsets[slot] is None:
                place(slot)  # outputs placed before this step's inputs die
            release(i)
        self._slot_offsets = [off if off is not None else 0 for off in offsets]
        self.arena_bytes = max(
            (self._slot_offsets[s] + _align(self._slot_bytes[s] * max_batch)
             for s in range(len(self._slot_bytes))),
            default=0,
        )

    @staticmethod
    def _scratch_total(step: _Step, batch: int) -> int:
        total = 0
        for shape, dtype in step.layer.plan_scratch(batch).values():
            total += _align(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        return total

    # ------------------------------------------------------------- binding
    def _views_for(self, n: int) -> _Views:
        rebinds = Blob.rebinds
        if rebinds != self._bound_rebinds:
            # a weight array was swapped (shm export, shared or loaded
            # weights): kernels bound over the old arrays would answer with
            # them and keep them alive, so every view re-binds
            self._view_cache.clear()
            self._bound_rebinds = rebinds
        views = self._view_cache.get(n)
        if views is not None:
            return views
        if not 1 <= n <= self.max_batch:
            raise PlanError(
                f"batch {n} outside plan envelope [1, {self.max_batch}]")
        if self._arena is None:
            raise PlanError("plan was compiled with allocate=False")
        top_view: Dict[str, np.ndarray] = {}
        for name, shape in self._shapes.items():
            off = self._slot_offsets[self._slot_of[name]]
            nbytes = n * self._sample_bytes(name)
            top_view[name] = (
                self._arena[off:off + nbytes].view(_F32).reshape((n,) + shape))
        kernels = []
        for step in self._steps:
            scratch: Dict[str, np.ndarray] = {}
            off = 0
            for key, (shape, dtype) in step.layer.plan_scratch(n).items():
                dtype = np.dtype(dtype)
                nbytes = int(np.prod(shape)) * dtype.itemsize
                scratch[key] = (
                    self._scratch[off:off + nbytes].view(dtype).reshape(shape))
                off += _align(nbytes)
            layer = step.layer
            if step.alias:
                kernels.append((layer, _skip))
                continue
            xs = [top_view[b] for b in step.bottoms]
            kernels.append((layer, layer.bind(xs if step.multi else xs[0],
                                              top_view[step.top], scratch)))
        views = _Views(top_view[INPUT], top_view[self._output],
                       tuple(kernels), top_view)
        self._view_cache[n] = views
        return views

    def input_view(self, n: int) -> np.ndarray:
        """The input slab for a batch of ``n`` — gather payloads into this."""
        return self._views_for(n).input

    def output_view(self, n: int) -> np.ndarray:
        """The output slab view for a batch of ``n`` (valid post-execute)."""
        return self._views_for(n).output

    # ------------------------------------------------------------- execute
    def execute(self, n: int, timer=None) -> np.ndarray:
        """Run the plan over whatever is in the input slab for batch ``n``.

        Returns the output-slab view (owned by the arena: callers copy it or
        hold :attr:`lock` until they are done reading).  ``timer`` is the
        same begin/end hook the legacy loop drives, fired for every step —
        alias steps included — so profiles and ``layer.*`` spans match.
        """
        if not self.net.materialized:
            raise PlanError(f"net {self.net.name!r} is not materialized")
        views = self._views_for(n)
        _run(views.kernels, timer)
        return views.output

    def execute_range(self, n: int, start: int, stop: Optional[int] = None,
                      timer=None) -> np.ndarray:
        """Run only steps ``[start, stop)`` over the arena for batch ``n``.

        The building block of split execution: ``execute_range(n, 0, k + 1)``
        is the prefix through layer ``k``, ``execute_range(n, k + 1)`` the
        suffix from it.  Callers restoring state for a suffix run must have
        written every :meth:`live_tops` buffer first (``run_from`` does).
        Returns the output-slab view (meaningful once the final step ran).
        """
        if not self.net.materialized:
            raise PlanError(f"net {self.net.name!r} is not materialized")
        if stop is None:
            stop = len(self._steps)
        if not 0 <= start <= stop <= len(self._steps):
            raise PlanError(
                f"step range [{start}, {stop}) outside plan "
                f"[0, {len(self._steps)})")
        views = self._views_for(n)
        _run(views.kernels[start:stop], timer)
        return views.output

    # -------------------------------------------------------- split points
    def live_tops(self, k: int) -> Tuple[str, ...]:
        """Tops still needed by steps after ``k`` — the restore set.

        A suffix run from split point ``k`` (steps ``k+1..``) reads exactly
        these buffers: every top produced at or before step ``k`` (the input
        counts as step ``-1``) with a reader after ``k``.  The network
        output's phantom read keeps it live through the last step.  Slot
        reuse never clobbers a live top *before* its last read, so a
        snapshot taken right after step ``k`` executes is always intact.
        """
        if not 0 <= k < len(self._steps):
            raise PlanError(
                f"split point {k} outside plan steps [0, {len(self._steps)})")
        names = []
        for name in self._shapes:
            if self._produced_at.get(name, -1) > k:
                continue
            if any(j > k for j in self._reads[name]):
                names.append(name)
        return tuple(names)

    def safe_splits(self) -> Tuple[int, ...]:
        """Split points where step ``k``'s own top is the *only* live buffer.

        At these points a digest of layer ``k``'s activation fully
        determines the suffix output, which is what makes layer caching
        sound there (see :class:`LayerCache`).  Chains qualify at every
        layer; DAG fan-out regions disqualify the splits they span.
        """
        return tuple(
            k for k in range(len(self._steps))
            if self.live_tops(k) == (self._steps[k].top,))

    def snapshot(self, k: int, n: int) -> Dict[str, np.ndarray]:
        """Owned copies of every live top at split ``k`` for batch ``n``.

        Only meaningful immediately after the prefix through step ``k`` has
        executed for this batch (``execute_range(n, 0, k + 1)``); later
        steps may reuse a live top's arena range once its last read passes.
        Callers hold :attr:`lock`.
        """
        views = self._views_for(n)
        return {name: views.tops[name].copy() for name in self.live_tops(k)}

    def run_from(self, k: int,
                 restored: Union[np.ndarray, Mapping[str, np.ndarray]],
                 timer=None) -> np.ndarray:
        """Restore split-``k`` state and execute only the suffix.

        ``restored`` maps top names to ``(n, *shape)`` activations — a
        :meth:`snapshot` taken at the same split — or is a bare array when
        a single top is live there (every :meth:`safe_splits` point).  The
        suffix runs the same bound kernels over the same arena
        views as a full pass at batch ``n``, so the result is byte-identical
        to the full execution that produced the snapshot — pinned per model
        and per split in ``tests/test_cache.py``.  Returns an owned copy.
        """
        names = self.live_tops(k)
        if isinstance(restored, np.ndarray):
            if len(names) != 1:
                raise PlanError(
                    f"split {k} has live tops {names}; pass a mapping")
            restored = {names[0]: restored}
        if set(restored) != set(names):
            raise PlanError(
                f"split {k} needs tops {sorted(names)}, "
                f"got {sorted(restored)}")
        sizes = {np.asarray(a).shape[0] for a in restored.values()}
        if len(sizes) != 1:
            raise PlanError(f"inconsistent batch sizes {sorted(sizes)}")
        n = sizes.pop()
        with self.lock:
            views = self._views_for(n)
            for name in names:
                arr = np.asarray(restored[name], dtype=np.float32)
                if arr.shape != views.tops[name].shape:
                    raise PlanError(
                        f"restored top {name!r} has shape {arr.shape}, "
                        f"plan expects {views.tops[name].shape}")
                np.copyto(views.tops[name], arr)
            return self.execute_range(n, k + 1, timer=timer).copy()

    def run(self, x: np.ndarray, timer=None) -> np.ndarray:
        """Gather ``x`` into the arena, execute, return an owned copy.

        This is the safe single-caller surface ``Net.forward`` dispatches
        through; the copy-free path (views + lease barrier) lives in
        :class:`repro.core.BatchingExecutor`.
        """
        x = np.asarray(x, dtype=np.float32)
        n = x.shape[0]
        with self.lock:
            inp = self.input_view(n)
            if x.shape != inp.shape:
                raise PlanError(
                    f"plan expects input of shape {inp.shape}, got {x.shape}")
            np.copyto(inp, x)
            return self.execute(n, timer=timer).copy()

    def run_into(self, x: np.ndarray, out: np.ndarray, timer=None) -> np.ndarray:
        """Gather ``x``, execute, and write the batch result into ``out``.

        The destination-passing twin of :meth:`run`: ``out`` is typically a
        response-slot view over a shared-memory ring
        (:mod:`repro.core.procpool`), so the steady state moves exactly two
        slabs — input into the arena, output into the slot — and allocates
        nothing.  Returns ``out``.
        """
        x = np.asarray(x, dtype=np.float32)
        n = x.shape[0]
        with self.lock:
            inp = self.input_view(n)
            if x.shape != inp.shape:
                raise PlanError(
                    f"plan expects input of shape {inp.shape}, got {x.shape}")
            result_shape = self.output_view(n).shape
            if tuple(out.shape) != result_shape:
                raise PlanError(
                    f"plan produces output of shape {result_shape}, "
                    f"destination has {tuple(out.shape)}")
            np.copyto(inp, x)
            np.copyto(out, self.execute(n, timer=timer))
        return out

    # ------------------------------------------------------------ reports
    def describe(self) -> dict:
        """Layout summary (arena map, slot sharing, scratch high-water)."""
        steps = []
        for step in self._steps:
            slot = self._slot_of[step.top]
            steps.append({
                "layer": step.layer.name,
                "type": step.layer.type_name,
                "top": step.top,
                "bottoms": list(step.bottoms),
                "mode": ("alias" if step.alias else
                         "inplace" if slot == self._slot_of[step.bottoms[0]]
                         and len(step.bottoms) == 1 else "compute"),
                "slot": slot,
                "offset": self._slot_offsets[slot],
                "bytes": self._slot_bytes[slot] * self.max_batch,
                "scratch_bytes": self._scratch_total(step, self.max_batch),
            })
        return {
            "net": self.net.name,
            "max_batch": self.max_batch,
            "arena_bytes": self.arena_bytes,
            "scratch_bytes": self.scratch_bytes,
            "slots": len(self._slot_bytes),
            "steps": steps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionPlan({self.net.name!r}, max_batch={self.max_batch}, "
                f"arena={self.arena_bytes}B, scratch={self.scratch_bytes}B)")


@dataclass(frozen=True)
class LayerCacheConfig:
    """Knobs for :class:`LayerCache` (the engine-level activation cache).

    ``split`` is the step index to cache at (``-1`` picks the earliest safe
    split, maximizing the skipped suffix); ``max_entries`` bounds the LRU of
    retained activation snapshots; ``tolerance`` quantizes the activation
    digest so near-duplicates share a key (``0.0`` = exact bytes only, the
    lossless default).
    """

    split: int = -1
    max_entries: int = 256
    tolerance: float = 0.0

    def __post_init__(self):
        if self.max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {self.max_entries}")
        if self.tolerance < 0.0:
            raise ValueError(
                f"tolerance must be >= 0, got {self.tolerance}")


class _CacheServe:
    """Outcome of one :meth:`LayerCache.serve` call (worker accounting)."""

    __slots__ = ("outputs", "hits", "misses", "collisions",
                 "fidelity_max", "probe_start", "probe_end")

    def __init__(self, outputs, hits, misses, collisions, fidelity_max,
                 probe_start, probe_end):
        self.outputs = outputs
        self.hits = hits
        self.misses = misses
        self.collisions = collisions
        self.fidelity_max = fidelity_max
        self.probe_start = probe_start
        self.probe_end = probe_end


class LayerCache:
    """Memoize suffix execution keyed on a digest of layer-``k`` activations.

    The amortization axis past batching (arXiv 2209.08625): near-duplicate
    inputs produce near-duplicate early activations, so after running the
    prefix through the split layer, a digest of that activation can stand in
    for the whole suffix.  A hit skips ``execute_range(k+1, ..)`` and reuses
    the cached output row; misses run as one *partial-batch suffix* over the
    plan's existing slabs and are inserted afterwards.

    Safety: only :meth:`ExecutionPlan.safe_splits` points are legal — there
    the split layer's top is the sole live buffer, so its bytes fully
    determine the suffix.  Every cached entry retains the activation
    snapshot that produced it; a hit is *verified* against that snapshot
    (byte-equal at ``tolerance=0``, within ``tolerance`` otherwise), so a
    digest collision degrades to a counted miss, never a wrong answer.  The
    per-hit distance is the fidelity metric: exactly ``0.0`` in lossless
    mode, bounded by ``tolerance`` otherwise.

    Locking: the LRU has its own lock (probe/insert are thread-safe on
    their own); :meth:`serve` additionally assumes the caller holds the
    plan's arena lock, exactly like ``execute``.
    """

    def __init__(self, plan: ExecutionPlan, split: int = -1,
                 max_entries: int = 256, tolerance: float = 0.0,
                 digest=None):
        safe = plan.safe_splits()
        if not safe:
            raise PlanError(
                f"plan for {plan.net.name!r} has no safe split points")
        if split == -1:
            split = safe[0]
        if split not in safe:
            raise PlanError(
                f"split {split} is not a safe split point (safe: {safe})")
        if max_entries < 1:
            raise PlanError(f"max_entries must be >= 1, got {max_entries}")
        if tolerance < 0.0:
            raise PlanError(f"tolerance must be >= 0, got {tolerance}")
        self.plan = plan
        self.split = split
        self.top = plan._steps[split].top
        self.max_entries = int(max_entries)
        self.tolerance = float(tolerance)
        #: injectable digest fn (activation bytes -> key); tests exercise
        #: collision handling by passing a deliberately weak one
        self._digest_fn = digest
        self._lock = threading.Lock()
        self._lru: "OrderedDict[bytes, Tuple[np.ndarray, np.ndarray]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.collisions = 0
        self.fidelity_max = 0.0

    @classmethod
    def from_config(cls, plan: ExecutionPlan,
                    config: LayerCacheConfig) -> "LayerCache":
        return cls(plan, split=config.split, max_entries=config.max_entries,
                   tolerance=config.tolerance)

    # -------------------------------------------------------------- keying
    def digest(self, activation: np.ndarray) -> bytes:
        """Content key for one sample's layer-``k`` activation.

        ``tolerance > 0`` buckets values on a grid of that pitch before
        hashing, so activations within half a quantum of each other share a
        key; ``tolerance == 0`` hashes the exact bytes.
        """
        arr = np.ascontiguousarray(activation, dtype=np.float32)
        if self.tolerance > 0.0:
            arr = np.ascontiguousarray(np.round(arr / self.tolerance))
        if self._digest_fn is not None:
            return self._digest_fn(arr.tobytes())
        return hashlib.sha256(arr.tobytes()).digest()

    # ------------------------------------------------------- probe / insert
    def probe(self, key: bytes,
              activation: np.ndarray) -> Optional[np.ndarray]:
        """Verified lookup: the cached output row, or ``None`` on a miss.

        A key match whose retained snapshot is not within ``tolerance`` of
        ``activation`` is a digest collision — counted and refused.  Counts
        hits/misses; the accepted hit's distance feeds ``fidelity_max``.
        """
        with self._lock:
            entry = self._lru.get(key)
            if entry is not None:
                snap, out = entry
                if self.tolerance == 0.0:
                    ok = (snap.shape == activation.shape
                          and np.array_equal(snap, activation))
                    distance = 0.0
                else:
                    ok = snap.shape == activation.shape
                    if ok:
                        distance = float(
                            np.max(np.abs(snap - activation), initial=0.0))
                        ok = distance <= self.tolerance
                if ok:
                    self._lru.move_to_end(key)
                    self.hits += 1
                    if self.tolerance > 0.0:
                        self.fidelity_max = max(self.fidelity_max, distance)
                    return out
                self.collisions += 1
            self.misses += 1
            return None

    def insert(self, key: bytes, activation: np.ndarray,
               output: np.ndarray) -> None:
        """Retain one (activation snapshot, output row) pair; LRU-evict."""
        with self._lock:
            self._lru[key] = (np.array(activation, dtype=np.float32),
                              np.array(output, dtype=np.float32))
            self._lru.move_to_end(key)
            while len(self._lru) > self.max_entries:
                self._lru.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "collisions": self.collisions,
                    "entries": len(self._lru),
                    "fidelity_max": self.fidelity_max}

    # -------------------------------------------------------------- serve
    def serve(self, n: int, timer=None, clock=None, plan=None) -> _CacheServe:
        """Serve the gathered batch of ``n`` rows through the cache.

        Caller contract matches ``execute``: inputs are already in the
        input slab and the plan lock is held.  ``plan`` is the plan the
        caller holds — any plan compiled for the same net (entries are
        activations and output rows, not arena state, so the cache is per
        model); it defaults to the construction plan.  Runs the prefix for
        all rows, probes per row, then one partial-batch suffix for the misses
        (at the miss count's width — BLAS may reassociate differently than
        an ``n``-wide pass, which is the same per-composition caveat the
        batching executor already documents).  Returns owned, read-only
        outputs plus the probe window for span/stage accounting.
        """
        import time as _time

        clock = clock or _time.monotonic
        plan = plan if plan is not None else self.plan
        k = self.split
        plan.execute_range(n, 0, k + 1, timer=timer)
        views = plan._views_for(n)
        probe_start = clock()
        acts = views.tops[self.top]
        keys = [self.digest(acts[i]) for i in range(n)]
        coll_before = self.collisions
        cached: List[Optional[np.ndarray]] = [
            self.probe(keys[i], acts[i]) for i in range(n)]
        miss_rows = [i for i in range(n) if cached[i] is None]
        miss_acts = [np.array(acts[i], dtype=np.float32) for i in miss_rows]
        probe_end = clock()
        out_shape = tuple(views.output.shape[1:])
        outputs = np.empty((n,) + out_shape, dtype=np.float32)
        if miss_rows:
            m = len(miss_rows)
            stacked = np.stack(miss_acts, axis=0)
            suffix_views = plan._views_for(m)
            np.copyto(suffix_views.tops[self.top], stacked)
            suffix_out = plan.execute_range(m, k + 1, timer=timer)
            for j, i in enumerate(miss_rows):
                outputs[i] = suffix_out[j]
                self.insert(keys[i], miss_acts[j], suffix_out[j])
        for i in range(n):
            if cached[i] is not None:
                outputs[i] = cached[i]
        outputs.flags.writeable = False
        return _CacheServe(
            outputs,
            hits=n - len(miss_rows),
            misses=len(miss_rows),
            collisions=self.collisions - coll_before,
            fidelity_max=self.fidelity_max,
            probe_start=probe_start, probe_end=probe_end)

