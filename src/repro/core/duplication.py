"""Seeded near-duplicate planning, shared by every dup_frac knob.

Production query streams repeat — the same photo re-shared, the same
query re-issued through a different crop or encode — and batching,
caches, and admission control all see that traffic very differently from
fresh i.i.d. inputs.  The Tonic dataset generators
(:func:`repro.tonic.datasets.with_duplicates`) and per-request streams
(the dup-heavy soak test) both model it; this module is the single source
of truth for *which* items duplicate *what*, so a given
``(seed, count, dup_frac)`` names exactly one duplicate stream no matter
which surface draws it (pinned by ``tests/test_cache.py``).

Semantics:

* :func:`plan_duplicates` draws one Bernoulli(``dup_frac``) per item
  ``i >= 1`` from ``default_rng(seed)``; selected items replay a source
  drawn uniformly from the *earlier* indices ``[0, i)``.  Item 0 is
  never a duplicate.
* :func:`jitter_duplicate` perturbs one replayed item with gaussian
  noise from ``default_rng((seed + 1) * 1_000_003 + index)`` — keyed on
  the duplicate's own index, so any item's jitter can be regenerated
  independently of traversal order.  Sources are always the *original*
  items: a duplicate of a duplicate replays the pristine input, not the
  jittered copy (no noise accumulation along chains).
* ``jitter=0`` yields byte-identical duplicates — what a content-
  addressed response cache hits on; ``jitter > 0`` yields near-
  duplicates — what a tolerance-carrying layer cache is for.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["plan_duplicates", "jitter_duplicate", "apply_duplicates"]


def plan_duplicates(count: int, dup_frac: float, seed: int) -> Dict[int, int]:
    """The duplicate plan: ``{index -> earlier source index}``.

    Deterministic per ``(count, dup_frac, seed)``; needs no shared state
    to apply (each entry is independent given the plan).
    """
    if not 0.0 <= dup_frac <= 1.0:
        raise ValueError(f"dup_frac must be in [0, 1], got {dup_frac}")
    dup_of: Dict[int, int] = {}
    if not dup_frac or count < 2:
        return dup_of
    rng = np.random.default_rng(seed)
    for i in range(1, count):
        if rng.random() < dup_frac:
            dup_of[i] = int(rng.integers(0, i))
    return dup_of


def jitter_duplicate(base: np.ndarray, index: int, seed: int,
                     jitter: float,
                     clip: Optional[Tuple[float, float]] = None) -> np.ndarray:
    """One replayed item: ``base`` plus seeded noise for duplicate ``index``.

    Always returns a new array (callers may own ``base``); preserves the
    input dtype.  ``clip`` bounds the result (image generators keep their
    [0, 1] range through the noise).
    """
    base = np.asarray(base)
    if jitter:
        rng = np.random.default_rng((seed + 1) * 1_000_003 + index)
        out = (base + rng.normal(0.0, jitter, size=base.shape)
               ).astype(base.dtype, copy=False)
    else:
        out = base.copy()
    if clip is not None:
        out = np.clip(out, clip[0], clip[1]).astype(base.dtype, copy=False)
    return out


def apply_duplicates(items: np.ndarray,
                     labels: Optional[np.ndarray] = None,
                     dup_frac: float = 0.0,
                     seed: int = 0,
                     jitter: float = 0.01,
                     clip: Optional[Tuple[float, float]] = None):
    """Array form: replace a planned fraction of ``items`` with duplicates.

    Sources are the *original* rows of ``items`` (never an already-
    replaced row).  With ``labels`` given, each duplicate inherits its
    source's label and ``(items, labels)`` is returned; otherwise just
    the transformed items.
    """
    plan = plan_duplicates(len(items), dup_frac, seed)
    if not plan:
        return items if labels is None else (items, labels)
    out = np.array(items, copy=True)
    out_labels = None if labels is None else np.array(labels, copy=True)
    for idx, src in plan.items():
        out[idx] = jitter_duplicate(items[src], idx, seed, jitter, clip=clip)
        if out_labels is not None:
            out_labels[idx] = labels[src]
    return out if out_labels is None else (out, out_labels)
