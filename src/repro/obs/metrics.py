"""Metrics: thread-safe Counter/Gauge/Histogram families with labels.

The paper's evaluation is built on counting things — queries served, where
each millisecond went (Figs 4–9) — so the serving stack needs a first-class
metrics substrate rather than ad-hoc dicts.  This module provides:

* a :class:`MetricsRegistry` holding named metric *families*; each family
  fans out to children keyed by label values (``family.labels(model="dig")``);
* :class:`Counter` (monotone), :class:`Gauge` (up/down), and
  :class:`Histogram` (fixed log-scale buckets, sum/count/min/max and tail
  exemplars);
* :class:`ChildMap`, a family's children keyed by label values and bound
  on first use, for hot paths;
* Prometheus-style text exposition (:meth:`MetricsRegistry.expose`), a
  JSON-able structural dump (:meth:`MetricsRegistry.dump`) that travels on
  the wire in ``METRICS_RESPONSE`` frames, :func:`merge_dumps` so a gateway
  can aggregate a fleet's registries, and :func:`parse_exposition` so tests
  and CI can assert the text format stays well-formed.

Everything is safe to call from many worker threads; the hot path
(``children[model].inc()`` / ``.observe()``) is one dict lookup and one
small lock.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import struct
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "ChildMap",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_S",
    "default_registry",
    "render_exposition",
    "parse_exposition",
    "merge_dumps",
    "merge_exemplars",
    "percentile_from_counts",
    "write_dump_region",
    "read_dump_region",
    "DUMP_REGION_HEADER",
]

#: Fixed log-scale latency buckets (seconds): 100 µs doubling up to ~105 s.
#: Every latency histogram in the stack shares these bounds so fleet-level
#: merges are exact (bucket-wise sums, no resampling).
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = tuple(
    1e-4 * (2.0 ** i) for i in range(21)
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str, kind: str = "metric") -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid {kind} name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else ("%g" % bound)


# --------------------------------------------------------------------- children
class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, in-flight requests)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    :meth:`percentile` interpolates within the matching bucket, clamped to
    the observed min and max.

    ``exemplars`` > 0 keeps that many **tail exemplars**: the largest
    observations seen so far, each with an opaque label (a trace ID in the
    serving stack).  A latency histogram then *names* its outliers — the
    ``djinn slow`` CLI resolves those trace IDs back to full span trees and
    cost ledgers, which is how "what is my p99 doing" becomes answerable.
    """

    __slots__ = ("buckets", "_counts", "_lock", "_sum", "_count",
                 "_min", "_max", "_ex_cap", "_ex_heap", "_ex_seq")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
                 exemplars: int = 0):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        if exemplars < 0:
            raise ValueError(f"exemplars must be >= 0, got {exemplars}")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._lock = threading.Lock()
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._ex_cap = int(exemplars)
        #: min-heap of (value, seq, label): the cap largest observations
        self._ex_heap: List[Tuple[float, int, str]] = []
        self._ex_seq = 0

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """Record ``value``; ``exemplar`` labels it (e.g. a trace ID) so the
        slowest observations stay resolvable to their traces."""
        value = float(value)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._ex_cap and exemplar is not None:
                entry = (value, self._ex_seq, str(exemplar))
                self._ex_seq += 1
                if len(self._ex_heap) < self._ex_cap:
                    heapq.heappush(self._ex_heap, entry)
                elif entry > self._ex_heap[0]:
                    heapq.heapreplace(self._ex_heap, entry)

    def exemplars(self) -> List[Tuple[float, str]]:
        """Retained tail exemplars as ``(value, label)``, slowest first."""
        with self._lock:
            entries = sorted(self._ex_heap, reverse=True)
        return [(value, label) for value, _seq, label in entries]

    # ------------------------------------------------------------- reading
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    def counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is the +Inf bucket."""
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100), interpolated within the matching
        bucket and clamped to the observed range."""
        with self._lock:
            counts, low, high = list(self._counts), self._min, self._max
        return percentile_from_counts(self.buckets, counts, q, low, high)

    def merge_counts(self, counts: Sequence[int], total: int, total_sum: float,
                     minimum: float, maximum: float) -> None:
        """Fold another histogram's state (same bucket bounds) into this one."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"bucket count mismatch: {len(counts)} vs {len(self._counts)}")
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += int(c)
            self._count += int(total)
            self._sum += float(total_sum)
            if total:
                self._min = min(self._min, minimum)
                self._max = max(self._max, maximum)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# --------------------------------------------------------------------- families
#: bound on a family's repeat-lookup cache (emptied when full)
_RECENT_LABELS = 256


class MetricFamily:
    """One named metric with a fixed label schema, fanning out to children."""

    def __init__(self, name: str, kind: str, help: str = "",
                 labelnames: Sequence[str] = (), **child_kwargs):
        self.name = _check_name(name)
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._child_kwargs = child_kwargs
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        # repeat-lookup cache: a call's own (name, value) items -> child
        self._recent: Dict[tuple, object] = {}

    def labels(self, **labelvalues: str):
        """The child for this label combination (created on first use)."""
        # Hot-path callers repeat the same few combinations; a hit skips
        # validation, str() and the lock.  Only all-``str`` combinations
        # are cached or looked up, so a hit names the child the validating
        # path below would: nothing that merely compares equal to a cached
        # value (1 / True / 1.0, a str subclass with its own __str__) can
        # reach another value's child.
        for value in labelvalues.values():
            if type(value) is not str:
                items = None
                break
        else:
            items = tuple(labelvalues.items())
            child = self._recent.get(items)
            if child is not None:
                return child
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _KINDS[self.kind](**self._child_kwargs)
                self._children[key] = child
            # under the lock, so a racing clear() cannot leave a dropped
            # child behind in the cache
            if items is not None:
                if len(self._recent) >= _RECENT_LABELS:
                    self._recent.clear()
                self._recent[items] = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())

    def clear(self) -> None:
        """Drop all children (e.g. between benchmark phases)."""
        with self._lock:
            self._children.clear()
            self._recent.clear()

    # convenience: a label-less family acts like its single child
    def _solo(self):
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} requires labels {self.labelnames}")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self._solo().observe(value, exemplar=exemplar)


class ChildMap(dict):
    """One family's children keyed by label values, each bound on first use.

    ``children[model]`` (a one-label family) or ``children[model, stage]``
    (values in ``labelnames`` order) is a plain dict lookup once the child
    exists — what per-request paths use instead of ``labels(**kw)``, which
    builds and checks a kwargs dict on every call.  Children stay bound
    for the map's life, so a family read through a map is never cleared.
    """

    __slots__ = ("family",)

    def __init__(self, family: MetricFamily):
        super().__init__()
        self.family = family

    def __missing__(self, key):
        values = key if isinstance(key, tuple) else (key,)
        child = self[key] = self.family.labels(
            **dict(zip(self.family.labelnames, values)))
        return child


# --------------------------------------------------------------------- registry
class MetricsRegistry:
    """A named collection of metric families.

    Each server owns one registry (so replicas don't collide) and exposes it
    over the wire; a process-wide :func:`default_registry` exists for
    library code that has nowhere better to register.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(self, name: str, kind: str, help: str,
                       labelnames: Sequence[str], **child_kwargs) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}")
                if family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{family.labelnames}, got {tuple(labelnames)}")
                return family
            family = MetricFamily(name, kind, help=help, labelnames=labelnames,
                                  **child_kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._get_or_create(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
                  exemplars: int = 0) -> MetricFamily:
        return self._get_or_create(name, "histogram", help, labelnames,
                                   buckets=buckets, exemplars=exemplars)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    # ------------------------------------------------------------ exporting
    def dump(self) -> dict:
        """JSON-able structural snapshot (what METRICS_RESPONSE carries)."""
        metrics = {}
        for family in self.families():
            samples = []
            for key, child in sorted(family.children()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    sample = {
                        "labels": labels,
                        "counts": child.counts(),
                        "sum": child.sum,
                        "count": child.count,
                        "min": child.min,
                        "max": child.max,
                    }
                    exemplar_list = child.exemplars()
                    if exemplar_list:
                        sample["exemplars"] = [[v, label]
                                               for v, label in exemplar_list]
                    samples.append(sample)
                else:
                    samples.append({"labels": labels, "value": child.value})
            entry = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "samples": samples,
            }
            if family.kind == "histogram":
                entry["buckets"] = [b for b in family._child_kwargs["buckets"]]
                cap = family._child_kwargs.get("exemplars", 0)
                if cap:
                    entry["exemplars_cap"] = cap
            metrics[family.name] = entry
        return {"metrics": metrics}

    def expose(self) -> str:
        """Prometheus-style text exposition of the whole registry."""
        return render_exposition(self.dump())


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (one per Python process)."""
    return _DEFAULT_REGISTRY


# ------------------------------------------------------------------- exposition
def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_exposition(dump: dict) -> str:
    """Render a registry dump (or merged dumps) as Prometheus text format."""
    lines: List[str] = []
    for name in sorted(dump.get("metrics", {})):
        entry = dump["metrics"][name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            labels = sample.get("labels", {})
            if entry["type"] == "histogram":
                bounds = list(entry.get("buckets", ())) + [math.inf]
                cumulative = 0
                for bound, count in zip(bounds, sample["counts"]):
                    cumulative += count
                    le = f'le="{_format_bound(bound)}"'
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, le)} {cumulative}")
                lines.append(
                    f"{name}_sum{_render_labels(labels)} "
                    f"{_format_value(sample['sum'])}")
                lines.append(
                    f"{name}_count{_render_labels(labels)} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} "
                    f"{_format_value(sample['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{(.*)\})?"                        # optional label block
    r" (-?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf)|\+Inf|NaN)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse Prometheus text exposition into ``{name: {labels: value}}``.

    Strict on purpose — this is the CI gate that keeps :func:`render_exposition`
    honest.  Raises :class:`ValueError` on any malformed line.
    """
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            if parts[1] == "TYPE" and parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: unknown metric type {parts[3]!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name, label_block, value_text = match.groups()
        labels: List[Tuple[str, str]] = []
        if label_block:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_block):
                labels.append((pair.group(1), pair.group(2)))
                consumed = pair.end()
                if consumed < len(label_block) and label_block[consumed] == ",":
                    consumed += 1
            if consumed != len(label_block):
                raise ValueError(f"line {lineno}: malformed labels {label_block!r}")
        if value_text in ("+Inf", "Inf"):
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            value = float(value_text)
        out.setdefault(name, {})[tuple(labels)] = value
    return out


# ------------------------------------------------------------------------ merge
def merge_exemplars(a: Sequence[Sequence], b: Sequence[Sequence],
                    cap: int) -> List[List]:
    """Merge two ``[value, label]`` exemplar lists, keeping the ``cap``
    largest values (ties broken by label for determinism)."""
    combined = [[float(v), str(label)] for v, label in list(a) + list(b)]
    combined.sort(key=lambda e: (-e[0], e[1]))
    return combined[:max(0, int(cap))]


def percentile_from_counts(bounds: Sequence[float], counts: Sequence[int],
                           q: float, low: Optional[float] = None,
                           high: Optional[float] = None) -> float:
    """q-th percentile (0..100) from a histogram's bucket counts.

    Linear interpolation within the matching bucket — usable on merged
    fleet dumps where no raw samples exist (``djinn top``,
    ``DjinnClient.stats``).  ``counts`` is per-bucket (non-cumulative),
    last entry the +Inf bucket.  ``low``/``high``, the observed min and
    max when known, clamp the bucket's edges: the estimate then never
    leaves the observed range, and the +Inf bucket tops out at the max.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total == 0:
        return 0.0
    target = (q / 100.0) * total
    cumulative = 0
    for idx, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= target and bucket_count:
            upper = bounds[idx] if idx < len(bounds) else bounds[-1] * 2.0
            lower = bounds[idx - 1] if idx > 0 else 0.0
            if high is not None:
                upper = high if idx == len(bounds) else min(upper, high)
            if low is not None:
                lower = max(lower, low)
            if upper <= lower:
                return upper
            frac = (target - (cumulative - bucket_count)) / bucket_count
            return lower + (upper - lower) * min(1.0, max(0.0, frac))
    return bounds[-1] if high is None else high


def merge_dumps(dumps: Iterable[dict]) -> dict:
    """Merge registry dumps into a fleet-level dump.

    Counters and gauges sum per label-set (a gauge sum reads as fleet total,
    e.g. total in-flight); histograms merge bucket-wise, which is exact
    because every latency histogram shares :data:`DEFAULT_LATENCY_BUCKETS_S`.
    Histograms with mismatched bucket bounds raise :class:`ValueError`.
    """
    merged: Dict[str, dict] = {}
    for dump in dumps:
        for name, entry in dump.get("metrics", {}).items():
            target = merged.get(name)
            if target is None:
                target = {
                    "type": entry["type"],
                    "help": entry.get("help", ""),
                    "labelnames": list(entry.get("labelnames", [])),
                    "samples": [],
                }
                if entry["type"] == "histogram":
                    target["buckets"] = list(entry.get("buckets", ()))
                    if entry.get("exemplars_cap"):
                        target["exemplars_cap"] = int(entry["exemplars_cap"])
                merged[name] = target
            elif target["type"] != entry["type"]:
                raise ValueError(
                    f"metric {name!r} has conflicting types "
                    f"{target['type']} vs {entry['type']}")
            elif (entry["type"] == "histogram"
                  and list(entry.get("buckets", ())) != target["buckets"]):
                raise ValueError(f"metric {name!r} has mismatched bucket bounds")
            if entry["type"] == "histogram" and entry.get("exemplars_cap"):
                target["exemplars_cap"] = max(
                    int(target.get("exemplars_cap", 0)),
                    int(entry["exemplars_cap"]))
            by_labels = {
                tuple(sorted(s.get("labels", {}).items())): s
                for s in target["samples"]
            }
            for sample in entry["samples"]:
                key = tuple(sorted(sample.get("labels", {}).items()))
                existing = by_labels.get(key)
                if existing is None:
                    copied = json.loads(json.dumps(sample))  # deep, JSON-safe
                    target["samples"].append(copied)
                    by_labels[key] = copied
                elif entry["type"] == "histogram":
                    existing["counts"] = [
                        a + b for a, b in zip(existing["counts"], sample["counts"])
                    ]
                    existing["sum"] += sample["sum"]
                    existing["count"] += sample["count"]
                    if sample["count"]:
                        existing["min"] = (min(existing["min"], sample["min"])
                                           if existing["count"] - sample["count"]
                                           else sample["min"])
                        existing["max"] = max(existing["max"], sample["max"])
                    if existing.get("exemplars") or sample.get("exemplars"):
                        cap = int(target.get("exemplars_cap", 0)) or max(
                            len(existing.get("exemplars", ())),
                            len(sample.get("exemplars", ())))
                        existing["exemplars"] = merge_exemplars(
                            existing.get("exemplars", ()),
                            sample.get("exemplars", ()), cap)
                else:
                    existing["value"] += sample["value"]
    for entry in merged.values():
        entry["samples"].sort(key=lambda s: tuple(sorted(s.get("labels", {}).items())))
    return {"metrics": merged}


# -------------------------------------------------------------- shm regions
#: Bytes reserved at the head of a dump region: u64 seqlock version,
#: u32 payload length, 4 bytes pad.
DUMP_REGION_HEADER = 16


def write_dump_region(buf, dump: dict) -> None:
    """Publish a registry dump into a shared-memory region (single writer).

    Seqlock protocol: bump the version to odd, write the JSON payload, bump
    to even.  A reader that observes an odd version or a version change
    mid-read retries, so torn reads are impossible without any cross-process
    lock.  Used by :mod:`repro.core.procpool` workers to export their
    per-process metrics for the parent's ``merge_dumps`` aggregation.
    """
    payload = json.dumps(dump, sort_keys=True).encode("utf-8")
    if len(payload) > len(buf) - DUMP_REGION_HEADER:
        raise ValueError(
            f"metrics dump of {len(payload)} bytes exceeds region capacity "
            f"{len(buf) - DUMP_REGION_HEADER}")
    version = struct.unpack_from("<Q", buf, 0)[0]
    struct.pack_into("<Q", buf, 0, version + 1)  # odd: write in progress
    struct.pack_into("<I", buf, 8, len(payload))
    buf[DUMP_REGION_HEADER:DUMP_REGION_HEADER + len(payload)] = payload
    struct.pack_into("<Q", buf, 0, version + 2)  # even: consistent


def read_dump_region(buf, attempts: int = 16) -> Optional[dict]:
    """Read a dump published by :func:`write_dump_region`.

    Returns ``None`` if the region was never written or stays torn for
    ``attempts`` tries (writer mid-update on every look — vanishingly rare
    given the payload is a few KB).
    """
    for _ in range(attempts):
        before = struct.unpack_from("<Q", buf, 0)[0]
        if before == 0:
            return None
        if before & 1:
            continue
        length = struct.unpack_from("<I", buf, 8)[0]
        if length > len(buf) - DUMP_REGION_HEADER:
            continue
        payload = bytes(buf[DUMP_REGION_HEADER:DUMP_REGION_HEADER + length])
        if struct.unpack_from("<Q", buf, 0)[0] != before:
            continue
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            continue
    return None
