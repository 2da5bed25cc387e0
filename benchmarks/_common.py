"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
the relevant model/simulation under ``pytest-benchmark`` timing, prints the
rows/series the paper reports, and appends them to
``benchmarks/results/<name>.txt`` so the full set of reproduced artifacts
can be reviewed after a run.
"""

from __future__ import annotations

import os
from typing import Iterable, List

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def host_cores() -> int:
    """Usable core count, affinity-aware.

    ``os.cpu_count()`` reports the machine, not the process: a runner
    pinned to one core of a 64-core host would read as 64.
    ``sched_getaffinity`` sees the actual cpuset.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def report(name: str, title: str, lines: Iterable[str]) -> str:
    """Print a reproduced table/figure and persist it under results/."""
    body = "\n".join([f"=== {title} ==="] + list(lines))
    print("\n" + body)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(body + "\n")
    return body


def series_row(label: str, values: List[float], fmt: str = "{:>10.2f}") -> str:
    return f"{label:8s} " + " ".join(fmt.format(v) for v in values)


def bar(value: float, scale: float, width: int = 40) -> str:
    """A log-free text bar for quick visual comparison."""
    filled = int(min(1.0, value / scale) * width)
    return "#" * filled
