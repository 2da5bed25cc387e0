"""Where the benchmark lives and how it pins the host; imports nothing
heavy, so it can run before numpy loads its BLAS pool."""

import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: BLAS/OpenMP pools are pinned to one thread in the server child and in
#: the benchmark process (oracle, traced ladder): on a 2-vCPU host a second
#: BLAS thread spins next to the load generator and doubles server CPU
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


#: read once, at import: pinning narrows what a later call would see
CPUS = len(os.sched_getaffinity(0))


def pin_to_one_cpu() -> int:
    """Pin this process, and so every server child it spawns, to the last
    CPU it may use; returns that CPU.

    Rule 1 (demand <= 1 core) made literal.  On this 2-vCPU guest the
    hypervisor steals 13-33 % as soon as both vCPUs are busy, and a vCPU
    that idles between requests runs slower when it wakes.  Thirty
    interleaved rounds of the same DIG stream: generator and server on a
    CPU each read p50 0.730 ms with 9.4 % quartile spread and 7 slow rounds
    (> 1.0 ms); both on the last CPU read 0.654 ms, 3.8 % and 1 slow round.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
