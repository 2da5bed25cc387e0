"""The service under test, as its own process: a gateway in front of one
backend, composed from the public classes the way ``repro.cli`` composes
``djinn gateway``.

Run as ``python server_child.py --workload NAME`` with ``PYTHONPATH`` on
``src``; it stays on the CPUs its parent was pinned to.  Speaks a line protocol on its pipes: prints one JSON ``ready``
line once both listeners are up, answers ``usage`` with the process's CPU
seconds and peak RSS, and on ``stop`` (or end of input, if the parent
died) stops both servers and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def layer_cache_config(workload):
    from repro.nn import LayerCacheConfig

    if not workload.layer_cache_entries:
        return None
    return LayerCacheConfig(max_entries=workload.layer_cache_entries,
                            tolerance=0.0)


def build_backend(workload, registry):
    """The workload's backend over ``registry`` (not started)."""
    from repro.core import BatchPolicy, DjinnServer

    return DjinnServer(
        registry,
        batching=BatchPolicy(max_batch=workload.max_batch,
                             timeout_ms=workload.timeout_ms),
        sched=workload.sched, layer_cache=layer_cache_config(workload))


def build_gateway(workload, backend_address):
    """The workload's gateway in front of one backend (not started)."""
    from repro.gateway import GatewayServer
    from repro.sched import QosConfig

    qos = QosConfig(admission=True) if workload.admission else None
    return GatewayServer([backend_address], qos=qos,
                         cache_mb=workload.cache_mb)


def _usage() -> dict:
    return {"cpu_s": time.process_time(), "maxrss_kb": _peak_rss_kb()}


def _peak_rss_kb() -> int:
    """This process's own peak RSS (``VmHWM``).

    Not ``ru_maxrss``: Linux carries that high-water mark across fork and
    exec, so a child of a 500 MB benchmark process would report 500 MB
    before it had imported anything.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    from workloads import BY_NAME

    workload = BY_NAME[args.workload]
    from repro.core import ModelRegistry
    from repro.models import build_spec

    registry = ModelRegistry()
    # seed 0: the first (only) model of a `djinn gateway --models X` fleet
    registry.register_spec(workload.model, build_spec(workload.model), seed=0)
    server = build_backend(workload, registry)
    server.start()
    gateway = build_gateway(workload, server.address)
    gateway.start()
    try:
        print(json.dumps({"event": "ready",
                          "gateway": list(gateway.address),
                          "backend": list(server.address)}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "usage":
                print(json.dumps(_usage()), flush=True)
            elif command == "stop":
                break
    finally:
        gateway.stop()
        server.stop()
    print(json.dumps(_usage()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
