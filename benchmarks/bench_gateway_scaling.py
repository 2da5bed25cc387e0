"""Fig. 11-shaped experiment on the real gateway: throughput vs replicas.

The paper scales DjiNN throughput by adding GPUs, one service instance per
GPU (§5.2, Fig. 11).  Here the fleet is N in-process ``DjinnServer``
backends behind the real ``GatewayServer`` on localhost TCP, driven
closed-loop by the standard load generator — every byte crosses real
sockets through the real routing/retry path.

Replica scaling must not depend on how many CPU cores the host has, so
each backend is *device-paced* (``service_floor_s`` imposes a serial
per-batch service time, slept with the GIL released), modeling the paper's
regime where per-request latency is dominated by the attached GPU.
Replicas then overlap device time even on a single core, and aggregate
throughput grows until the host CPU (the paper's PCIe/host analogue,
Fig. 12) becomes the bottleneck.  The report line states the host's usable
core count.

Each backend builds its own registry, as each of the paper's instances
holds its own copy of the weights on its own GPU.  Backends sharing one
registry share its execution plans, and a plan's lock is held through the
paced device time, so a shared-registry fleet serves one batch at a time.
"""

import numpy as np

from repro.core import BatchPolicy, ModelRegistry, run_closed_loop_load
from repro.gateway import ClusterLauncher, GatewayServer

from _common import bar, host_cores, report

#: modeled device service time per batch (order of a K40 forward pass for a
#: mid-size Tonic batch, Fig. 5)
SERVICE_FLOOR_S = 0.02
FLEET_SIZES = (1, 2, 3, 4)
CLIENTS = 8
REQUESTS_PER_CLIENT = 20


def make_registry(backend_index):
    from repro.models import senna

    reg = ModelRegistry()
    reg.register_spec("pos", senna("pos"), seed=1)
    return reg


def measure():
    qps = {}
    for n in FLEET_SIZES:
        with ClusterLauncher(
            make_registry, backends=n,
            batching=BatchPolicy(max_batch=1, timeout_ms=0.0),
            service_floor_s=SERVICE_FLOOR_S,
        ) as cluster:
            gateway = GatewayServer(cluster.addresses, policy="least_outstanding",
                                    health_interval_s=1.0)
            with gateway:
                host, port = gateway.address
                result = run_closed_loop_load(
                    host, port, "pos",
                    lambda i: np.zeros((1, 300), np.float32),
                    clients=CLIENTS, requests_per_client=REQUESTS_PER_CLIENT,
                )
                assert result.errors == 0, f"load run had {result.errors} errors"
                qps[n] = result.qps
    return qps


def test_gateway_scaling(benchmark):
    qps = benchmark.pedantic(measure, rounds=1, iterations=1)
    ideal = qps[1]
    lines = [f"{n} backend(s) {qps[n]:>8.1f} qps  "
             f"{qps[n] / ideal:>4.2f}x  {bar(qps[n], qps[max(FLEET_SIZES)])}"
             for n in FLEET_SIZES]
    lines.append(f"(real GatewayServer + {CLIENTS} closed-loop TCP clients; "
                 f"backends device-paced at {SERVICE_FLOOR_S * 1e3:.0f} ms/batch "
                 f"on a {host_cores()}-core host)")
    report("gateway_scaling", "Gateway throughput vs replicas (Fig 11 shape)", lines)

    # the paper's claim in miniature: aggregate throughput grows with every
    # added replica, and the fleet of 4 is well beyond 1-instance throughput
    for small, big in zip(FLEET_SIZES, FLEET_SIZES[1:]):
        assert qps[big] > qps[small], (
            f"throughput must rise {small}->{big} backends: {qps}")
    assert qps[4] > 2.5 * qps[1], f"4 replicas should near-linearly beat 1: {qps}"
