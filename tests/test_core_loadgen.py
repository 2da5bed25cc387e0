"""Load-generator tests against a live service."""

import numpy as np
import pytest

from repro.core import DjinnServer, ModelRegistry, run_closed_loop_load
from repro.models import senna


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry()
    registry.register_spec("pos", senna("pos"), seed=0)
    with DjinnServer(registry) as srv:
        yield srv


def pos_input(i: int) -> np.ndarray:
    rng = np.random.default_rng(i)
    return rng.normal(size=(4, 300)).astype(np.float32)


def big_pos_input(i: int) -> np.ndarray:
    # big enough that the GIL-releasing GEMM dominates per-request overhead
    rng = np.random.default_rng(i)
    return rng.normal(size=(256, 300)).astype(np.float32)


class TestClosedLoopLoad:
    def test_counts_and_rates(self, server):
        host, port = server.address
        result = run_closed_loop_load(host, port, "pos", pos_input,
                                      clients=2, requests_per_client=10)
        assert result.requests == 20
        assert result.errors == 0
        assert result.qps > 0
        assert result.inputs_per_s == pytest.approx(result.qps * 4, rel=0.01)
        assert result.p99_latency_s >= result.mean_latency_s

    def test_concurrency_sustains_throughput_and_obeys_littles_law(self, server):
        """Throughput holds up under 4x the clients (no collapse) and the
        closed-loop identity clients ~= qps x latency emerges."""
        host, port = server.address
        one = run_closed_loop_load(host, port, "pos", big_pos_input,
                                   clients=1, requests_per_client=40)
        four = run_closed_loop_load(host, port, "pos", big_pos_input,
                                    clients=4, requests_per_client=40)
        assert four.inputs_per_s > one.inputs_per_s * 0.6
        concurrency = four.qps * four.mean_latency_s
        assert 2.0 < concurrency < 5.0  # ~4 clients in flight

    def test_think_time_lowers_throughput(self, server):
        host, port = server.address
        busy = run_closed_loop_load(host, port, "pos", pos_input,
                                    clients=2, requests_per_client=10)
        idle = run_closed_loop_load(host, port, "pos", pos_input,
                                    clients=2, requests_per_client=10,
                                    think_time_s=0.01)
        assert idle.qps < busy.qps

    def test_errors_counted_not_raised(self, server):
        host, port = server.address
        bad_input = lambda i: np.zeros((1, 7), np.float32)  # noqa: E731 - wrong width
        result = run_closed_loop_load(host, port, "pos", bad_input,
                                      clients=2, requests_per_client=5)
        assert result.errors == 10
        assert result.requests == 0

    def test_validation(self, server):
        host, port = server.address
        with pytest.raises(ValueError):
            run_closed_loop_load(host, port, "pos", pos_input, clients=0)

