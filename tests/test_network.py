"""Unit tests for the Net container, over chain and DAG specs alike."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import LayerSpec, Net, NetSpec, numerical_gradient
from repro.nn.layers import ShapeError, softmax_cross_entropy
from test_graph import residual_spec, two_branch_spec


def cnn_spec():
    return NetSpec("cnn", (1, 8, 8), (
        LayerSpec("Convolution", "conv", {"num_output": 4, "kernel_size": 3, "pad": 1}),
        LayerSpec("ReLU", "relu"),
        LayerSpec("Pooling", "pool", {"kernel_size": 2}),
        LayerSpec("InnerProduct", "fc", {"num_output": 5}),
        LayerSpec("Softmax", "prob"),
    ))


#: one chain and one DAG; the parametrized tests below hold for both
SPECS = {"chain": cnn_spec, "dag": two_branch_spec}
PARAMS = {"chain": (4 * 9 + 4) + (5 * 64 + 5),
          "dag": (5 * 6 + 5) + (3 * 6 + 3) + (4 * 8 + 4)}


@pytest.fixture(params=sorted(SPECS))
def kind(request):
    return request.param


def sample(net, rng, n=2):
    return rng.normal(size=(n, *net.input_shape)).astype(np.float32)


class TestConstruction:
    def test_shape_inference_without_weights(self):
        net = Net(cnn_spec())
        assert net.output_shape == (5,)
        assert not net.materialized

    def test_shape_error_names_the_offending_layer(self):
        spec = NetSpec("bad", (4,), (
            LayerSpec("Convolution", "conv", {"num_output": 2, "kernel_size": 3}),
        ))
        with pytest.raises(ShapeError, match="conv"):
            Net(spec)

    def test_param_accounting(self, kind):
        net = Net(SPECS[kind]())
        assert net.param_count() == PARAMS[kind]
        assert net.param_bytes() == PARAMS[kind] * 4

    def test_forward_before_materialize_raises(self, kind):
        net = Net(SPECS[kind]())
        with pytest.raises(RuntimeError, match="not materialized"):
            net.forward(np.zeros((1, *net.input_shape)))


class TestForward:
    def test_deterministic_under_seed(self, rng):
        x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        y1 = Net(cnn_spec()).materialize(7).forward(x)
        y2 = Net(cnn_spec()).materialize(7).forward(x)
        np.testing.assert_array_equal(y1, y2)

    def test_different_seeds_differ(self, rng):
        x = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
        y1 = Net(cnn_spec()).materialize(1).forward(x)
        y2 = Net(cnn_spec()).materialize(2).forward(x)
        assert not np.allclose(y1, y2)

    def test_single_sample_convenience(self, rng, kind):
        net = Net(SPECS[kind]()).materialize(0)
        x = sample(net, rng, n=1)
        np.testing.assert_array_equal(net.forward(x[0]), net.forward(x))
        assert net.forward(x[0]).shape == (1, *net.output_shape)

    def test_predict_returns_argmax(self, rng):
        net = Net(cnn_spec()).materialize(0)
        x = rng.normal(size=(3, 1, 8, 8)).astype(np.float32)
        probs = net.forward(x)
        np.testing.assert_array_equal(net.predict(x), probs.argmax(axis=1))

    def test_inference_is_stateless(self, rng):
        """Inference passes must not mutate layer state — this is what makes
        the DjiNN registry's read-only model sharing thread-safe."""
        net = Net(cnn_spec()).materialize(0)
        x = rng.normal(size=(2, 1, 8, 8)).astype(np.float32)
        net.forward(x)
        caches = [getattr(layer, "_cache", None) for layer in net.layers]
        assert all(c is None for c in caches)

    def test_inference_drops_tops_after_their_last_reader(self):
        """An unplanned inference forward over a chain of equal-width layers
        holds about three activations at its peak (the input, the live top
        and the one being written), not one per layer."""
        depth, width, batch = 12, 1 << 16, 4
        act_bytes = batch * width * 4
        net = Net(NetSpec("relus", (width,), tuple(
            LayerSpec("ReLU", f"r{i}") for i in range(depth)))).materialize(0)
        x = np.ones((batch, width), dtype=np.float32)
        net.forward(x)
        tracemalloc.start()
        try:
            net.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the caller's input was allocated before tracing began
        assert act_bytes + peak < 3.5 * act_bytes, peak / act_bytes


class TestWeightSharing:
    def test_copy_weights_shares_arrays(self, rng, kind):
        source = Net(SPECS[kind]()).materialize(5)
        clone = Net(SPECS[kind]())
        clone.copy_weights_from(source)
        assert clone.materialized
        for a, b in zip(clone.params(), source.params()):
            assert a.data is b.data  # shared, not copied
        x = sample(source, rng)
        np.testing.assert_array_equal(clone.forward(x), source.forward(x))

    def test_copy_weights_rejects_mismatched_nets(self):
        other = NetSpec("other", (4,), (LayerSpec("InnerProduct", "fc", {"num_output": 2}),))
        with pytest.raises(ValueError, match="cannot share"):
            Net(cnn_spec()).copy_weights_from(Net(other).materialize(0))


class TestBackwardEndToEnd:
    #: nets ending in logits: a chain, a DAG with fan-out, one with fan-in
    LOGIT_SPECS = {"chain": lambda: cnn_spec().without("Softmax"),
                   "dag": two_branch_spec, "residual": residual_spec}

    @pytest.mark.parametrize("name", sorted(LOGIT_SPECS))
    def test_end_to_end_gradcheck(self, rng, name):
        """Whole-net backward agrees with finite differences on the loss."""
        net = Net(self.LOGIT_SPECS[name]()).materialize(3)
        x = rng.normal(size=(2, *net.input_shape))
        labels = np.array([1, 2])

        net.zero_grad()
        _, dlogits = softmax_cross_entropy(net.forward(x, train=True), labels)
        dx = net.backward(dlogits)

        num_dx = numerical_gradient(
            lambda inp: softmax_cross_entropy(net.forward(inp), labels)[0], x.copy(), eps=1e-3
        )
        denom = max(1e-6, float(np.abs(num_dx).max()))
        assert float(np.abs(dx - num_dx).max()) / denom < 5e-2

    def test_summary_lists_all_layers(self, kind):
        net = Net(SPECS[kind]())
        text = net.summary()
        for name in [layer.name for layer in net.layers] + ["total"]:
            assert name in text
        assert f"{net.param_count():,d}" in text
