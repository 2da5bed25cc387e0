"""DAG network tests: merge layers, DAG execution, gradients, serving."""

import numpy as np
import pytest

from repro.nn import INPUT, GraphLayerSpec, GraphSpec, LayerSpec, Net, NetSpec
from repro.nn.layers import ConcatLayer, EltwiseSumLayer, ShapeError
from repro.nn.layers.softmax import softmax_cross_entropy


def L(type_, name, bottoms, **params):
    return GraphLayerSpec(type=type_, name=name, bottoms=tuple(bottoms), params=params)


def two_branch_spec(out=4):
    """input -> (fc_a -> tanh_a | fc_b -> relu_b) -> concat -> fc_out."""
    return GraphSpec(
        name="fork",
        input_shape=(6,),
        layers=(
            L("InnerProduct", "fc_a", [INPUT], num_output=5),
            L("Tanh", "tanh_a", ["fc_a"]),
            L("InnerProduct", "fc_b", [INPUT], num_output=3),
            L("ReLU", "relu_b", ["fc_b"]),
            L("Concat", "merge", ["tanh_a", "relu_b"]),
            L("InnerProduct", "fc_out", ["merge"], num_output=out),
        ),
        output="fc_out",
    )


def chain_spec():
    """The residual net without its skip: fc1 -> tanh -> fc2 -> out."""
    return NetSpec("chain", (8,), (
        LayerSpec("InnerProduct", "fc1", {"num_output": 8}),
        LayerSpec("Tanh", "act"),
        LayerSpec("InnerProduct", "fc2", {"num_output": 8}),
        LayerSpec("InnerProduct", "out", {"num_output": 3}),
    ))


def residual_spec():
    """input -> fc1 -> tanh -> fc2 -> (+ input) -> out   (a residual add)."""
    return GraphSpec(
        name="residual",
        input_shape=(8,),
        layers=(
            L("InnerProduct", "fc1", [INPUT], num_output=8),
            L("Tanh", "act", ["fc1"]),
            L("InnerProduct", "fc2", ["act"], num_output=8),
            L("EltwiseSum", "add", ["fc2", INPUT]),
            L("InnerProduct", "out", ["add"], num_output=3),
        ),
        output="out",
    )


class TestMergeLayers:
    def test_concat_shapes_and_values(self, rng):
        layer = ConcatLayer("c")
        assert layer.setup([(3,), (5,)]) == (8,)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        np.testing.assert_array_equal(layer.forward([a, b]), np.concatenate([a, b], 1))

    def test_concat_channels_for_images(self):
        layer = ConcatLayer("c")
        assert layer.setup([(4, 7, 7), (6, 7, 7)]) == (10, 7, 7)

    def test_concat_rejects_mismatched_trailing_dims(self):
        with pytest.raises(ShapeError, match="concat"):
            ConcatLayer("c").setup([(4, 7, 7), (6, 6, 7)])

    def test_concat_backward_splits(self, rng):
        layer = ConcatLayer("c")
        layer.setup([(3,), (5,)])
        layer.forward([rng.normal(size=(2, 3)), rng.normal(size=(2, 5))], train=True)
        dout = rng.normal(size=(2, 8))
        da, db = layer.backward(dout)
        np.testing.assert_array_equal(da, dout[:, :3])
        np.testing.assert_array_equal(db, dout[:, 3:])

    def test_eltwise_sum(self, rng):
        layer = EltwiseSumLayer("e")
        assert layer.setup([(4,), (4,), (4,)]) == (4,)
        xs = [rng.normal(size=(2, 4)) for _ in range(3)]
        np.testing.assert_allclose(layer.forward(xs), sum(xs))
        grads = layer.backward(np.ones((2, 4)))
        assert len(grads) == 3

    def test_eltwise_rejects_mismatch(self):
        with pytest.raises(ShapeError, match="differ"):
            EltwiseSumLayer("e").setup([(4,), (5,)])

    def test_merge_layers_are_stateless_at_inference(self, rng):
        layer = ConcatLayer("c")
        layer.setup([(2,), (2,)])
        layer.forward([rng.normal(size=(1, 2)), rng.normal(size=(1, 2))])
        assert not hasattr(layer, "_cache") or layer._cache is None


class TestGraphSpecValidation:
    def test_valid_spec(self):
        assert two_branch_spec().output == "fc_out"

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError, match="topological"):
            GraphSpec("bad", (4,), (
                L("ReLU", "a", ["b"]),
                L("ReLU", "b", [INPUT]),
            ), output="a")

    def test_duplicate_top_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphSpec("bad", (4,), (
                L("ReLU", "a", [INPUT]), L("ReLU", "a", [INPUT]),
            ), output="a")

    def test_output_must_be_a_layer(self):
        with pytest.raises(ValueError, match="output"):
            GraphSpec("bad", (4,), (L("ReLU", "a", [INPUT]),), output="z")

    def test_reserved_input_name(self):
        with pytest.raises(ValueError, match="invalid layer name"):
            GraphSpec("bad", (4,), (L("ReLU", INPUT, [INPUT]),), output=INPUT)

    def test_single_input_layer_with_two_bottoms_rejected(self):
        with pytest.raises(ShapeError, match="one bottom"):
            Net(GraphSpec("bad", (4,), (
                L("ReLU", "a", [INPUT]),
                L("ReLU", "b", [INPUT, "a"]),
            ), output="b"))


class TestGraphForward:
    def test_two_branch_matches_manual_computation(self, rng):
        net = Net(two_branch_spec()).materialize(3)
        layers = {l.name: l for l in net.layers}
        x = rng.normal(size=(5, 6)).astype(np.float32)
        a = np.tanh(layers["fc_a"].forward(x))
        b = np.maximum(layers["fc_b"].forward(x), 0)
        manual = layers["fc_out"].forward(np.concatenate([a, b], axis=1))
        np.testing.assert_allclose(net.forward(x), manual, rtol=1e-5)

    def test_residual_add_uses_the_raw_input(self, rng):
        net = Net(residual_spec()).materialize(0)
        layers = {l.name: l for l in net.layers}
        x = rng.normal(size=(2, 8)).astype(np.float32)
        inner = layers["fc2"].forward(np.tanh(layers["fc1"].forward(x)))
        manual = layers["out"].forward(inner + x)
        np.testing.assert_allclose(net.forward(x), manual, rtol=1e-5)


class TestGraphBackward:
    def test_fanned_out_input_receives_summed_gradient(self, rng):
        """The residual skip means d(input) has two contributions: the
        gradient through the fc1 -> fc2 branch plus the one reaching add."""
        net = Net(residual_spec()).materialize(2)
        x = rng.normal(size=(1, 8))
        dout = np.ones((1, 3))
        net.forward(x, train=True)
        dx = net.backward(dout)
        reaching_add = {l.name: l for l in net.layers}["out"].backward(dout)
        # the same weights without the skip give the branch's share alone
        chain = Net(chain_spec())
        chain.copy_weights_from(net)
        chain.forward(x, train=True)
        through_branch = chain.backward(dout)
        assert np.any(reaching_add != 0.0) and np.any(through_branch != 0.0)
        np.testing.assert_allclose(dx, through_branch + reaching_add, rtol=1e-6)

    def test_graph_is_trainable(self, rng):
        """A forked net learns a separable problem with plain SGD steps."""
        net = Net(two_branch_spec(out=2)).materialize(5)
        n = 120
        x = rng.normal(size=(n, 6)).astype(np.float32)
        labels = (x[:, 0] + x[:, 1] > 0).astype(int)
        first_loss = last_loss = None
        for step in range(150):
            logits = net.forward(x, train=True)
            loss, dlogits = softmax_cross_entropy(logits, labels)
            net.zero_grad()
            net.forward(x, train=True)
            net.backward(dlogits)
            for blob in net.params():
                blob.data -= 0.1 * blob.grad
            first_loss = first_loss if first_loss is not None else loss
            last_loss = loss
        assert last_loss < first_loss * 0.5


class TestGraphServing:
    def test_graphnet_serves_through_djinn(self, rng):
        """A DAG model drops into the registry/service unchanged."""
        from repro.core import DjinnClient, DjinnServer, ModelRegistry

        net = Net(two_branch_spec()).materialize(0)
        registry = ModelRegistry()
        registry.register("fork", net)
        with DjinnServer(registry) as server:
            host, port = server.address
            with DjinnClient(host, port) as client:
                x = rng.normal(size=(3, 6)).astype(np.float32)
                remote = client.infer("fork", x)
                np.testing.assert_allclose(remote, net.forward(x), rtol=1e-5)

    def test_cost_analysis_works_on_graphs(self):
        """The gpusim cost contract extends to DAG networks for free."""
        from repro.nn import analyze

        cost = analyze(Net(two_branch_spec()), batch=4)
        assert cost.gemm_count == 3  # fc_a, fc_b, fc_out
        # concat itself is free; the three GEMMs carry the flops
        assert cost.total_flops == 4 * (2 * 5 * 6 + 5 + 2 * 3 * 6 + 3 + 2 * 4 * 8 + 4
                                        + 5 + 3)  # + tanh/relu elementwise
