"""Model save/load round-trip tests."""

import numpy as np
import pytest

from repro.models import lenet5, senna
from repro.nn import Net, load_net, save_net


class TestRoundTrip:
    def test_forward_identical_after_reload(self, tmp_path, rng):
        net = Net(senna("pos")).materialize(3)
        path = tmp_path / "pos.npz"
        save_net(net, path)
        restored = load_net(path)
        x = rng.normal(size=(4, 300)).astype(np.float32)
        np.testing.assert_array_equal(restored.forward(x), net.forward(x))

    def test_spec_preserved(self, tmp_path):
        net = Net(lenet5()).materialize(0)
        path = tmp_path / "dig.npz"
        save_net(net, path)
        restored = load_net(path)
        assert restored.spec == net.spec
        assert restored.param_count() == net.param_count()

    def test_reloaded_net_is_trainable(self, tmp_path, rng):
        """Weights come back with fresh gradients — training can resume."""
        from repro.nn import SgdSolver

        net = Net(senna("pos", include_softmax=False)).materialize(1)
        path = tmp_path / "t.npz"
        save_net(net, path)
        restored = load_net(path)
        solver = SgdSolver(restored, lr=0.01)
        loss = solver.step(rng.normal(size=(8, 300)).astype(np.float32),
                           rng.integers(0, 45, size=8))
        assert np.isfinite(loss)

    def test_reloaded_net_registers_in_djinn(self, tmp_path, rng):
        from repro.core import ModelRegistry

        net = Net(lenet5()).materialize(0)
        path = tmp_path / "dig.npz"
        save_net(net, path)
        registry = ModelRegistry()
        registry.register("dig", load_net(path))
        out = registry.get("dig").forward(rng.normal(size=(1, 1, 32, 32)))
        assert out.shape == (1, 10)


class TestGraphRoundTrip:
    def _fork(self):
        from repro.nn import INPUT, GraphLayerSpec, GraphSpec

        spec = GraphSpec("fork", (6,), (
            GraphLayerSpec("InnerProduct", "a", (INPUT,), {"num_output": 4}),
            GraphLayerSpec("InnerProduct", "b", (INPUT,), {"num_output": 3}),
            GraphLayerSpec("Concat", "m", ("a", "b")),
            GraphLayerSpec("InnerProduct", "out", ("m",), {"num_output": 2}),
        ), output="out")
        return Net(spec).materialize(9)

    def test_graphnet_roundtrips(self, tmp_path, rng):
        from repro.nn import GraphSpec

        net = self._fork()
        path = tmp_path / "fork.npz"
        save_net(net, path)
        restored = load_net(path)
        assert isinstance(restored.spec, GraphSpec)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        np.testing.assert_array_equal(restored.forward(x), net.forward(x))

    def test_graph_spec_survives(self, tmp_path):
        net = self._fork()
        path = tmp_path / "fork.npz"
        save_net(net, path)
        restored = load_net(path)
        assert restored.spec == net.spec


class TestErrors:
    def test_unmaterialized_net_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no weights"):
            save_net(Net(lenet5()), tmp_path / "x.npz")

    def test_non_model_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro.nn model"):
            load_net(path)

    def test_blob_count_mismatch_rejected(self, tmp_path):
        net = Net(senna("pos")).materialize(0)
        path = tmp_path / "pos.npz"
        save_net(net, path)
        # tamper: drop one param array
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        del arrays["param_0003"]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="blobs"):
            load_net(path)
