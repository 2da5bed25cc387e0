"""Unit tests for declarative network specs."""

import json

import numpy as np
import pytest

from repro.nn import (INPUT, GraphLayerSpec, GraphSpec, LayerSpec, Net, NetSpec,
                      load_net, save_net)
from repro.nn.serialize import _SPEC_KEY


def toy_spec():
    return NetSpec(
        name="toy",
        input_shape=(4,),
        layers=(
            LayerSpec("InnerProduct", "fc1", {"num_output": 8}),
            LayerSpec("ReLU", "relu1"),
            LayerSpec("InnerProduct", "fc2", {"num_output": 2}),
            LayerSpec("Softmax", "prob"),
        ),
    )


class TestValidation:
    def test_valid_spec_constructs(self):
        assert toy_spec().depth == 4

    def test_unknown_layer_type(self):
        with pytest.raises(ValueError, match="unknown type"):
            NetSpec("bad", (4,), (LayerSpec("Convolution2D", "c"),))

    def test_duplicate_layer_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetSpec("bad", (4,), (
                LayerSpec("ReLU", "a"), LayerSpec("ReLU", "a"),
            ))

    def test_empty_layers(self):
        with pytest.raises(ValueError, match="no layers"):
            NetSpec("bad", (4,), ())

    def test_bad_input_shape(self):
        with pytest.raises(ValueError, match="bad input shape"):
            NetSpec("bad", (0,), (LayerSpec("ReLU", "a"),))

    def test_empty_layer_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            NetSpec("bad", (4,), (LayerSpec("ReLU", ""),))

    @pytest.mark.parametrize("shape", [(0,), (-3,)])
    @pytest.mark.parametrize("kind", ["chain", "graph"])
    def test_non_positive_input_shape_rejected(self, kind, shape):
        with pytest.raises(ValueError, match="bad input shape"):
            if kind == "chain":
                NetSpec("bad", shape, (LayerSpec("ReLU", "a"),))
            else:
                GraphSpec("bad", shape, (GraphLayerSpec("ReLU", "a", (INPUT,)),),
                          output="a")


def chain_with_first_layer(name):
    """InnerProduct ``name`` -> ReLU -> InnerProduct over input (4,)."""
    return NetSpec("named", (4,), (
        LayerSpec("InnerProduct", name, {"num_output": 3}),
        LayerSpec("ReLU", "relu"),
        LayerSpec("InnerProduct", "out", {"num_output": 2}),
    ))


def load_renamed(path, name):
    """``load_net`` of an archive whose spec was edited so the first layer
    is called ``name`` (``save_net`` cannot write an invalid spec)."""
    save_net(Net(chain_with_first_layer("fc")).materialize(0), path)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    spec = json.loads(bytes(arrays[_SPEC_KEY]).decode("utf-8"))
    spec["layers"][0]["name"] = name
    arrays[_SPEC_KEY] = np.frombuffer(json.dumps(spec).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    return load_net(path)


@pytest.mark.parametrize("source", ["netspec", "archive"])
def test_layer_named_input_rejected(tmp_path, source):
    """``input`` names the network input in both formats; a chain layer
    taking it would overwrite the input slot of a compiled plan."""
    with pytest.raises(ValueError, match="reserved for the network input"):
        if source == "netspec":
            chain_with_first_layer(INPUT)
        else:
            load_renamed(tmp_path / "named.npz", INPUT)


class TestUtilities:
    def test_without_strips_types(self):
        spec = toy_spec().without("Softmax", "ReLU")
        assert [s.type for s in spec.layers] == ["InnerProduct", "InnerProduct"]

    def test_without_preserves_name_and_input(self):
        spec = toy_spec().without("Softmax")
        assert spec.name == "toy" and spec.input_shape == (4,)

    def test_serialization_roundtrip(self):
        spec = toy_spec()
        restored = NetSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_build_layers_instantiates_in_order(self):
        layers = toy_spec().build_layers()
        assert [l.type_name for l in layers] == ["InnerProduct", "ReLU", "InnerProduct", "Softmax"]
        assert layers[0].num_output == 8

    def test_input_shape_normalized(self):
        import numpy as np
        spec = NetSpec("n", (np.int64(4),), (LayerSpec("ReLU", "a"),))
        assert spec.input_shape == (4,)
        assert type(spec.input_shape[0]) is int
