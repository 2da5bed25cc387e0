#!/usr/bin/env python3
"""Serving a custom, branched architecture through DjiNN.

Paper §3.1: "Supporting more applications simply requires providing DjiNN a
pretrained neural network model."  This example exercises that claim with
an architecture *outside* Tonic Suite: a small inception-style block (three
parallel convolution towers concatenated) built as a
:class:`repro.nn.GraphSpec` DAG, trained on the synthetic digit task, and
registered with a running DjiNN service like any other model.

Run:  python examples/custom_architecture.py
"""

import numpy as np

from repro.core import DjinnClient, DjinnServer, ModelRegistry
from repro.nn import INPUT, GraphLayerSpec, GraphSpec, Net
from repro.nn.layers.softmax import softmax_cross_entropy
from repro.tonic import digit_dataset


def L(type_, name, bottoms, **params):
    return GraphLayerSpec(type=type_, name=name, bottoms=tuple(bottoms), params=params)


def inception_digit_net(include_softmax=True) -> GraphSpec:
    """Three conv towers (1x1-ish, 3x3, 5x5) -> concat -> classifier."""
    layers = [
        # tower A: cheap pointwise features
        L("Convolution", "a_conv", [INPUT], num_output=4, kernel_size=1),
        L("ReLU", "a_relu", ["a_conv"]),
        # tower B: 3x3 features
        L("Convolution", "b_conv", [INPUT], num_output=6, kernel_size=3, pad=1),
        L("ReLU", "b_relu", ["b_conv"]),
        # tower C: 5x5 features
        L("Convolution", "c_conv", [INPUT], num_output=4, kernel_size=5, pad=2),
        L("ReLU", "c_relu", ["c_conv"]),
        # merge and classify
        L("Concat", "merge", ["a_relu", "b_relu", "c_relu"]),
        L("Pooling", "pool", ["merge"], kernel_size=2, stride=2),
        L("InnerProduct", "fc", ["pool"], num_output=64),
        L("ReLU", "fc_relu", ["fc"]),
        L("InnerProduct", "logits", ["fc_relu"], num_output=10),
    ]
    output = "logits"
    if include_softmax:
        layers.append(L("Softmax", "prob", ["logits"]))
        output = "prob"
    return GraphSpec(name="inception_digits", input_shape=(1, 28, 28),
                     layers=tuple(layers), output=output)


def train(net: Net, steps: int = 120, lr: float = 0.08) -> None:
    images, labels = digit_dataset(800, seed=0)
    rng = np.random.default_rng(1)
    for step in range(steps):
        idx = rng.integers(0, len(images), size=32)
        logits = net.forward(images[idx], train=True)
        loss, dlogits = softmax_cross_entropy(logits, labels[idx])
        net.zero_grad()
        net.forward(images[idx], train=True)
        net.backward(dlogits)
        for blob in net.params():
            blob.data -= lr * blob.grad
        if step % 40 == 0:
            print(f"  step {step:3d}: loss {loss:.3f}")


def main() -> None:
    print("training a 3-tower inception-style digit net "
          f"({Net(inception_digit_net()).param_count():,d} params)...")
    trainable = Net(inception_digit_net(include_softmax=False)).materialize(0)
    train(trainable)

    serving = Net(inception_digit_net())
    # share trained weights into the softmax-capped serving graph
    serving.copy_weights_from(trainable)

    test_images, test_labels = digit_dataset(300, seed=77)
    accuracy = float(np.mean(serving.predict(test_images) == test_labels))
    print(f"held-out accuracy: {accuracy:.3f}")

    registry = ModelRegistry()
    registry.register("inception-digits", serving)
    with DjinnServer(registry) as server:
        host, port = server.address
        with DjinnClient(host, port) as client:
            print("served models:", client.list_models())
            probs = client.infer("inception-digits", test_images[:5])
            print("remote predictions:", [int(p) for p in np.argmax(probs, axis=1)],
                  "labels:", [int(l) for l in test_labels[:5]])
    assert accuracy > 0.9


if __name__ == "__main__":
    main()
