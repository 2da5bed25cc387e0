#!/usr/bin/env python3
"""Train LeNet-5 on synthetic digits, serve it through DjiNN, and measure
end-to-end accuracy and service throughput.

Reproduces the DIG task's accuracy context (paper §3.2.2: "over 98%
accuracy") on the synthetic digit renderer, then serves the trained model
for real over TCP with server-side dynamic batching.

Run:  python examples/digit_service.py
"""

import time

import numpy as np

from repro.core import BatchPolicy, DjinnClient, DjinnServer, ModelRegistry, RemoteBackend
from repro.models import lenet5
from repro.nn import Net, SgdSolver, accuracy
from repro.tonic import DigApp, digit_dataset


def pad_and_center(images: np.ndarray) -> np.ndarray:
    """28x28 [0,1] digits -> LeNet-5's 32x32 [-1,1] retina."""
    return (np.pad(images, ((0, 0), (0, 0), (2, 2), (2, 2))) - 0.5) * 2.0


def train_lenet(train_size: int = 1500, epochs: int = 4) -> Net:
    images, labels = digit_dataset(train_size, seed=0)
    net = Net(lenet5(include_softmax=False)).materialize(0)
    solver = SgdSolver(net, lr=0.05, momentum=0.9)
    eval_images, eval_labels = digit_dataset(300, seed=1)
    log = solver.fit(
        pad_and_center(images), labels, epochs=epochs, batch=32,
        eval_set=(pad_and_center(eval_images), eval_labels),
        on_epoch=lambda e, l: print(f"  epoch {e}: held-out accuracy {l.epoch_accuracy[-1]:.3f}"),
    )
    return net


def main() -> None:
    print("training LeNet-5 on rendered digits...")
    trained = train_lenet()

    # share the trained weights into a serving net (with softmax)
    serving = Net(lenet5())
    serving.copy_weights_from(trained)

    # persist the trained model; `djinn serve --load <path>=dig` serves it later
    from repro.nn import save_net
    model_path = "/tmp/lenet5_digits.npz"
    save_net(serving, model_path)
    print(f"saved trained model to {model_path}")

    registry = ModelRegistry()
    registry.register("dig", serving)

    with DjinnServer(registry, batching=BatchPolicy(max_batch=256, timeout_ms=2.0)) as server:
        host, port = server.address
        with DjinnClient(host, port) as client:
            app = DigApp(RemoteBackend(client))

            test_images, test_labels = digit_dataset(500, seed=42)
            start = time.monotonic()
            predictions = []
            for offset in range(0, 500, app.IMAGES_PER_QUERY):  # Table 3: 100/query
                predictions.extend(app.run(test_images[offset : offset + 100]))
            elapsed = time.monotonic() - start

            acc = float(np.mean(np.asarray(predictions) == test_labels))
            print(f"\nserved 500 digits in {elapsed * 1e3:.1f} ms "
                  f"({500 / elapsed:,.0f} digits/s over TCP)")
            print(f"accuracy through the service: {acc:.3f} "
                  f"(paper's bar for the MNIST task: >0.98)")
            # the server's ledger, summarized from its METRICS dump
            dig = client.stats()["dig"]
            print(f"service stats: {dig['requests']:.0f} requests, "
                  f"{dig['inputs']:.0f} digits, mean {dig['mean_ms']:.2f} ms, "
                  f"p95 {dig['p95_ms']:.2f} ms")
            assert acc > 0.97


if __name__ == "__main__":
    main()
