#!/usr/bin/env python3
"""Quickstart: stand up a DjiNN service and run Tonic queries against it.

This is the paper's Figure 3 in ~60 lines: a DNN service holding models
in memory, and applications that preprocess raw inputs, call the service
over TCP, and postprocess the predictions.

Run:  python examples/quickstart.py
"""

from repro.core import DjinnClient, DjinnServer, ModelRegistry, RemoteBackend
from repro.models import lenet5, senna
from repro.tonic import (
    DigApp,
    PosApp,
    Vocabulary,
    WindowFeaturizer,
    digit_dataset,
    generate_corpus,
)


def main() -> None:
    # 1. Load models into the registry once; workers share them read-only.
    registry = ModelRegistry()
    registry.register_spec("dig", lenet5(), seed=0)
    registry.register_spec("pos", senna("pos"), seed=1)
    print(f"registry holds {len(registry)} models "
          f"({registry.total_param_bytes() / 1024:.0f} KB resident)")

    # 2. Start the DjiNN service on a local TCP port.
    with DjinnServer(registry) as server:
        host, port = server.address
        print(f"DjiNN service listening on {host}:{port}")

        with DjinnClient(host, port) as client:
            backend = RemoteBackend(client)
            print("models served:", client.list_models())

            # 3. Digit recognition: a Table-3-style 100-image query.
            images, labels = digit_dataset(100, seed=7)
            dig = DigApp(backend)
            predictions, timing = dig.run_timed(images)
            agreement = sum(int(p == l) for p, l in zip(predictions, labels))
            print(f"\nDIG: 100 digits in {timing.total_s * 1e3:.1f} ms "
                  f"({timing.dnn_fraction:.0%} in the DNN service); "
                  f"{agreement}/100 match labels "
                  "(untrained weights -- see digit_service.py for a trained model)")

            # 4. POS tagging: preprocessing happens app-side, as in the paper.
            sentence = generate_corpus(1, seed=3)[0]
            vocab = Vocabulary(sentence.words)
            pos = PosApp(backend, WindowFeaturizer(vocab))
            tags = pos.run(sentence)
            print("\nPOS:", " ".join(f"{w}/{t}" for w, t in zip(sentence.words, tags)))

            # 5. The service kept score: one ledger entry per request,
            #    summarized from its METRICS dump.
            print("\nservice stats:")
            for model, s in sorted(client.stats().items()):
                print(f"  {model}: {s['requests']:.0f} requests, "
                      f"{s['inputs']:.0f} inputs, p50 {s['p50_ms']:.2f} ms, "
                      f"p99 {s['p99_ms']:.2f} ms, max {s['max_ms']:.2f} ms")


if __name__ == "__main__":
    main()
