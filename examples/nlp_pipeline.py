#!/usr/bin/env python3
"""The three NLP services — POS, CHK, NER — trained and served together.

Demonstrates the paper's §3.2.3 structure end to end: all three SENNA
window networks live in one DjiNN registry; CHK first issues a POS request
for its sentence and feeds the predicted tags into its own features before
making its own DNN request (so one CHK query = two service round trips).

Run:  python examples/nlp_pipeline.py
"""

from repro.core import DjinnClient, DjinnServer, ModelRegistry, RemoteBackend
from repro.models import senna
from repro.nn import Net, SgdSolver, accuracy
from repro.tonic import TagTransitions, Vocabulary, WindowFeaturizer, generate_corpus
from repro.tonic.nlp import ChkApp, NerApp, PosApp, TASK_TAGS, tagging_training_set


def train_taggers(corpus, featurizer):
    """Train all three window networks; return serving nets + transitions."""
    nets, transitions = {}, {}
    gold = {"pos": lambda s: s.pos, "chk": lambda s: s.chunks, "ner": lambda s: s.entities}
    for task in ("pos", "chk", "ner"):
        net = Net(senna(task, include_softmax=False)).materialize(0)
        x, y = tagging_training_set(task, corpus, featurizer)
        SgdSolver(net, lr=0.05, momentum=0.9).fit(x, y, epochs=5, batch=32)
        print(f"  {task}: trained on {len(x):,d} windows, "
              f"train accuracy {accuracy(net, x, y):.3f}")
        serving = Net(senna(task))
        serving.copy_weights_from(net)
        nets[task] = serving
        transitions[task] = TagTransitions(TASK_TAGS[task]).fit(
            [gold[task](s) for s in corpus]
        )
    return nets, transitions


def main() -> None:
    corpus = generate_corpus(400, seed=0)
    held_out = generate_corpus(50, seed=1000)
    vocab = Vocabulary(w for s in corpus for w in s.words)
    featurizer = WindowFeaturizer(vocab)

    print("training the three SENNA taggers...")
    nets, transitions = train_taggers(corpus, featurizer)

    registry = ModelRegistry()
    for task, net in nets.items():
        registry.register(task, net)

    with DjinnServer(registry) as server:
        host, port = server.address
        with DjinnClient(host, port) as client:
            backend = RemoteBackend(client)
            pos = PosApp(backend, featurizer, transitions["pos"])
            ner = NerApp(backend, featurizer, transitions["ner"])
            chk = ChkApp(backend, featurizer, pos_app=pos, transitions=transitions["chk"])

            sentence = held_out[0]
            print("\nsample sentence:", " ".join(sentence.words))
            print("  POS:", " ".join(pos.run(sentence)))
            print("  CHK:", " ".join(chk.run(sentence)), "(after a chained POS request)")
            print("  NER:", " ".join(ner.run(sentence)))

            scores = {"pos": [0, 0], "chk": [0, 0], "ner": [0, 0]}
            gold = {"pos": lambda s: s.pos, "chk": lambda s: s.chunks,
                    "ner": lambda s: s.entities}
            for s in held_out:
                for task, app in (("pos", pos), ("chk", chk), ("ner", ner)):
                    tags = app.run(s)
                    scores[task][0] += sum(t == g for t, g in zip(tags, gold[task](s)))
                    scores[task][1] += len(s)
            print("\nheld-out tagging accuracy (paper's bar: >89%):")
            for task, (hit, total) in scores.items():
                print(f"  {task}: {hit / total:.3f}")
                assert hit / total > 0.89

            stats = client.stats()  # the server's ledger, from METRICS
            print(f"\nservice requests: pos={stats['pos']['requests']:.0f} "
                  f"chk={stats['chk']['requests']:.0f} ner={stats['ner']['requests']:.0f}")
            print("(pos count exceeds chk's own queries: CHK chains POS, paper §3.2.3)")


if __name__ == "__main__":
    main()
