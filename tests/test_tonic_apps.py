"""Unit tests for the Tonic applications (local backends)."""

import numpy as np
import pytest

from repro.models import build_net, lenet5, senna
from repro.nn import LayerSpec, Net, NetSpec
from repro.tonic import (
    ChkApp,
    DigApp,
    FaceApp,
    ImcApp,
    LocalBackend,
    PosApp,
    TagTransitions,
    Vocabulary,
    WindowFeaturizer,
    digit_dataset,
    face_images,
    generate_corpus,
    imagenet_like_images,
)
from repro.tonic.nlp import TASK_TAGS


@pytest.fixture(scope="module")
def dig_app():
    return DigApp(LocalBackend(build_net("dig", materialize=True)))


@pytest.fixture(scope="module")
def nlp_setup():
    corpus = generate_corpus(20, seed=0)
    vocab = Vocabulary(w for s in corpus for w in s.words)
    featurizer = WindowFeaturizer(vocab)
    return corpus, featurizer


class TestLocalBackend:
    def test_requires_materialized_net(self):
        with pytest.raises(ValueError, match="materialized"):
            LocalBackend(Net(lenet5()))


class TestDigApp:
    def test_returns_one_prediction_per_image(self, dig_app):
        images, _ = digit_dataset(10, seed=1)
        preds = dig_app.run(images)
        assert len(preds) == 10
        assert all(0 <= p <= 9 for p in preds)

    def test_single_image_accepted(self, dig_app):
        images, _ = digit_dataset(1, seed=1)
        assert len(dig_app.run(images[0])) == 1

    def test_preprocess_pads_to_lenet_retina(self, dig_app):
        images, _ = digit_dataset(3, seed=2)
        batch = dig_app.preprocess(images)
        assert batch.shape == (3, 1, 32, 32)
        assert batch.min() >= -1.0 and batch.max() <= 1.0

    @staticmethod
    def _pad_reference(dig_app, raw):
        """The original formulation, kept as the oracle."""
        padded = np.pad(dig_app._images(raw), ((0, 0), (0, 0), (2, 2), (2, 2)))
        return (padded - 0.5) * 2.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_preprocess_is_byte_identical_to_np_pad(self, dig_app, dtype):
        rng = np.random.default_rng(7)
        if dtype is np.uint8:
            raws = [rng.integers(0, 256, (n, 1, 28, 28)).astype(dtype)
                    for n in (1, 3, 2)]
        else:
            raws = [rng.random((n, 1, 28, 28)).astype(dtype) for n in (1, 3, 2)]
        raws.append(raws[0][0])  # a bare (1, 28, 28) image
        for raw in raws:
            got, want = dig_app.preprocess(raw), self._pad_reference(dig_app, raw)
            assert got.dtype == want.dtype == np.float32
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        batch, counts = dig_app.preprocess_batch(raws)
        assert counts == [1, 3, 2, 1]
        assert batch.tobytes() == np.concatenate(
            [self._pad_reference(dig_app, raw) for raw in raws]).tobytes()
        empty, counts = dig_app.preprocess_batch([])
        assert empty.shape == (0, 1, 32, 32) and counts == []

    def test_answers_unchanged_by_the_pad_free_preprocess(self, dig_app):
        """The golden-seeded LeNet gives the same digits either way."""
        images, _ = digit_dataset(20, seed=4)
        outputs = dig_app.backend.infer(
            "dig", self._pad_reference(dig_app, images))
        assert dig_app.run(images) == [int(i) for i in outputs.argmax(axis=1)]

    def test_rejects_wrong_shape(self, dig_app):
        with pytest.raises(ValueError, match="28, 28"):
            dig_app.run(np.zeros((2, 1, 30, 30)))

    def test_timing_has_all_stages(self, dig_app):
        images, _ = digit_dataset(5, seed=3)
        _, timing = dig_app.run_timed(images)
        assert timing.dnn_s > 0 and timing.total_s > 0
        assert 0.0 <= timing.dnn_fraction <= 1.0


class TestImcApp:
    @pytest.fixture(scope="class")
    def app(self):
        # a tiny AlexNet-shaped stand-in keeps this test fast
        spec = NetSpec("tiny_imc", (3, 227, 227), (
            LayerSpec("Convolution", "c1", {"num_output": 4, "kernel_size": 11, "stride": 8}),
            LayerSpec("ReLU", "r"),
            LayerSpec("Pooling", "p", {"kernel_size": 4, "stride": 4}),
            LayerSpec("InnerProduct", "fc", {"num_output": 1000}),
            LayerSpec("Softmax", "prob"),
        ))
        return ImcApp(LocalBackend(Net(spec).materialize(0)))

    def test_classification_result_fields(self, app):
        images, _ = imagenet_like_images(1, seed=4)
        result = app.run(images[0])
        assert result.label.startswith("class_")
        assert 0.0 < result.probability <= 1.0
        assert len(result.top5) == 5
        # top5 sorted by probability
        probs = [p for _, p in result.top5]
        assert probs == sorted(probs, reverse=True)

    def test_rejects_batch_input(self, app):
        images, _ = imagenet_like_images(2, seed=4)
        with pytest.raises(ValueError, match="one"):
            app.run(images)

    def test_custom_labels(self):
        spec = NetSpec("t", (3, 227, 227), (
            LayerSpec("Pooling", "p", {"kernel_size": 227}),
            LayerSpec("InnerProduct", "fc", {"num_output": 2}),
            LayerSpec("Softmax", "s"),
        ))
        app = ImcApp(LocalBackend(Net(spec).materialize(0)), labels=["cat", "dog"])
        images, _ = imagenet_like_images(1, seed=1)
        assert app.run(images[0]).label in ("cat", "dog")


class TestFaceApp:
    @pytest.fixture(scope="class")
    def app(self):
        spec = NetSpec("tiny_face", (3, 152, 152), (
            LayerSpec("Pooling", "p", {"kernel_size": 8, "stride": 8}),
            LayerSpec("InnerProduct", "fc", {"num_output": 83}),
            LayerSpec("Softmax", "prob"),
        ))
        return FaceApp(LocalBackend(Net(spec).materialize(0)))

    def test_identification(self, app):
        faces, _ = face_images(1, seed=0)
        result = app.run(faces[0])
        assert result.identity.startswith("celebrity_")
        assert 0 <= result.index < 83

    def test_identity_images_are_stable_per_identity(self):
        a, la = face_images(4, num_identities=3, seed=1)
        b, lb = face_images(4, num_identities=3, seed=2)
        # same identity from different seeds shares geometry: high correlation
        for i, j in [(i, j) for i in range(4) for j in range(4) if la[i] == lb[j]]:
            corr = np.corrcoef(a[i].ravel(), b[j].ravel())[0, 1]
            assert corr > 0.5
            break


class TestNlpApps:
    def test_pos_emits_valid_tags(self, nlp_setup):
        corpus, featurizer = nlp_setup
        app = PosApp(LocalBackend(build_net("pos", materialize=True)), featurizer)
        tags = app.run(list(corpus[0].words))
        assert len(tags) == len(corpus[0].words)
        assert all(t in TASK_TAGS["pos"] for t in tags)

    def test_accepts_string_and_tagged_sentence(self, nlp_setup):
        corpus, featurizer = nlp_setup
        app = PosApp(LocalBackend(build_net("pos", materialize=True)), featurizer)
        assert len(app.run("the quick fox")) == 3
        assert len(app.run(corpus[0])) == len(corpus[0])

    def test_empty_sentence_rejected(self, nlp_setup):
        _, featurizer = nlp_setup
        app = PosApp(LocalBackend(build_net("pos", materialize=True)), featurizer)
        with pytest.raises(ValueError, match="at least one word"):
            app.run([])

    def test_chk_issues_chained_pos_request(self, nlp_setup):
        corpus, featurizer = nlp_setup
        calls = []

        class SpyBackend(LocalBackend):
            def infer(self, model, inputs):
                calls.append(model)
                return super().infer(model, inputs)

        pos_net = build_net("pos", materialize=True)
        chk_net = build_net("chk", materialize=True)

        class DualBackend:
            def infer(self, model, inputs):
                calls.append(model)
                net = pos_net if model == "pos" else chk_net
                return net.forward(inputs)

        backend = DualBackend()
        pos = PosApp(backend, featurizer)
        chk = ChkApp(backend, featurizer, pos_app=pos)
        tags = chk.run(list(corpus[0].words))
        assert calls == ["pos", "chk"]  # POS request precedes CHK (paper §3.2.3)
        assert all(t in TASK_TAGS["chk"] for t in tags)

    def test_transition_model_fitting_shifts_decisions(self, nlp_setup):
        corpus, _ = nlp_setup
        trans = TagTransitions(TASK_TAGS["pos"]).fit([s.pos for s in corpus])
        # determiners are never sentence-internal predecessors of determiners
        dt = trans.index["DT"]
        nn = trans.index["NN"]
        assert trans.log_trans[dt, nn] > trans.log_trans[dt, dt]

    def test_unknown_task_rejected(self, nlp_setup):
        _, featurizer = nlp_setup
        from repro.tonic.nlp import NlpApp
        with pytest.raises(ValueError, match="known"):
            NlpApp("srl", LocalBackend(build_net("pos", materialize=True)), featurizer)
