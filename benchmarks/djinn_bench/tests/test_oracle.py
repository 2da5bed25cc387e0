"""The correctness oracle: tolerance, argmax rule, golden self-check."""

import numpy as np

from hostenv import REPO_ROOT
from oracle import ATOL, Oracle


def _softmax_rows(rng, rows=4, classes=10):
    logits = rng.normal(size=(rows, classes)).astype(np.float32)
    e = np.exp(logits)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def test_reassociation_noise_passes_and_wrong_answers_fail():
    ref = _softmax_rows(np.random.default_rng(0))
    assert Oracle.matches(ref * np.float32(1 + 2e-5), ref, "infer")
    assert not Oracle.matches(ref[::-1].copy(), ref, "infer")
    assert not Oracle.matches(ref[:2], ref, "infer")
    assert not Oracle.matches(None, ref, "infer")


def test_argmax_must_agree_unless_the_reference_is_tied():
    ref = np.full((1, 4), 0.25, dtype=np.float32)
    ref[0, 1] += ATOL / 4  # a tie within tolerance: either winner is right
    reply = ref.copy()
    reply[0, 2] += ATOL / 2
    assert Oracle.matches(reply, ref, "infer")
    clear = np.array([[0.1, 0.6, 0.3]], dtype=np.float32)
    swapped = np.array([[0.1, 0.6, 0.6000005]], dtype=np.float32)
    assert not Oracle.matches(swapped, clear, "infer")


def test_app_answers_compare_as_json():
    assert Oracle.matches([7], [7], "app")
    assert not Oracle.matches([1], [7], "app")


def test_own_model_copy_reproduces_the_goldens_and_answers_both_frames():
    oracle = Oracle("dig", REPO_ROOT)  # raises if the goldens do not match
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 1, 32, 32)).astype(np.float32)
    assert Oracle.matches(oracle.reference(x, "infer"), oracle.net.forward(x),
                          "infer")
    raw = rng.integers(0, 256, size=(1, 28, 28), dtype=np.uint8)
    answer = oracle.reference(raw, "app")
    assert isinstance(answer, list) and len(answer) == 1
    assert 0 <= answer[0] <= 9
