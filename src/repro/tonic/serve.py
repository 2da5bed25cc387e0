"""Serving glue: raw wire payloads in, JSON-able application results out.

The ``APP_REQUEST`` frame carries a Tonic application's *raw* input —
pixel bytes, audio samples, token text — and the server runs the whole
preprocess → DNN → postprocess pipeline (see ``docs/service_protocol.md``).
This module is the seam between the wire and :class:`repro.tonic.TonicApp`:
decoding typed payloads into the raw values ``preprocess`` expects,
rendering app results as JSON, and building the default app table for a
server's registry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.protocol import KIND_TEXT, KIND_U8
from .asr import AsrApp, Transcript
from .dig import DigApp
from .face import FaceApp, Identification
from .imc import Classification, ImcApp

__all__ = ["decode_raw", "jsonable_result", "build_default_apps",
           "raw_item_shape"]


def decode_raw(message) -> Any:
    """Wire payload -> the raw value a TonicApp's ``preprocess`` expects.

    ``KIND_U8`` tensors are pixel/sample bytes, scaled to [0, 1] float32 —
    the domain every image app ingests.  This is the dispatch-slimming
    payoff: a u8 IMC image is a quarter the wire bytes of its float
    equivalent and ~16x smaller than the preprocessed mean-subtracted
    tensor.  ``KIND_TENSOR`` passes through as the float32 array,
    ``KIND_TEXT`` as the UTF-8 string (NLP apps split it into words).
    """
    if message.payload_kind == KIND_TEXT:
        return message.text
    tensor = message.tensor
    if message.payload_kind == KIND_U8:
        return tensor.astype(np.float32) * np.float32(1.0 / 255.0)
    return tensor


def jsonable_result(result: Any) -> Any:
    """Render one app answer (or a list of them) as JSON-able data."""
    if isinstance(result, Classification):
        return {
            "label": result.label,
            "index": result.index,
            "probability": result.probability,
            "top5": [[label, prob] for label, prob in result.top5],
        }
    if isinstance(result, Identification):
        return {
            "identity": result.identity,
            "index": result.index,
            "probability": result.probability,
        }
    if isinstance(result, Transcript):
        return {
            "text": result.text,
            "words": list(result.words),
            "phones": list(result.phones),
            "log_score": result.log_score,
        }
    if isinstance(result, (list, tuple)):
        return [jsonable_result(item) for item in result]
    if isinstance(result, np.integer):
        return int(result)
    if isinstance(result, np.floating):
        return float(result)
    return result


def build_default_apps(registry) -> Dict[str, object]:
    """Default app table for a registry: one TonicApp per recognized model.

    Models named after the stateless Tonic apps (``imc``, ``dig``,
    ``face``, ``asr``) get apps sized to the registered net's output
    width, so small test models work as well as the full-fidelity ones.
    The NLP taggers are *not* auto-built — their featurizer and transition
    model are trained state the server cannot derive from the net alone,
    so they are passed explicitly via the server's ``apps`` parameter.
    Only the pre/postprocess kernels of these apps are used server-side;
    the DNN stage runs through the serving executor, not ``app.backend``.
    """
    apps: Dict[str, object] = {}
    for name in registry.names():
        app = _default_app(name, registry.get(name))
        if app is not None:
            apps[name] = app
    return apps


def raw_item_shape(name: str, in_shape) -> Optional[Tuple[int, ...]]:
    """Slot shape of one *raw* payload item for in-worker preprocess.

    Only apps whose preprocess maps one fixed-shape raw item to exactly
    one DNN row qualify for the proc pool's raw dispatch (the worker
    process preprocesses inside its shm slot): the image apps, at their
    canonical raw sizes, against a net with the full-fidelity input shape.
    Text and audio payloads are ragged and stay parent-side.  Returns
    ``None`` when the model does not qualify.
    """
    in_shape = tuple(int(d) for d in in_shape)
    if name == "imc" and in_shape == (3, 227, 227):
        return (3, 227, 227)
    if name == "face" and in_shape == (3, 152, 152):
        return (3, 152, 152)
    if name == "dig" and in_shape == (1, 32, 32):
        return (1, 28, 28)
    return None


def _default_app(name: str, net) -> Optional[object]:
    width = int(np.prod(net.output_shape))
    if name == "imc":
        return ImcApp(backend=None, num_classes=width)
    if name == "dig":
        return DigApp(backend=None)
    if name == "face":
        return FaceApp(backend=None, num_identities=width)
    if name == "asr":
        try:
            return AsrApp(backend=None, num_senones=width)
        except ValueError:
            return None  # output too narrow to cover the HMM states
    return None
