"""Model serialization: save/load a net's spec + weights as a single file.

The original DjiNN release shipped pre-trained Caffe models that the
service loaded at startup; this is the equivalent for ``repro.nn`` nets —
an ``.npz`` archive holding the JSON net spec plus every parameter blob,
so trained models (e.g. the examples' LeNet-5 or the taggers) can be
persisted and served later without retraining.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .netspec import GraphSpec, NetSpec
from .network import Net

__all__ = ["save_net", "load_net"]

_SPEC_KEY = "__netspec_json__"


def save_net(net, path: Union[str, "os.PathLike"]) -> None:  # noqa: F821
    """Write a materialized net (spec + weights) to an ``.npz`` archive.

    Works for chain and DAG nets alike.
    """
    if not net.materialized:
        raise ValueError(f"net {net.name!r} has no weights to save")
    arrays = {_SPEC_KEY: np.frombuffer(
        json.dumps(net.spec.to_dict()).encode("utf-8"), dtype=np.uint8
    )}
    for index, blob in enumerate(net.params()):
        arrays[f"param_{index:04d}"] = blob.require_data()
    np.savez_compressed(path, **arrays)


def load_net(path: Union[str, "os.PathLike"]):  # noqa: F821
    """Rebuild a net (spec + weights) from :func:`save_net`'s archive.

    The archive's spec is a :class:`NetSpec` or a :class:`GraphSpec`,
    according to what was saved; either builds a :class:`Net`.
    """
    with np.load(path) as archive:
        if _SPEC_KEY not in archive:
            raise ValueError(f"{path}: not a repro.nn model archive")
        spec_dict = json.loads(bytes(archive[_SPEC_KEY]).decode("utf-8"))
        spec_cls = GraphSpec if spec_dict.get("kind") == "graph" else NetSpec
        net = Net(spec_cls.from_dict(spec_dict))
        params = net.params()
        keys = sorted(k for k in archive.files if k.startswith("param_"))
        if len(keys) != len(params):
            raise ValueError(
                f"{path}: archive has {len(keys)} blobs, net expects {len(params)}"
            )
        for blob, key in zip(params, keys):
            data = archive[key]
            if data.shape != blob.shape:
                raise ValueError(
                    f"{path}: blob {blob.name} shape {blob.shape} != stored {data.shape}"
                )
            blob.data = np.ascontiguousarray(data, dtype=np.float32)
            blob.grad = np.zeros(blob.shape, dtype=np.float32)
    net._materialized = True
    return net
