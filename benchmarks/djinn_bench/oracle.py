"""Correctness oracle: the benchmark's own copy of the model.

The driver never trusts the service for what a right answer is.  It builds
the model itself from the same seed the server child uses, proves that copy
against the repository's checked-in golden digests, and derives every
reference from it with an unbatched ``Net.forward`` (tensor frames) or a
local ``DigApp`` (APP frames).  Replies are kept during a measured window
and verified after it, so checking costs no measured time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import numpy as np

#: documented tolerance for BLAS reassociation across batch widths
RTOL = 1e-4
ATOL = 1e-6

#: weight seed / input seed baked into tests/golden/model_outputs.json
#: (see tests/test_models_golden.py)
GOLDEN_WEIGHT_SEED = 0
GOLDEN_INPUT_SEED = 0xD1A77


class OracleError(RuntimeError):
    """The benchmark's own model copy does not reproduce the goldens."""


class Oracle:
    def __init__(self, model: str, repo_root: Path):
        from repro.models import build_net

        self.model = model
        self.net = build_net(model, materialize=True, seed=GOLDEN_WEIGHT_SEED)
        self._check_golden(repo_root / "tests" / "golden" / "model_outputs.json")
        self._app = None

    def _check_golden(self, path: Path) -> None:
        golden = json.loads(path.read_text())[self.model]
        rng = np.random.default_rng(GOLDEN_INPUT_SEED)
        x = rng.normal(size=(1,) + tuple(self.net.input_shape)).astype(np.float32)
        flat = self.net.forward(x).reshape(-1)
        sample = np.asarray(golden["sample"])
        ok = (int(flat.argmax()) == golden["argmax"]
              and abs(float(flat.sum()) - golden["sum"]) <= RTOL * abs(golden["sum"])
              and np.allclose(flat[:len(sample)], sample, rtol=RTOL, atol=ATOL))
        if not ok:
            raise OracleError(
                f"{self.model}: the benchmark's seeded model copy does not "
                f"reproduce {path}")

    # ---------------------------------------------------------- references
    def reference(self, payload: np.ndarray, frame: str):
        """The right answer for one request payload."""
        if frame == "app":
            return self._app_reference(payload)
        return self.net.forward(payload)

    def _app_reference(self, raw_u8: np.ndarray) -> List[int]:
        from repro.core import DjinnClient
        from repro.tonic import DigApp, LocalBackend, decode_raw, jsonable_result

        if self._app is None:
            self._app = DigApp(LocalBackend(self.net))
        raw = decode_raw(DjinnClient.app_message(self.model, raw_u8))
        return jsonable_result(self._app.run(raw))

    # -------------------------------------------------------------- checks
    @staticmethod
    def matches(reply, reference, frame: str) -> bool:
        if reply is None:
            return False
        if frame == "app":
            return reply == reference
        reply = np.asarray(reply)
        if reply.shape != reference.shape:
            return False
        if not np.allclose(reply, reference, rtol=RTOL, atol=ATOL):
            return False
        # equal argmax per row — except where the reference itself has a
        # tie within tolerance, which reassociation may break either way
        rows = np.arange(len(reference))
        ref2d = reference.reshape(len(reference), -1)
        picked = ref2d[rows, reply.reshape(len(reply), -1).argmax(axis=1)]
        best = ref2d.max(axis=1)
        return bool(np.all(picked >= best - (ATOL + RTOL * np.abs(best))))
