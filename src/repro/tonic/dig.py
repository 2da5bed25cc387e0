"""DIG — Digit Recognition (LeNet-5).

Paper Table 3: a DIG query carries **100 images** and returns 100
classifications.  Preprocessing pads the 28x28 digits to LeNet-5's 32x32
retina and normalizes, as the original MNIST pipeline does.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .app import DnnBackend, TonicApp

__all__ = ["DigApp"]


class DigApp(TonicApp):
    """Digit recognition over batches of 1x28x28 float images in [0, 1]."""

    RAW_SHAPE = (1, 28, 28)
    IMAGES_PER_QUERY = 100  # Table 3

    def __init__(self, backend: DnnBackend):
        super().__init__("dig", backend)

    def _images(self, raw: np.ndarray) -> np.ndarray:
        images = np.asarray(raw, dtype=np.float32)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4 or images.shape[1:] != self.RAW_SHAPE:
            raise ValueError(
                f"DIG expects (n, 1, 28, 28) images, got {np.asarray(raw).shape}"
            )
        return images

    @staticmethod
    def _retina(blocks, count: int) -> np.ndarray:
        """Pad to LeNet-5's 32x32 retina and center to [-1, 1] for the tanh
        net: ``(np.pad(x, 2) - 0.5) * 2`` without ``np.pad`` — the border
        is ``(0 - 0.5) * 2 = -1`` exactly, so the canvas starts there and
        only the interior is computed."""
        out = np.full((count, 1, 32, 32), -1.0, dtype=np.float32)
        offset = 0
        for images in blocks:
            inner = out[offset:offset + len(images), :, 2:30, 2:30]
            np.subtract(images, 0.5, out=inner)
            inner *= 2.0
            offset += len(images)
        return out

    def preprocess(self, raw: np.ndarray) -> np.ndarray:
        images = self._images(raw)
        return self._retina((images,), len(images))

    def preprocess_batch(self, raws):
        # all queries' images land in one canvas: one fill, one scale pass each
        blocks = [self._images(raw) for raw in raws]
        counts = [len(b) for b in blocks]
        return self._retina(blocks, sum(counts)), counts

    def postprocess(self, outputs: np.ndarray, raw) -> List[int]:
        return [int(i) for i in np.argmax(outputs, axis=1)]

    def postprocess_batch(self, outputs, raws, counts) -> List[List[int]]:
        # one argmax over the whole block, split back by per-query counts
        best = np.argmax(outputs, axis=1)
        results, offset = [], 0
        for count in counts:
            results.append([int(i) for i in best[offset:offset + count]])
            offset += count
        return results
