"""Dependency-free binary image renders with bit-exact output.

Grayscale dose maps go to PGM (P5): values are clipped to
[0, DOSE_MAX_SCALE] and linearly mapped to 0..255 with round-half-even.

Signed difference maps go to PPM (P6) pseudo-color: zero is white,
positive saturates to red at +DIFF_SCALE, negative to blue at -DIFF_SCALE, via
    x = clip(diff / DIFF_SCALE, -1, 1)
    r = 255 * (1 - max(-x, 0)), g = 255 * (1 - |x|), b = 255 * (1 - max(x, 0)).
"""

from __future__ import annotations

import numpy as np

from .atomic import write_atomic
from .phantom import DOSE_MAX_SCALE

DIFF_SCALE = 0.25  # prescription units at full color saturation


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.rint(255.0 * np.clip(x, 0.0, 1.0)).astype(np.uint8)


def write_pgm(path, img: np.ndarray) -> None:
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"PGM needs a 2-D image, got shape {a.shape}")
    pix = _quantize(a / DOSE_MAX_SCALE)
    h, w = pix.shape
    write_atomic(path, [f"P5\n{w} {h}\n255\n".encode("ascii"), pix.tobytes()])


def write_ppm_diff(path, diff: np.ndarray) -> None:
    d = np.asarray(diff, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError(f"PPM needs a 2-D map, got shape {d.shape}")
    x = np.clip(d / DIFF_SCALE, -1.0, 1.0)
    r = _quantize(1.0 - np.maximum(-x, 0.0))
    g = _quantize(1.0 - np.abs(x))
    b = _quantize(1.0 - np.maximum(x, 0.0))
    h, w = d.shape
    rgb = np.stack([r, g, b], axis=-1)
    write_atomic(path, [f"P6\n{w} {h}\n255\n".encode("ascii"), rgb.tobytes()])
