"""Neural building blocks: the window bookkeeping of shifted-window
attention, cross-attention feature fusion and sinusoidal time
embeddings.

Feature maps are channels-last [B, H, W, C] Tensors, the token layout
of the Swin Transformer, so layer norm, the MLPs and the projections all
act on the last axis directly. A whole Swin block is the single engine
op ``tensor.swin_block``, which ``dosediff.networks`` calls directly; its
attention branch (shift, window tiling, multi-head attention, merge,
unshift) is ``tensor.window_attention``'s kernel. ``window_partition``,
``cyclic_shift`` and ``window_merge`` spell those steps out as
composable ops and serve as its reference. The bottleneck projector
is composed of engine ops inside its ``dosediff.networks`` closure.
``cross_attention_fuse`` takes its parameters as explicit tensors, the
way the engine ops do; ``dosediff.networks`` draws them into the
ParamStore and closes over them, one builder per unit.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


# ---------------------------------------------------------------------------
# window bookkeeping


def _map_shape(x: Tensor, fn: str) -> tuple:
    if x.data.ndim != 4:
        raise ShapeError(f"{fn}: expected a [B, H, W, C] feature map, got {x.shape}")
    return x.shape


def window_partition(x: Tensor, window: int) -> Tensor:
    """Tile a feature map into non-overlapping window x window patches.

    [B, H, W, C] -> [B*(H/w)*(W/w), w, w, C]. Lossless: window_merge
    inverts it exactly.
    """
    b, h, w, c = _map_shape(x, "window_partition")
    if h % window or w % window:
        raise ShapeError(f"window {window} does not divide map {h}x{w}")
    nh, nw = h // window, w // window
    t = x.reshape((b, nh, window, nw, window, c)).permute((0, 1, 3, 2, 4, 5))
    return t.reshape((b * nh * nw, window, window, c))


def window_merge(windows: Tensor, h: int, w: int) -> Tensor:
    """Inverse of window_partition back to [B, h, w, C]."""
    n, win, win2, c = _map_shape(windows, "window_merge")
    if win != win2:
        raise ShapeError(f"windows must be square, got {windows.shape}")
    nh, nw = h // win, w // win
    if nh * nw == 0 or n % (nh * nw):
        raise ShapeError(f"cannot merge {n} windows of size {win} into {h}x{w}")
    b = n // (nh * nw)
    t = windows.reshape((b, nh, nw, win, win, c)).permute((0, 1, 3, 2, 4, 5))
    return t.reshape((b, h, w, c))


def cyclic_shift(x: Tensor, dy: int, dx: int) -> Tensor:
    """Toroidal roll of the two spatial axes of a [B, H, W, C] map."""
    _map_shape(x, "cyclic_shift")
    return T.roll(x, (dy, dx), (1, 2))


# ---------------------------------------------------------------------------
# attention


def cross_attention_fuse(a: Tensor, b: Tensor, wq_a: Tensor, wk_b: Tensor, wv_b: Tensor,
                         return_weights: bool = False):
    """Fuse a structural map into a noise map via cross-attention.

    Queries come from the structural map ``a``, keys and values from the
    noise map ``b``; the attention output is residual-added to ``b``.
    """
    bsz, hh, ww, ca = _map_shape(a, "cross_attention_fuse")
    cb = _map_shape(b, "cross_attention_fuse")[3]
    if a.shape[:3] != b.shape[:3]:
        raise ShapeError(f"cross_attention_fuse: spatial/batch mismatch "
                         f"{a.shape} vs {b.shape}")
    if ca != wq_a.shape[0] or cb != wk_b.shape[0]:
        raise ShapeError("cross_attention_fuse: channel dims do not match params")
    tok_a = a.reshape((bsz, hh * ww, ca))
    tok_b = b.reshape((bsz, hh * ww, cb))
    q = tok_a @ wq_a
    k = tok_b @ wk_b
    v = tok_b @ wv_b
    scale = 1.0 / np.sqrt(wq_a.shape[1])
    weights = T.softmax((q @ k.permute((0, 2, 1))) * scale, axis=-1)
    out = b + (weights @ v).reshape((bsz, hh, ww, cb))
    if return_weights:
        return out, weights
    return out


# ---------------------------------------------------------------------------
# time embedding


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal timestep embedding: sin/cos pairs at geometric frequencies.

    A batch of B timesteps gives a [B, dim] array; a scalar t is a batch of one.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    exponents = np.arange(half, dtype=np.float64) / max(half - 1, 1)
    freqs = np.exp(-np.log(10000.0) * exponents)
    ang = t_arr[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
