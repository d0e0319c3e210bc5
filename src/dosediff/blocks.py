"""Neural building blocks: windowed self-attention with cyclic shift,
cross-attention feature fusion, the bottleneck projector, and sinusoidal
time embeddings.

Feature maps are channels-last [B, H, W, C] Tensors, the token layout
of the Swin Transformer, so layer norm, the MLPs and the projections all
act on the last axis directly. A Swin block's attention branch (shift,
window tiling, multi-head attention, merge, unshift) is the single engine
op ``tensor.window_attention``; ``window_partition``, ``cyclic_shift`` and
``window_merge`` spell the same steps out as composable ops and serve as
its reference. Parameters live in a ParamStore and are grouped into small
dataclasses per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .optim import ParamStore
from .tensor import ShapeError, Tensor


# ---------------------------------------------------------------------------
# parameter groups


@dataclass
class AttentionParams:
    """Fused multi-head projection weights for windowed self-attention."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int


@dataclass
class CrossAttentionParams:
    """Query transform for the structural map, key/value for the noise map."""

    wq_a: Tensor
    wk_b: Tensor
    wv_b: Tensor


@dataclass
class SwinBlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    attn: AttentionParams
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    window: int
    shift: bool
    t_w: Optional[Tensor] = None
    t_b: Optional[Tensor] = None


@dataclass
class ProjectorParams:
    w_down: Tensor
    b_down: Tensor
    w_up: Tensor
    b_up: Tensor


# ---------------------------------------------------------------------------
# initialization


def init_attention(store: ParamStore, prefix: str, channels: int, heads: int) -> AttentionParams:
    if channels % heads:
        raise ValueError(f"{prefix}: channels {channels} not divisible by heads {heads}")
    # the heads split the channels: each has channels // heads of them
    square = (channels, channels)
    return AttentionParams(
        wq=store.normal(f"{prefix}.wq", square),
        wk=store.normal(f"{prefix}.wk", square),
        wv=store.normal(f"{prefix}.wv", square),
        wo=store.normal(f"{prefix}.wo", square),
        heads=heads,
    )


def init_swin_block(store: ParamStore, prefix: str, channels: int, window: int,
                    shift: bool, heads: int, t_dim: int) -> SwinBlockParams:
    hidden = 4 * channels   # the Swin MLP expansion
    p = SwinBlockParams(
        ln1_g=store.add(f"{prefix}.ln1.g", np.ones(channels)),
        ln1_b=store.add(f"{prefix}.ln1.b", np.zeros(channels)),
        attn=init_attention(store, f"{prefix}.attn", channels, heads),
        ln2_g=store.add(f"{prefix}.ln2.g", np.ones(channels)),
        ln2_b=store.add(f"{prefix}.ln2.b", np.zeros(channels)),
        w1=store.normal(f"{prefix}.mlp.w1", (channels, hidden)),
        b1=store.add(f"{prefix}.mlp.b1", np.zeros(hidden)),
        w2=store.normal(f"{prefix}.mlp.w2", (hidden, channels)),
        b2=store.add(f"{prefix}.mlp.b2", np.zeros(channels)),
        window=window, shift=shift,
    )
    if t_dim:
        p.t_w = store.normal(f"{prefix}.t.w", (t_dim, channels))
        p.t_b = store.add(f"{prefix}.t.b", np.zeros(channels))
    return p


def init_cross_attention(store: ParamStore, prefix: str, c_struct: int,
                         c_noise: int) -> CrossAttentionParams:
    """Queries and keys are projected to the noise map's width c_noise."""
    return CrossAttentionParams(
        wq_a=store.normal(f"{prefix}.wq_a", (c_struct, c_noise)),
        wk_b=store.normal(f"{prefix}.wk_b", (c_noise, c_noise)),
        wv_b=store.normal(f"{prefix}.wv_b", (c_noise, c_noise)),
    )


def init_projector(store: ParamStore, prefix: str, channels: int, ratio: int) -> ProjectorParams:
    if channels % ratio:
        raise ValueError(f"{prefix}: channels {channels} not divisible by ratio {ratio}")
    hidden = channels // ratio
    # up-projection starts at zero so the residual path is the identity at init
    return ProjectorParams(
        w_down=store.normal(f"{prefix}.w_down", (channels, hidden)),
        b_down=store.add(f"{prefix}.b_down", np.zeros(hidden)),
        w_up=store.add(f"{prefix}.w_up", np.zeros((hidden, channels))),
        b_up=store.add(f"{prefix}.b_up", np.zeros(channels)),
    )


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


def swin_block(x: Tensor, p: SwinBlockParams, t_emb: Optional[Tensor]) -> Tensor:
    """Windowed-attention block with optional cyclic shift.

    The attention branch is one ``window-attention`` node: with ``shift``
    set, windows are offset by half a window (toroidally, no mask).
    Pre-normalization before each sub-layer; residual connections around
    the attention and MLP branches; a time embedding t_emb [B, 1, 1, T]
    (None for none) enters as a per-channel bias after its per-block
    projection. With the residual branch outputs zeroed the block is the
    exact identity.
    """
    _map_shape(x, "swin_block")
    win, a = p.window, p.attn
    shift = win // 2 if (p.shift and win > 1) else 0
    x = x + T.window_attention(T.layer_norm(x, p.ln1_g, p.ln1_b), a.wq, a.wk, a.wv, a.wo,
                               a.heads, win, shift)

    if t_emb is not None:
        if p.t_w is None:
            raise ShapeError("swin_block: block has no time projection")
        if t_emb.data.ndim != 4 or t_emb.shape[-1] != p.t_w.shape[0]:
            raise ShapeError(f"swin_block: t_emb must be [B, 1, 1, {p.t_w.shape[0]}], "
                             f"got {t_emb.shape}")
        x = x + T.linear(t_emb, p.t_w, p.t_b)

    y = T.layer_norm(x, p.ln2_g, p.ln2_b)
    y = T.linear(T.relu(T.linear(y, p.w1, p.b1)), p.w2, p.b2)
    return x + y


def cross_attention_fuse(a: Tensor, b: Tensor, p: CrossAttentionParams,
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
    if ca != p.wq_a.shape[0] or cb != p.wk_b.shape[0]:
        raise ShapeError("cross_attention_fuse: channel dims do not match params")
    tok_a = a.reshape((bsz, hh * ww, ca))
    tok_b = b.reshape((bsz, hh * ww, cb))
    q = tok_a @ p.wq_a
    k = tok_b @ p.wk_b
    v = tok_b @ p.wv_b
    scale = 1.0 / np.sqrt(p.wq_a.shape[1])
    weights = T.softmax((q @ k.permute((0, 2, 1))) * scale, axis=-1)
    out = b + (weights @ v).reshape((bsz, hh, ww, cb))
    if return_weights:
        return out, weights
    return out


def projector_forward(f_in: Tensor, p: ProjectorParams) -> Tensor:
    """Two-MLP bottleneck with GELU, residual-added to its input.

    Applied per spatial location; output channel count equals input
    channel count, so zero up-projection weights make this the identity.
    """
    c = _map_shape(f_in, "projector")[3]
    if c != p.w_down.shape[0]:
        raise ShapeError(f"projector: {c} channels vs params for {p.w_down.shape[0]}")
    y = T.linear(T.gelu(T.linear(f_in, p.w_down, p.b_down)), p.w_up, p.b_up)
    return f_in + y


# ---------------------------------------------------------------------------
# time embedding


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal timestep embedding: sin/cos pairs at geometric frequencies.

    A batch of B timesteps gives a [B, dim] array; a scalar t is a batch of one.
    """
    if dim % 2:
        raise ValueError(f"embedding dim must be even, got {dim}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    exponents = np.arange(half, dtype=np.float64) / max(half - 1, 1)
    freqs = np.exp(-np.log(10000.0) * exponents)
    ang = t_arr[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)
