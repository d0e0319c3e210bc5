"""The two network branches: an anatomy structure encoder and the
denoising network, with configurable per-stage conditioning fusion.

Both branches share one layout: a 3x3 stride-1 stem, then a stack of
downsampling stages. Stage 1 uses convolutional residual blocks (three
blocks plus one downsampling conv with a 1x1 residual shortcut); deeper
stages use three windowed-attention blocks before the same downsampling
unit. The denoiser adds two middle attention blocks at the bottleneck
and a mirrored decoder whose downsampling units are replaced by
nearest-neighbor upsampling plus a 3x3 conv, with skip connections from
the encoder.

Conditioning: at each encoder stage the structural feature map of
matching resolution is fused in, either by element-wise addition or by
cross-attention (queries from structure, keys/values from the noise
branch), optionally followed by a bottleneck projector. The
"concatenate" strategy instead stacks the anatomy channels onto the
noisy dose at the input and drops the structure encoder entirely.

Each unit (stride-1 conv, conv block, Swin block, cross-attention
fuser, projector, encoder stage, decoder stage, head) has one builder.
It adds the unit's parameters to the ParamStore, in the order that
fixes every initial draw, and returns the unit's forward as a closure
over them. A conv, the projector or the head maps ``x``, a block ``(h,
t_feat)``, the fuser ``(f, h)``. Each closure hands its engine ops or
the fuser explicit tensors, so a fused op changes one call: the Swin
block closure calls ``tensor.swin_block`` itself, and the projector is
``h + linear(gelu(linear(h)))`` spelled in engine ops. An
encoder stage ``(h, t_feat, f)`` runs its blocks, the stride-2 conv
plus its 1x1 shortcut, then fuses ``f`` (add or cross-attention, then
the projector); ``f`` is None where nothing is fused, and t_feat is
None in the structure encoder. Both branches run their stem and stages
through one loop, ``_encode``. Its maps are the denoiser's skip stack:
a decoder stage ``(h, skips, t_feat)`` pops its skip as it merges it,
so no skip outlives its use. The closures call ``T.*`` and the fuser
through module globals at call time, so code that rebinds those names
(a tracer, a test) sees every call.

Feature maps inside both branches are channels-last [B, H, W, C]. The
model's inputs and outputs keep the NCHW layout of the data: x_t and
eps_hat are [B, 1, H, W] and the condition is [B, 2+O, H, W]. The
condition is transposed once, outside the graph, and x_t and the head
output are single-channel, so each crosses the boundary by a reshape.

ModelConfig and FusionStrategy, with their rules, live in dosediff.config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import tensor as T
from .blocks import cross_attention_fuse, time_embedding
from .config import ModelConfig
from .optim import ParamStore
from .tensor import ShapeError, Tensor


@dataclass
class ConditionStack:
    """Raw condition tensor plus the per-stage structural feature maps."""

    y: np.ndarray                       # [B, 2+O, H, W]
    features: Optional[List[Tensor]]    # f_1..f_S as [B, H, W, C], or None (concatenate mode)


# ---------------------------------------------------------------------------
# unit builders: each adds its parameters and returns its forward


BLOCKS_PER_STAGE = 3


def _conv_weight(store, name, shape) -> Tensor:
    # He-style fan-in scaling keeps conv outputs O(1) so the layer norms
    # that follow stay well conditioned at init
    fan_in = int(np.prod(shape[1:]))
    return store.normal(name, shape, std=float(np.sqrt(2.0 / fan_in)))


def _conv(store, prefix, c_out, c_in, k):
    """Stride 1, "same" padding for the odd kernel."""
    w = _conv_weight(store, f"{prefix}.w", (c_out, c_in, k, k))
    b = store.add(f"{prefix}.b", np.zeros(c_out))
    return lambda x: T.conv2d(x, w, b, 1, k // 2)


def _conv_block(store, prefix, channels, t_dim):
    ln_g = store.add(f"{prefix}.ln.g", np.ones(channels))
    ln_b = store.add(f"{prefix}.ln.b", np.zeros(channels))
    w = _conv_weight(store, f"{prefix}.conv.w", (channels, channels, 3, 3))
    b = store.add(f"{prefix}.conv.b", np.zeros(channels))
    if not t_dim:
        return lambda h, t_feat: T.conv_block(h, ln_g, ln_b, w, b, None)
    t_w = store.normal(f"{prefix}.t.w", (t_dim, channels))
    t_b = store.add(f"{prefix}.t.b", np.zeros(channels))
    return lambda h, t_feat: T.conv_block(h, ln_g, ln_b, w, b, T.linear(t_feat, t_w, t_b))


def _swin_block(store, prefix, channels, window, shift, heads, t_dim):
    """The heads split the channels; a shifted block rolls its windows by
    half a window."""
    ln1_g = store.add(f"{prefix}.ln1.g", np.ones(channels))
    ln1_b = store.add(f"{prefix}.ln1.b", np.zeros(channels))
    attn = [store.normal(f"{prefix}.attn.{n}", (channels, channels))
            for n in ("wq", "wk", "wv", "wo")]
    ln2_g = store.add(f"{prefix}.ln2.g", np.ones(channels))
    ln2_b = store.add(f"{prefix}.ln2.b", np.zeros(channels))
    hidden = 4 * channels   # the Swin MLP expansion
    w1 = store.normal(f"{prefix}.mlp.w1", (channels, hidden))
    b1 = store.add(f"{prefix}.mlp.b1", np.zeros(hidden))
    w2 = store.normal(f"{prefix}.mlp.w2", (hidden, channels))
    b2 = store.add(f"{prefix}.mlp.b2", np.zeros(channels))
    pre = (ln1_g, ln1_b, *attn)
    post = (ln2_g, ln2_b, w1, b1, w2, b2, heads, window,
            window // 2 if shift and window > 1 else 0)
    if not t_dim:
        return lambda h, t_feat: T.swin_block(h, *pre, None, *post)
    t_w = store.normal(f"{prefix}.t.w", (t_dim, channels))
    t_b = store.add(f"{prefix}.t.b", np.zeros(channels))
    return lambda h, t_feat: T.swin_block(h, *pre, T.linear(t_feat, t_w, t_b), *post)


def _cross_attention(store, prefix, c_struct, c_noise):
    """``(f, h)``: queries from ``f``, keys and values from ``h``, at h's width."""
    wq_a = store.normal(f"{prefix}.wq_a", (c_struct, c_noise))
    wk_b = store.normal(f"{prefix}.wk_b", (c_noise, c_noise))
    wv_b = store.normal(f"{prefix}.wv_b", (c_noise, c_noise))
    return lambda f, h: cross_attention_fuse(f, h, wq_a, wk_b, wv_b)


def _projector(store, prefix, channels, ratio):
    """Per-location two-layer GELU bottleneck, residual-added to ``h``."""
    hidden = channels // ratio
    w_down = store.normal(f"{prefix}.w_down", (channels, hidden))
    b_down = store.add(f"{prefix}.b_down", np.zeros(hidden))
    # up-projection starts at zero so the residual path is the identity at init
    w_up = store.add(f"{prefix}.w_up", np.zeros((hidden, channels)))
    b_up = store.add(f"{prefix}.b_up", np.zeros(channels))
    return lambda h: h + T.linear(T.gelu(T.linear(h, w_down, b_down)), w_up, b_up)


def _blocks(store, cfg: ModelConfig, prefix, count, channels, side, t_dim) -> list:
    """``count`` residual blocks on a side x side map: conv blocks at the
    input resolution, Swin blocks below it, every odd one shifted."""
    if side == cfg.image_size:
        return [_conv_block(store, f"{prefix}.b{j}", channels, t_dim) for j in range(count)]
    return [_swin_block(store, f"{prefix}.b{j}", channels, cfg.window_for(side), j % 2 == 1,
                        cfg.heads, t_dim) for j in range(count)]


def _encoder_stage(store, cfg: ModelConfig, prefix, i, t_dim, fusion: Optional[str]):
    """Encoder stage ``i`` (1-based) named ``prefix.s<i>``; ``fusion`` is
    "add", "attn" or None (the stage fuses nothing)."""
    c_in, c_out = cfg.stage_channels()[i - 1:i + 1]
    blocks = _blocks(store, cfg, f"{prefix}.s{i}", BLOCKS_PER_STAGE, c_in,
                     cfg.image_size >> (i - 1), t_dim)
    w_main = _conv_weight(store, f"{prefix}.s{i}.down.main.w", (c_out, c_in, 3, 3))
    b_main = store.add(f"{prefix}.s{i}.down.main.b", np.zeros(c_out))
    w_skip = _conv_weight(store, f"{prefix}.s{i}.down.skip.w", (c_out, c_in, 1, 1))
    fuse = proj = None
    if fusion == "attn":
        fuse = _cross_attention(store, f"dn.fuse.s{i}", c_out, c_out)
    if fusion and cfg.use_projector:
        proj = _projector(store, f"dn.proj.s{i}", c_out, cfg.projector_ratio)

    def stage(h, t_feat, f):
        for block in blocks:
            h = block(h, t_feat)
        # stride-2 conv with a 1x1 stride-2 residual shortcut
        h = T.conv2d(h, w_main, b_main, 2, 1) + T.conv2d(h, w_skip, None, 2, 0)
        if f is None:
            return h
        h = h + f if fuse is None else fuse(f, h)
        return h if proj is None else proj(h)
    return stage


def _decoder_stage(store, cfg: ModelConfig, i, t_dim):
    """Decoder stage ``i``: upsample the deeper map, merge the skip popped
    from ``skips``, run the blocks at the resolution of encoder stage ``i``."""
    prefix = f"dn.dec.s{i}"
    c_out, c_in = cfg.stage_channels()[i - 1:i + 1]
    up = _conv(store, f"{prefix}.up", c_out, c_in, 3)
    merge = _conv(store, f"{prefix}.merge", c_out, 2 * c_out, 1)
    blocks = _blocks(store, cfg, prefix, BLOCKS_PER_STAGE, c_out, cfg.image_size >> (i - 1), t_dim)

    def stage(h, skips, t_feat):
        h = merge(T.concat([up(T.upsample2(h)), skips.pop()], axis=-1))
        for block in blocks:
            h = block(h, t_feat)
        return h
    return stage


def _head(store, channels):
    # near-zero init keeps eps_hat small at the start while still letting
    # gradients reach every upstream group in one step
    w = store.normal("dn.head.w", (1, channels, 3, 3), std=1e-3)
    b = store.add("dn.head.b", np.zeros(1))
    return lambda h: T.conv2d(h, w, b, 1, 1)


def _encode(stem, stages, x: Tensor, t_feat, features) -> List[Tensor]:
    """The stem's output and every stage's: [h_0, h_1, ..., h_S]. Stage i
    fuses ``features[i]``; ``features`` is None when no stage fuses."""
    maps = [stem(x)]
    for i, stage in enumerate(stages):
        maps.append(stage(maps[-1], t_feat, None if features is None else features[i]))
    return maps


class DoseModel:
    """Structure encoder + denoising network over one ParamStore."""

    def __init__(self, cfg: ModelConfig, seed: int):
        """A fresh model: every parameter is drawn from ``seed``."""
        self._build(cfg, ParamStore(np.random.default_rng(seed)))

    @classmethod
    def from_source(cls, cfg: ModelConfig, source) -> "DoseModel":
        """The model of ``cfg`` with every parameter ``source(name, shape)``
        (see ParamStore); nothing is drawn."""
        model = cls.__new__(cls)
        model._build(cfg, ParamStore.from_source(source))
        return model

    def _build(self, cfg: ModelConfig, store: ParamStore) -> None:
        cfg.validate()
        self.cfg = cfg
        self.store = store
        kinds = cfg.fusion.stage_kinds(cfg.num_stages)
        self.concat_mode = kinds is None
        stages = range(1, cfg.num_stages + 1)
        widths = cfg.stage_channels()          # [C, C*m1, ..., C*mS]
        t_dim = cfg.time_dim_effective

        # shared time-embedding trunk (two-layer MLP on the sinusoidal code)
        self.time_w1 = store.normal("time.w1", (t_dim, t_dim))
        self.time_b1 = store.add("time.b1", np.zeros(t_dim))
        self.time_w2 = store.normal("time.w2", (t_dim, t_dim))
        self.time_b2 = store.add("time.b2", np.zeros(t_dim))

        # structure encoder (absent in concatenate mode)
        if not self.concat_mode:
            self.senc_stem = _conv(store, "senc.stem", widths[0], cfg.cond_channels, 3)
            self.senc_stages = [_encoder_stage(store, cfg, "senc", i, t_dim=0, fusion=None)
                                for i in stages]

        in_ch = 1 + (cfg.cond_channels if self.concat_mode else 0)
        self.dn_stem = _conv(store, "dn.stem", widths[0], in_ch, 3)
        self.dn_stages = [_encoder_stage(store, cfg, "dn.enc", i, t_dim,
                                         None if self.concat_mode else kinds[i - 1])
                          for i in stages]
        self.mid = _blocks(store, cfg, "dn.mid", 2, widths[-1],
                           cfg.image_size >> cfg.num_stages, t_dim)
        self.dec_stages = [_decoder_stage(store, cfg, i, t_dim) for i in reversed(stages)]
        self.head = _head(store, widths[0])

    # -- forward -----------------------------------------------------------

    def _time_features(self, t) -> Tensor:
        """[B, 1, 1, T] time features; they broadcast over a map's H and W."""
        emb = time_embedding(t, self.cfg.time_dim_effective)
        h = T.gelu(T.linear(Tensor(emb[:, None, None, :]), self.time_w1, self.time_b1))
        return T.linear(h, self.time_w2, self.time_b2)

    def encode_structure(self, y: np.ndarray) -> ConditionStack:
        """Extract the per-stage anatomical feature maps f_1..f_S from y."""
        cfg = self.cfg
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 4 or y.shape[1] != cfg.cond_channels:
            raise ShapeError(f"condition must be [B, {cfg.cond_channels}, H, W] "
                             f"(CT, PTV, {cfg.oar_count} OARs), got {y.shape}")
        if self.concat_mode:
            return ConditionStack(y=y, features=None)
        maps = _encode(self.senc_stem, self.senc_stages, Tensor(y.transpose(0, 2, 3, 1)),
                       None, None)
        return ConditionStack(y=y, features=maps[1:])

    def predict_noise(self, x_t, t, cond) -> Tensor:
        """Denoiser forward pass: eps_hat of the same shape as x_t."""
        if not isinstance(cond, ConditionStack):
            cond = self.encode_structure(cond)
        x = Tensor(np.asarray(x_t, dtype=np.float64))
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeError(f"x_t must be [B, 1, H, W], got {x.shape}")
        b, _, hh, ww = x.shape
        x = x.reshape((b, hh, ww, 1))
        t_feat = self._time_features(t)

        if self.concat_mode:
            x = T.concat([x, Tensor(cond.y.transpose(0, 2, 3, 1))], axis=-1)
        skips = _encode(self.dn_stem, self.dn_stages, x, t_feat, cond.features)
        h = skips.pop()
        for block in self.mid:
            h = block(h, t_feat)
        for stage in self.dec_stages:
            h = stage(h, skips, t_feat)
        return self.head(h).reshape((b, 1, hh, ww))

    def __call__(self, x_t, t, cond) -> Tensor:
        return self.predict_noise(x_t, t, cond)

    # -- introspection -----------------------------------------------------

    def parameter_groups(self) -> dict:
        """Spec-level parameter grouping used by the gradient-reach check."""
        names = self.store.names()
        groups = {
            "structure-encoder": [n for n in names if n.startswith("senc.")],
            "fusion-projector": [n for n in names if n.startswith(("dn.fuse.", "dn.proj."))],
            "denoiser-encoder": [n for n in names if n.startswith(("dn.stem", "dn.enc."))],
            "middle": [n for n in names if n.startswith("dn.mid.")],
            "decoder": [n for n in names if n.startswith(("dn.dec.", "dn.head"))],
        }
        return {k: v for k, v in groups.items() if v}
