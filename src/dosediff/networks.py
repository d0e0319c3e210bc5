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

from . import blocks as B
from . import tensor as T
from .blocks import (CrossAttentionParams, ProjectorParams, SwinBlockParams,
                     cross_attention_fuse, projector_forward, swin_block,
                     time_embedding)
from .config import FusionStrategy, ModelConfig  # noqa: F401  (FusionStrategy re-exported)
from .optim import ParamStore
from .tensor import ShapeError, Tensor


@dataclass
class ConditionStack:
    """Raw condition tensor plus the per-stage structural feature maps."""

    y: np.ndarray                       # [B, 2+O, H, W]
    features: Optional[List[Tensor]]    # f_1..f_S as [B, H, W, C], or None (concatenate mode)


# ---------------------------------------------------------------------------
# per-unit parameter groups


@dataclass
class ConvBlockParams:
    ln_g: Tensor
    ln_b: Tensor
    w: Tensor
    b: Tensor
    t_w: Optional[Tensor] = None
    t_b: Optional[Tensor] = None


@dataclass
class DownParams:
    w_main: Tensor
    b_main: Tensor
    w_skip: Tensor


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor


def _conv_weight(store, name, shape) -> Tensor:
    # He-style fan-in scaling keeps conv outputs O(1) so the layer norms
    # that follow stay well conditioned at init
    fan_in = int(np.prod(shape[1:]))
    return store.normal(name, shape, std=float(np.sqrt(2.0 / fan_in)))


def _init_conv(store, prefix, c_out, c_in, k) -> ConvParams:
    return ConvParams(
        w=_conv_weight(store, f"{prefix}.w", (c_out, c_in, k, k)),
        b=store.add(f"{prefix}.b", np.zeros(c_out)),
    )


def _init_conv_block(store, prefix, channels, t_dim) -> ConvBlockParams:
    p = ConvBlockParams(
        ln_g=store.add(f"{prefix}.ln.g", np.ones(channels)),
        ln_b=store.add(f"{prefix}.ln.b", np.zeros(channels)),
        w=_conv_weight(store, f"{prefix}.conv.w", (channels, channels, 3, 3)),
        b=store.add(f"{prefix}.conv.b", np.zeros(channels)),
    )
    if t_dim:
        p.t_w = store.normal(f"{prefix}.t.w", (t_dim, channels))
        p.t_b = store.add(f"{prefix}.t.b", np.zeros(channels))
    return p


def _init_down(store, prefix, c_in, c_out) -> DownParams:
    return DownParams(
        w_main=_conv_weight(store, f"{prefix}.main.w", (c_out, c_in, 3, 3)),
        b_main=store.add(f"{prefix}.main.b", np.zeros(c_out)),
        w_skip=_conv_weight(store, f"{prefix}.skip.w", (c_out, c_in, 1, 1)),
    )


def _conv(x: Tensor, p: ConvParams) -> Tensor:
    # stride 1, "same" padding for the odd kernel
    return T.conv2d(x, p.w, p.b, 1, p.w.shape[-1] // 2)


def _conv_block(x: Tensor, p: ConvBlockParams, t_feat: Optional[Tensor]) -> Tensor:
    t_bias = None
    if t_feat is not None and p.t_w is not None:
        t_bias = T.linear(t_feat, p.t_w, p.t_b)
    return T.conv_block(x, p.ln_g, p.ln_b, p.w, p.b, t_bias)


def _downsample(x: Tensor, p: DownParams) -> Tensor:
    # stride-2 conv with a 1x1 stride-2 residual shortcut
    return T.conv2d(x, p.w_main, p.b_main, 2, 1) + T.conv2d(x, p.w_skip, None, 2, 0)


@dataclass
class StageParams:
    blocks: list          # ConvBlockParams or SwinBlockParams
    down: DownParams


@dataclass
class DecoderStageParams:
    up: ConvParams
    merge: ConvParams
    blocks: list


BLOCKS_PER_STAGE = 3
_SHIFT_PATTERN = (False, True, False)


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

    # -- construction ------------------------------------------------------

    def _make_blocks(self, store, prefix, stage, channels, t_dim) -> list:
        """The blocks of stage ``stage`` (1-based): conv blocks at stage 1,
        Swin blocks deeper."""
        side = self.cfg.image_size >> (stage - 1)
        blocks = []
        for j in range(BLOCKS_PER_STAGE):
            name = f"{prefix}.b{j}"
            if stage == 1:
                blocks.append(_init_conv_block(store, name, channels, t_dim))
            else:
                blocks.append(B.init_swin_block(
                    store, name, channels, self.cfg.window_for(side),
                    _SHIFT_PATTERN[j % len(_SHIFT_PATTERN)], self.cfg.heads, t_dim=t_dim))
        return blocks

    def _make_stage(self, store, prefix, stage, c_in, c_out, t_dim):
        blocks = self._make_blocks(store, prefix, stage, c_in, t_dim)
        return StageParams(blocks=blocks, down=_init_down(store, f"{prefix}.down", c_in, c_out))

    def _build(self, cfg: ModelConfig, store: ParamStore) -> None:
        cfg.validate()
        self.cfg = cfg
        self.store = store
        self.stage_kinds = cfg.fusion.stage_kinds(cfg.num_stages)
        widths = cfg.stage_channels()          # [C, C*m1, ..., C*mS]
        t_dim = cfg.time_dim_effective
        concat_mode = self.stage_kinds is None

        # shared time-embedding trunk (two-layer MLP on the sinusoidal code)
        self.time_w1 = store.normal("time.w1", (t_dim, t_dim))
        self.time_b1 = store.add("time.b1", np.zeros(t_dim))
        self.time_w2 = store.normal("time.w2", (t_dim, t_dim))
        self.time_b2 = store.add("time.b2", np.zeros(t_dim))

        # structure encoder (absent in concatenate mode)
        self.senc_stem = None
        self.senc_stages = []
        if not concat_mode:
            self.senc_stem = _init_conv(store, "senc.stem", widths[0], cfg.cond_channels, 3)
            for i in range(1, cfg.num_stages + 1):
                self.senc_stages.append(self._make_stage(
                    store, f"senc.s{i}", i, widths[i - 1], widths[i], t_dim=0))

        # denoiser encoder
        in_ch = 1 + (cfg.cond_channels if concat_mode else 0)
        self.dn_stem = _init_conv(store, "dn.stem", widths[0], in_ch, 3)
        self.dn_stages = []
        self.fusers: List[Optional[CrossAttentionParams]] = []
        self.projectors: List[Optional[ProjectorParams]] = []
        for i in range(1, cfg.num_stages + 1):
            self.dn_stages.append(self._make_stage(
                store, f"dn.enc.s{i}", i, widths[i - 1], widths[i], t_dim=t_dim))
            if not concat_mode and self.stage_kinds[i - 1] == "attn":
                self.fusers.append(B.init_cross_attention(
                    store, f"dn.fuse.s{i}", widths[i], widths[i]))
            else:
                self.fusers.append(None)
            if not concat_mode and cfg.use_projector:
                self.projectors.append(B.init_projector(
                    store, f"dn.proj.s{i}", widths[i], cfg.projector_ratio))
            else:
                self.projectors.append(None)

        # middle attention blocks at the bottleneck
        mid_side = cfg.image_size >> cfg.num_stages
        self.mid = [B.init_swin_block(store, f"dn.mid.b{j}", widths[-1], cfg.window_for(mid_side),
                                      j == 1, cfg.heads, t_dim=t_dim) for j in range(2)]

        # decoder, deepest stage first
        self.dec_stages = []
        for i in range(cfg.num_stages, 0, -1):
            prefix = f"dn.dec.s{i}"
            up = _init_conv(store, f"{prefix}.up", widths[i - 1], widths[i], 3)
            merge = _init_conv(store, f"{prefix}.merge", widths[i - 1], 2 * widths[i - 1], 1)
            blocks = self._make_blocks(store, prefix, i, widths[i - 1], t_dim)
            self.dec_stages.append(DecoderStageParams(up=up, merge=merge, blocks=blocks))

        # output head: near-zero init keeps eps_hat small at the start while
        # still letting gradients reach every upstream group in one step
        self.head = ConvParams(
            w=store.normal("dn.head.w", (1, widths[0], 3, 3), std=1e-3),
            b=store.add("dn.head.b", np.zeros(1)),
        )

    # -- forward -----------------------------------------------------------

    def _time_features(self, t) -> Tensor:
        """[B, 1, 1, T] time features; they broadcast over a map's H and W."""
        emb = time_embedding(t, self.cfg.time_dim_effective)
        h = T.gelu(T.linear(Tensor(emb[:, None, None, :]), self.time_w1, self.time_b1))
        return T.linear(h, self.time_w2, self.time_b2)

    def _run_blocks(self, h: Tensor, blocks, t_feat: Optional[Tensor]) -> Tensor:
        for blk in blocks:
            if isinstance(blk, SwinBlockParams):
                h = swin_block(h, blk, t_feat)
            else:
                h = _conv_block(h, blk, t_feat)
        return h

    def encode_structure(self, y: np.ndarray) -> ConditionStack:
        """Extract the per-stage anatomical feature maps f_1..f_S from y."""
        cfg = self.cfg
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 4 or y.shape[1] != cfg.cond_channels:
            raise ShapeError(f"condition must be [B, {cfg.cond_channels}, H, W] "
                             f"(CT, PTV, {cfg.oar_count} OARs), got {y.shape}")
        if self.stage_kinds is None:
            return ConditionStack(y=y, features=None)
        h = _conv(Tensor(y.transpose(0, 2, 3, 1)), self.senc_stem)
        features = []
        for stage in self.senc_stages:
            h = self._run_blocks(h, stage.blocks, None)
            h = _downsample(h, stage.down)
            features.append(h)
        return ConditionStack(y=y, features=features)

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

        if self.stage_kinds is None:
            x = T.concat([x, Tensor(cond.y.transpose(0, 2, 3, 1))], axis=-1)
        h = _conv(x, self.dn_stem)
        skips = [h]
        for i, stage in enumerate(self.dn_stages):
            h = self._run_blocks(h, stage.blocks, t_feat)
            h = _downsample(h, stage.down)
            if self.stage_kinds is not None:
                f_i = cond.features[i]
                if self.stage_kinds[i] == "attn":
                    h = cross_attention_fuse(f_i, h, self.fusers[i])
                else:
                    h = h + f_i
                if self.projectors[i] is not None:
                    h = projector_forward(h, self.projectors[i])
            if i < len(self.dn_stages) - 1:
                skips.append(h)

        for blk in self.mid:
            h = swin_block(h, blk, t_feat)

        for dec in self.dec_stages:
            h = _conv(T.upsample2(h), dec.up)
            h = T.concat([h, skips.pop()], axis=-1)
            h = _conv(h, dec.merge)
            h = self._run_blocks(h, dec.blocks, t_feat)

        return _conv(h, self.head).reshape((b, 1, hh, ww))

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
