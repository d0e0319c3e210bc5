"""Run configuration: the schema, its rules (``validate``, which calls
``ModelConfig.validate``, which DoseModel also runs), and strict, lossless
JSON round-tripping. Every rule raises ConfigError (CLI exit code 2).

Unknown keys fail fast; every field has a dataclass default so configs
only state what they change.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .atomic import write_atomic


class ConfigError(ValueError):
    """Invalid or unreadable run configuration (CLI exit code 2)."""


FUSION_MODES = ("concatenate", "add-all", "attn-all", "attn-lastK")
U16_MAX = 65535  # the .spdp header stores H, W and the OAR count as u16


@dataclass(frozen=True)
class FusionStrategy:
    """Conditioning-fusion mode, plus K for the attn-lastK family."""

    mode: str
    k: int = 0

    def __post_init__(self):
        if self.mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion mode {self.mode!r}")
        if self.mode == "attn-lastK" and self.k < 0:
            raise ConfigError(f"attn-lastK needs K >= 0, got {self.k}")

    @classmethod
    def parse(cls, text: str) -> "FusionStrategy":
        if text in ("concatenate", "add-all", "attn-all"):
            return cls(text)
        if isinstance(text, str) and re.fullmatch(r"attn-last[0-9]+", text):
            return cls("attn-lastK", int(text[len("attn-last"):]))
        raise ConfigError(f"cannot parse fusion strategy {text!r}")

    def label(self) -> str:
        if self.mode == "attn-lastK":
            return f"attn-last{self.k}"
        return self.mode

    def stage_kinds(self, num_stages: int) -> Optional[List[str]]:
        """Per-stage fusion kind, or None for input-level concatenation."""
        if self.mode == "concatenate":
            return None
        if self.mode == "add-all":
            return ["add"] * num_stages
        if self.mode == "attn-all":
            return ["attn"] * num_stages
        if self.k > num_stages:
            raise ConfigError(f"attn-last{self.k} exceeds {num_stages} stages")
        return ["add"] * (num_stages - self.k) + ["attn"] * self.k


def check_schedule(t_steps, beta_start, beta_end) -> None:
    """The noise-schedule rule of ModelConfig and diffusion.make_schedule."""
    if t_steps < 1 or not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"need t_steps >= 1 and 0 < beta_start <= beta_end < 1, got "
                          f"t_steps={t_steps}, beta_start={beta_start}, beta_end={beta_end}")


def check_seed(seed: int) -> None:
    """validate's run-seed rule; the CLI checks --seed with it before any read."""
    if seed < 0:
        raise ConfigError(f"config.seed must be >= 0, got {seed!r}")


@dataclass
class ModelConfig:
    """Architecture hyperparameters for both branches.

    image_size must be divisible by 2**len(stage_multipliers); each
    stage halves the resolution once.
    """

    image_size: int = 256
    oar_count: int = 3
    base_channels: int = 32
    stage_multipliers: tuple[int, ...] = (1, 2, 4, 8, 8)
    window: int = 4
    heads: int = 4
    projector_ratio: int = 4
    use_projector: bool = True
    fusion: FusionStrategy = field(default_factory=lambda: FusionStrategy("attn-lastK", 2))
    t_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    time_dim: int = 0  # 0 means 4 * base_channels

    @property
    def num_stages(self) -> int:
        return len(self.stage_multipliers)

    @property
    def cond_channels(self) -> int:
        return 2 + self.oar_count

    @property
    def time_dim_effective(self) -> int:
        return self.time_dim if self.time_dim else 4 * self.base_channels

    def stage_channels(self) -> List[int]:
        """Channel width entering stage i (index 0 = stem output)."""
        return [self.base_channels] + [self.base_channels * m for m in self.stage_multipliers]

    def validate(self):
        for name, low in (("window", 1), ("heads", 1), ("projector_ratio", 1),
                          ("base_channels", 1), ("time_dim", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if min(self.stage_multipliers, default=1) < 1:
            raise ConfigError(f"stage_multipliers must be >= 1, got {self.stage_multipliers}")
        s = self.num_stages
        if s < 1:
            raise ConfigError("need at least one stage")
        if not 16 <= self.image_size <= U16_MAX:
            raise ConfigError(f"image_size must be in [16, {U16_MAX}], got {self.image_size}")
        if self.image_size % (1 << s):
            raise ConfigError(f"image_size {self.image_size} not divisible by 2^{s}")
        if not 1 <= self.oar_count <= U16_MAX:
            raise ConfigError(f"oar_count must be in [1, {U16_MAX}], got {self.oar_count}")
        widths = self.stage_channels()
        for w in widths:
            if w % self.heads:
                raise ConfigError(f"channel width {w} not divisible by {self.heads} heads")
            if self.use_projector and w % self.projector_ratio:
                raise ConfigError(f"width {w} not divisible by projector ratio "
                                  f"{self.projector_ratio}")
        for side in self._block_sides():
            if side % min(self.window, side):
                raise ConfigError(f"window {self.window} incompatible with side {side}")
        self.fusion.stage_kinds(s)  # raises when K is out of range
        if self.time_dim_effective % 2:
            raise ConfigError(f"time_dim must be even, got {self.time_dim}")
        check_schedule(self.t_steps, self.beta_start, self.beta_end)

    def _block_sides(self) -> List[int]:
        return [self.image_size >> i for i in range(self.num_stages + 1)]

    def window_for(self, side: int) -> int:
        return min(self.window, side)


@dataclass
class TrainParams:
    lr: float = 1e-4
    batch_size: int = 8
    steps: int = 2000
    decay_start_frac: float = 0.5   # linear decay to 0 from this fraction of steps
    beta1: float = 0.9
    beta2: float = 0.999
    checkpoint_every: int = 0       # 0 disables periodic checkpoints


@dataclass
class DataParams:
    n_samples: int = 16
    beam_count: int = 5
    seed: int = 0
    # train/val/test, mirroring a 220/20/80 patient split
    split_ratios: tuple[float, float, float] = (0.6875, 0.0625, 0.25)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainParams = field(default_factory=TrainParams)
    data: DataParams = field(default_factory=DataParams)
    seed: int = 0
    out_dir: str = "runs/default"


def validate(cfg: RunConfig) -> RunConfig:
    """Return cfg if every field is in range, else raise ConfigError naming
    the field. Float rules also reject NaN and infinities (json.loads accepts them)."""
    cfg.model.validate()
    check_seed(cfg.seed)
    t, d = cfg.train, cfg.data
    for name, ok, rule in (
        ("data.seed", d.seed >= 0, ">= 0"),
        ("train.steps", t.steps >= 1, ">= 1"), ("train.batch_size", t.batch_size >= 1, ">= 1"),
        ("train.checkpoint_every", t.checkpoint_every >= 0, ">= 0"),
        ("train.lr", 0 < t.lr < math.inf, "finite and > 0"),
        ("train.decay_start_frac", 0 <= t.decay_start_frac <= 1, "in [0, 1]"),
        ("train.beta1", 0 <= t.beta1 < 1, "in [0, 1)"),
        ("train.beta2", 0 <= t.beta2 < 1, "in [0, 1)"),
        ("data.n_samples", d.n_samples >= 1, ">= 1"),
        ("data.beam_count", d.beam_count >= 1, ">= 1"),
        ("data.split_ratios", min(d.split_ratios) >= 0 and abs(sum(d.split_ratios) - 1) <= 1e-9,
         ">= 0 and sum to 1"),
    ):
        if not ok:
            value = functools.reduce(getattr, name.split("."), cfg)
            raise ConfigError(f"config.{name} must be {rule}, got {value!r}")
    return cfg


def _to_jsonable(obj):
    if isinstance(obj, FusionStrategy):
        return obj.label()
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [_to_jsonable(v) for v in obj]
    return obj


def _decode(tp, value, path: str):
    """The value of JSON ``value`` for a field annotated ``tp``.

    Dataclasses recurse, fusion strategies parse from their label, lists
    become tuples; scalars must match the annotation, except that an int
    is accepted (and converted) for a float. A bool is not an int.
    """
    if tp is FusionStrategy:
        return FusionStrategy.parse(value)
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        items = typing.get_args(tp)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(items) != len(value):
            raise ConfigError(f"{path}: expected {len(items)} items, got {len(value)}")
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: the integer is too large for a float") from None
    if not isinstance(value, tp) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {type(value).__name__}")
    return value


def _from_dict(cls, d, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(d) - set(hints)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    return cls(**{key: _decode(hints[key], value, f"{path}.{key}") for key, value in d.items()})


def config_to_dict(cfg: RunConfig) -> dict:
    return _to_jsonable(cfg)


def config_from_dict(d: dict) -> RunConfig:
    return validate(_from_dict(RunConfig, d, "config"))


def dumps_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def save_config(path, cfg: RunConfig) -> None:
    write_atomic(path, dumps_config(cfg))


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        d = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as e:       # a directory, no read permission, ...
        raise ConfigError(f"cannot read config file {p}: {e.strerror or e}") from None
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, huge int, deep nesting
        raise ConfigError(f"{p}: invalid JSON ({e})") from None
    return config_from_dict(d)
