"""Run configuration with strict, lossless JSON round-tripping.

Unknown keys fail fast; every field has a dataclass default so configs
only state what they change.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .networks import FusionStrategy, ModelConfig


class ConfigError(ValueError):
    """Invalid or unreadable run configuration (CLI exit code 2)."""


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
    split_ratios: tuple[float, float, float] = (0.6875, 0.0625, 0.25)


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainParams = field(default_factory=TrainParams)
    data: DataParams = field(default_factory=DataParams)
    seed: int = 0
    out_dir: str = "runs/default"


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
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a fusion label, got {type(value).__name__}")
        try:
            return FusionStrategy.parse(value)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from None
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
        return float(value)
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
    cfg = _from_dict(RunConfig, d, "config")
    try:
        cfg.model.validate()
    except ValueError as e:
        raise ConfigError(f"config.model: {e}") from None
    if cfg.train.steps < 1 or cfg.train.batch_size < 1:
        raise ConfigError("config.train: steps and batch_size must be >= 1")
    if not (0.0 <= cfg.train.decay_start_frac <= 1.0):
        raise ConfigError("config.train: decay_start_frac must be in [0, 1]")
    if cfg.data.n_samples < 1:
        raise ConfigError("config.data: n_samples must be >= 1")
    return cfg


def dumps_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def save_config(path, cfg: RunConfig) -> None:
    Path(path).write_text(dumps_config(cfg))


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        d = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON ({e})") from None
    return config_from_dict(d)
