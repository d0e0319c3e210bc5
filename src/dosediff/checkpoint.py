"""Binary checkpoints: full-precision parameters, optimizer state, RNG
state, and a config echo. Saving the same state twice yields identical
bytes (no timestamps), and save -> load -> save is byte-identical.

Layout (little-endian):

    magic b"SPCK" | u16 version | u32 json_len | JSON header
    then per parameter, in header order: data f64 | m f64 | v f64
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .config import ModelConfig, RunConfig, config_from_dict, config_to_dict
from .networks import DoseModel
from .optim import ParamStore
from .phantom import Container, SampleFormatError, pack_text

CKPT_MAGIC = b"SPCK"
CKPT_VERSION = 1
CKPT_FILE = Container(CKPT_MAGIC, CKPT_VERSION, "checkpoint")


@dataclass
class Checkpoint:
    config: RunConfig
    step: int
    rng_state: dict
    params: Dict[str, np.ndarray]
    m: Optional[Dict[str, np.ndarray]]    # None when loaded without moments
    v: Optional[Dict[str, np.ndarray]]
    opt_steps: Dict[str, int]
    model: DoseModel = field(init=False)   # the config's model over these parameters


def save_checkpoint(path, cfg: RunConfig, store: ParamStore, step: int,
                    rng: np.random.Generator) -> None:
    names = store.names()
    header = {
        "version": CKPT_VERSION,
        "config": config_to_dict(cfg),
        "step": int(step),
        "rng_state": rng.bit_generator.state,
        "params": [{"name": n, "shape": list(store[n].shape)} for n in names],
        "opt_steps": {n: store.steps[n] for n in names},
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    CKPT_FILE.write(path, itertools.chain([pack_text(text)], (
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for n in names for a in (store[n].data, store.m[n], store.v[n]))))


def load_checkpoint(path, moments: bool = True) -> Checkpoint:
    """Read a checkpoint and build its config's model over its parameters
    (``restore_model``); any malformed header or payload, and any parameter
    that does not fit the model, raises SampleFormatError that names the
    file.

    Every tensor is read straight from the file into its own array. With
    ``moments=False`` the Adam moments are stepped over, not read (their
    length is still checked), and ``m`` and ``v`` are None: enough to
    sample, not to resume training.
    """
    with CKPT_FILE.read(path) as cur:
        ckpt = _read_body(cur, moments)
        ckpt.model = restore_model(ckpt.config.model, ckpt)
    return ckpt


def _read_body(cur, moments: bool) -> Checkpoint:
    # returning drops the parsed header before load_checkpoint builds the
    # model, so a load never holds both on top of the tensors
    header = json.loads(cur.text("header"))
    cfg = config_from_dict(header["config"])
    np.random.PCG64().state = header["rng_state"]   # raises unless a PCG64 state
    params: Dict[str, np.ndarray] = {}
    m: Dict[str, np.ndarray] = {}
    v: Dict[str, np.ndarray] = {}
    for entry in header["params"]:
        name, shape = entry["name"], tuple(entry["shape"])
        part = f"tensor data for {name!r}"
        params[name] = cur.array(shape, "<f8", part)
        for moment in (m, v):
            if moments:
                moment[name] = cur.array(shape, "<f8", part)
            else:
                cur.skip(params[name].nbytes, part)
    if set(header["opt_steps"]) != set(params):
        raise SampleFormatError("optimizer step counts do not match the parameter list")
    return Checkpoint(
        config=cfg,
        step=int(header["step"]),
        rng_state=header["rng_state"],
        params=params,
        m=m if moments else None,
        v=v if moments else None,
        opt_steps={k: int(x) for k, x in header["opt_steps"].items()},
    )


def restore_model(cfg: ModelConfig, ckpt: Checkpoint) -> DoseModel:
    """The model of ``cfg`` with every parameter taken from ``ckpt``;
    nothing is drawn. The Adam moments come along when ``ckpt`` holds
    them, and the per-parameter step counts always.

    A checkpoint whose parameter names or shapes differ from the model's
    raises SampleFormatError; ``load_checkpoint`` runs this on the file's
    own config inside the read, so there the error names the file.
    """
    def take(name: str, shape: tuple) -> np.ndarray:
        if name not in ckpt.params:
            raise SampleFormatError(f"checkpoint/model parameter mismatch: the model's "
                                    f"{name!r} is not in the checkpoint")
        if ckpt.params[name].shape != shape:
            raise SampleFormatError(f"shape mismatch for {name!r}: "
                                    f"{shape} vs {ckpt.params[name].shape}")
        return ckpt.params[name]

    model = DoseModel.from_source(cfg, take)
    store = model.store
    extra = set(ckpt.params) - set(store.names())
    if extra:
        raise SampleFormatError(f"checkpoint/model parameter mismatch: the model has no "
                                f"{sorted(extra)[:5]}...")
    store.steps.update(ckpt.opt_steps)
    if ckpt.m is not None:
        store.m.update(ckpt.m)
        store.v.update(ckpt.v)
    return model
