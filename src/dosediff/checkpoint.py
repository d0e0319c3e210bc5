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
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .config import RunConfig, config_from_dict, config_to_dict
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
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    opt_steps: Dict[str, int]


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


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed header or payload raises
    SampleFormatError."""
    with CKPT_FILE.read(path) as cur:
        header = json.loads(cur.text("header"))
        cfg = config_from_dict(header["config"])
        np.random.PCG64().state = header["rng_state"]   # raises unless a PCG64 state
        tensors: Dict[str, Dict[str, np.ndarray]] = {"params": {}, "m": {}, "v": {}}
        for entry in header["params"]:
            for target in tensors.values():
                target[entry["name"]] = cur.array(
                    tuple(entry["shape"]), "<f8", f"tensor data for {entry['name']!r}")
        if set(header["opt_steps"]) != set(tensors["params"]):
            raise SampleFormatError("optimizer step counts do not match the parameter list")
        ckpt = Checkpoint(
            config=cfg,
            step=int(header["step"]),
            rng_state=header["rng_state"],
            opt_steps={k: int(x) for k, x in header["opt_steps"].items()},
            **tensors,
        )
    return ckpt


def restore_into(store: ParamStore, ckpt: Checkpoint) -> None:
    """Overwrite a freshly built store with checkpointed state.

    A checkpoint whose parameter names or shapes differ from the store's
    raises SampleFormatError.
    """
    if set(store.names()) != set(ckpt.params):
        missing = set(store.names()) ^ set(ckpt.params)
        raise SampleFormatError(f"checkpoint/model parameter mismatch: {sorted(missing)[:5]}...")
    for n in store.names():
        if store[n].shape != ckpt.params[n].shape:
            raise SampleFormatError(f"shape mismatch for {n!r}: "
                                    f"{store[n].shape} vs {ckpt.params[n].shape}")
        store[n].data = ckpt.params[n]
        store.m[n] = ckpt.m[n]
        store.v[n] = ckpt.v[n]
        store.steps[n] = ckpt.opt_steps[n]
