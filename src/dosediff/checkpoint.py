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
    model: DoseModel   # the config's model; its store holds the file's arrays


def save_checkpoint(path, cfg: RunConfig, store: ParamStore, step: int,
                    rng: np.random.Generator) -> None:
    names = store.names()
    header = {
        "version": CKPT_VERSION,
        "config": config_to_dict(cfg),
        "step": int(step),
        "rng_state": rng.bit_generator.state,
        "params": [{"name": n, "shape": list(store[n].shape)} for n in names],
        "opt_steps": dict.fromkeys(names, store.step),
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    CKPT_FILE.write(path, itertools.chain([pack_text(text)], (
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for n in names for a in (store[n].data, store.m[n], store.v[n]))))


def _count(value, what: str) -> int:
    """A step count from the header: a JSON integer (not a bool) >= 0."""
    if type(value) is not int or value < 0:
        raise SampleFormatError(f"{what} {value!r} is not an integer >= 0")
    return value


def load_checkpoint(path, moments: bool = True) -> Checkpoint:
    """Read a checkpoint into the model of its own config; nothing is
    drawn. Any malformed header or payload, a step count that is not one
    integer >= 0, and any parameter whose name or shape does not fit the
    model, raises SampleFormatError that names the file.

    The header keeps one optimizer step count per parameter name
    (``opt_steps``); a store has one count, so every entry must hold the
    same value. Every tensor is read straight from the file into its own
    array, which the model's ParamStore then takes by name, with the step
    count and the Adam moments: once the load returns, the store is the
    only holder of the file's arrays. With ``moments=False`` the moments
    are stepped over, not read (their length is still checked), and the
    store has none: enough to sample, not to resume training.
    """
    with CKPT_FILE.read(path) as cur:
        header = json.loads(cur.text("header"))
        cfg, step = config_from_dict(header["config"]), _count(header["step"], "step")
        rng_state = header["rng_state"]
        np.random.PCG64().state = rng_state   # raises unless a PCG64 state
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
        counts = {_count(x, "optimizer step count") for x in header["opt_steps"].values()}
        if len(counts) != 1:
            raise SampleFormatError(f"optimizer step counts differ: {sorted(counts)}")
        (opt_step,) = counts
        del header   # a load never holds the parsed header and the model on top of the tensors

        def take(name: str, shape: tuple) -> np.ndarray:
            if name not in params:
                raise SampleFormatError(f"checkpoint/model parameter mismatch: the model's "
                                        f"{name!r} is not in the checkpoint")
            if params[name].shape != shape:
                raise SampleFormatError(f"shape mismatch for {name!r}: "
                                        f"{shape} vs {params[name].shape}")
            return params.pop(name)

        model = DoseModel.from_source(cfg.model, take)
        if params:
            raise SampleFormatError(f"checkpoint/model parameter mismatch: the model has no "
                                    f"{sorted(params)[:5]}...")
        model.store.step = opt_step
        model.store.m.update(m)
        model.store.v.update(v)
    return Checkpoint(cfg, step, rng_state, model)
