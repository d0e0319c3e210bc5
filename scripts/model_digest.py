#!/usr/bin/env python3
"""Print one SHA-256 per model wiring, over everything a model computes.

Each line digests, in order: the fresh parameters (names and bytes), a
seeded training loss, every parameter gradient of that loss (names and
bytes) and a no-grad ``eps_hat``. The wirings are every fusion strategy
at 16 px, attn-last2 without the projector, and ``configs/desk.json``.
Two trees that print the same lines build and run bit-identical models,
so a refactor that claims bitwise outputs can be checked by running this
script before and after it and comparing the output.

    PYTHONPATH=src python scripts/model_digest.py
"""

import hashlib
from pathlib import Path

import numpy as np

from dosediff import diffusion as D
from dosediff.config import FusionStrategy, ModelConfig, load_config
from dosediff.networks import DoseModel
from dosediff.tensor import backward, no_grad

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
STRATEGIES = ("concatenate", "add-all", "attn-all", "attn-last0", "attn-last2")
BATCH = 2


def smoke_cfg(fusion: str, use_projector: bool) -> ModelConfig:
    return ModelConfig(image_size=16, oar_count=3, base_channels=4,
                       stage_multipliers=(1, 2, 4, 8), window=2, heads=2,
                       projector_ratio=4, use_projector=use_projector,
                       fusion=FusionStrategy.parse(fusion), t_steps=50,
                       beta_start=1e-4, beta_end=0.35)


def wirings():
    for fusion in STRATEGIES:
        yield fusion, smoke_cfg(fusion, True)
    yield "attn-last2-no-projector", smoke_cfg("attn-last2", False)
    yield "desk.json", load_config(DESK).model


def digest(cfg: ModelConfig) -> str:
    h = hashlib.sha256()

    def put(name: str, a: np.ndarray) -> None:
        h.update(name.encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())

    model = DoseModel(cfg, 3)
    for name, p in model.store.items():
        put(name, p.data)
    rng = np.random.default_rng(4)
    n, c = cfg.image_size, cfg.cond_channels
    dose = rng.uniform(-1, 1, (BATCH, 1, n, n))
    cond = rng.random((BATCH, c, n, n))
    sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
    loss = D.training_step(model, (dose, cond), sched, rng)
    put("loss", loss.data)
    for name, g in sorted(backward(loss, model.store).items()):
        put(f"grad:{name}", g)
    with no_grad():
        eps_hat = model(dose, [1, cfg.t_steps - 1], cond)
    put("eps_hat", eps_hat.data)
    return h.hexdigest()


def main() -> None:
    for label, cfg in wirings():
        print(f"{digest(cfg)} {label}")


if __name__ == "__main__":
    main()
