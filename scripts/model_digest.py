#!/usr/bin/env python3
"""Print one SHA-256 per model wiring, over everything a model computes,
and one over a checkpoint round trip.

Each wiring line digests, in order: the fresh parameters (names and
bytes), a seeded training loss, every parameter gradient of that loss
(names and bytes) and a no-grad ``eps_hat``, on a batch of two (one for
the 128 px wiring). The wirings are every fusion strategy at 16 px,
attn-last2 without the projector, ``configs/desk.json``, and a 128 px,
base-16 model whose conv tap sums (stride 1 and 2), layer norms, window
attention and Swin MLP each run in more than one block. The checkpoint
line saves the desk model after two seeded Adam steps, loads it with and
then without the Adam moments, and digests each loaded store: per
parameter its name, data, moments (when loaded) and step count.
Two trees that print the same lines build, run, save and load
bit-identical models, so a refactor that claims bitwise outputs can be
checked by running this script before and after it and comparing the
output.

    PYTHONPATH=src python scripts/model_digest.py
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from dosediff import diffusion as D
from dosediff.checkpoint import load_checkpoint, save_checkpoint
from dosediff.config import FusionStrategy, ModelConfig, load_config
from dosediff.networks import DoseModel
from dosediff.optim import adam_step
from dosediff.tensor import backward, no_grad

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
STRATEGIES = ("concatenate", "add-all", "attn-all", "attn-last0", "attn-last2")


def smoke_cfg(fusion: str, use_projector: bool) -> ModelConfig:
    return ModelConfig(image_size=16, oar_count=3, base_channels=4,
                       stage_multipliers=(1, 2, 4, 8), window=2, heads=2,
                       projector_ratio=4, use_projector=use_projector,
                       fusion=FusionStrategy.parse(fusion), t_steps=50,
                       beta_start=1e-4, beta_end=0.35)


def blocked_cfg() -> ModelConfig:
    """128 px, base 16, a batch of one, whose kernels run in more than one
    block: the stage-1 conv blocks run 5 tap-sum blocks and layer norms in
    4 blocks of 32 image rows; the stride-2 convs 128 -> 64 px (16 -> 32
    channels) and 64 -> 32 px (32 -> 64) read their taps from the phase
    copy in 3 and 2 tap-sum blocks; the 64 px, 32-channel Swin blocks run
    their window attention in 2 blocks of 128 windows and their MLP (128
    hidden channels) in 8 blocks of 8 image rows. Each of these
    runs in the loss's forward, whose saved arrays the gradients read, and
    in the no-grad ``eps_hat``."""
    return ModelConfig(image_size=128, oar_count=3, base_channels=16,
                       stage_multipliers=(2, 4, 8), window=4, heads=2,
                       projector_ratio=4, use_projector=True,
                       fusion=FusionStrategy.parse("concatenate"), t_steps=50,
                       beta_start=1e-4, beta_end=0.02)


def wirings():
    """(label, model config, batch size) of every wiring line."""
    for fusion in STRATEGIES:
        yield fusion, smoke_cfg(fusion, True), 2
    yield "attn-last2-no-projector", smoke_cfg("attn-last2", False), 2
    yield "desk.json", load_config(DESK).model, 2
    yield "blocked-128px", blocked_cfg(), 1


def putter(h):
    def put(name: str, a: np.ndarray) -> None:
        h.update(name.encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return put


def digest(cfg: ModelConfig, batch: int) -> str:
    h = hashlib.sha256()
    put = putter(h)
    model = DoseModel(cfg, 3)
    for name, p in model.store.items():
        put(name, p.data)
    rng = np.random.default_rng(4)
    n, c = cfg.image_size, cfg.cond_channels
    dose = rng.uniform(-1, 1, (batch, 1, n, n))
    cond = rng.random((batch, c, n, n))
    sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
    loss = D.training_step(model, (dose, cond), sched, rng)
    put("loss", loss.data)
    grads = zip(model.store.names(), backward(loss, model.store.tensors()))
    for name, g in sorted(grads, key=lambda ng: ng[0]):
        put(f"grad:{name}", g)
    with no_grad():
        eps_hat = model(dose, [1, cfg.t_steps - 1][:batch], cond)
    put("eps_hat", eps_hat.data)
    return h.hexdigest()


def checkpoint_digest() -> str:
    cfg = load_config(DESK)
    model = DoseModel(cfg.model, cfg.seed)
    rng = np.random.default_rng(5)
    for _ in range(2):
        grads = [rng.standard_normal(p.shape) for p in model.store.tensors()]
        adam_step(model.store, grads, cfg.train.lr, (cfg.train.beta1, cfg.train.beta2))
    h = hashlib.sha256()
    put = putter(h)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "desk.bin"
        save_checkpoint(path, cfg, model.store, 2, rng)
        for moments in (True, False):
            store = load_checkpoint(path, moments).model.store
            for name, p in store.items():
                put(name, p.data)
                for tag, moment in (("m", store.m), ("v", store.v)):
                    if name in moment:
                        put(f"{tag}:{name}", moment[name])
                h.update(f"steps:{store.step}".encode())
    return h.hexdigest()


def main() -> None:
    for label, cfg, batch in wirings():
        print(f"{digest(cfg, batch)} {label}")
    print(f"{checkpoint_digest()} desk.json checkpoint")


if __name__ == "__main__":
    main()
