"""Training loop with deterministic batching, linear LR decay, bit-exact
checkpoint resume, and the fusion-strategy ablation harness.
"""

from __future__ import annotations

import dataclasses
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import diffusion as D
from . import metrics as M
from . import phantom as P
from .checkpoint import Checkpoint, restore_into, save_checkpoint
from .config import RunConfig
from .networks import DoseModel, FusionStrategy, ModelConfig
from .optim import adam_step
from .tensor import backward, no_grad


class DataError(Exception):
    """Missing or inconsistent dataset (CLI exit code 3)."""


class NumericFailure(Exception):
    """Non-finite loss during training (CLI exit code 4)."""


def lr_at(step: int, total_steps: int, lr0: float, decay_start_frac: float) -> float:
    """Constant lr0, then linear decay to 0 across the remaining steps."""
    frac = step / total_steps
    if frac < decay_start_frac:
        return lr0
    if decay_start_frac >= 1.0:
        return lr0
    return lr0 * (1.0 - (frac - decay_start_frac) / (1.0 - decay_start_frac))


# ---------------------------------------------------------------------------
# dataset on disk


def sample_path(data_dir, case_id: str) -> Path:
    return Path(data_dir) / f"{case_id}.spdp"


def load_split(data_dir) -> P.DatasetSplit:
    manifest = Path(data_dir) / "split.json"
    if not manifest.exists():
        raise DataError(f"missing split manifest: {manifest}")
    d = json.loads(manifest.read_text())
    return P.DatasetSplit(train=d["train"], val=d["val"], test=d["test"], seed=d["seed"])


def load_cases(data_dir, ids: Sequence[str]) -> List[P.PhantomSample]:
    out = []
    for cid in ids:
        p = sample_path(data_dir, cid)
        if not p.exists():
            raise DataError(f"missing sample file: {p}")
        out.append(P.read_sample(p))
    return out


def _check_case_fits(sample: P.PhantomSample, cfg: ModelConfig, case_id: str = "case") -> None:
    """Raise DataError unless a case has the model's image side and OAR count."""
    size = cfg.image_size
    if sample.ct.shape != (size, size):
        h, w = sample.ct.shape
        raise DataError(f"{case_id} is {h}x{w} px but the model is configured for "
                        f"{size}x{size} (model.image_size)")
    if sample.oar_count != cfg.oar_count:
        raise DataError(f"{case_id} has {sample.oar_count} OARs but the model is configured "
                        f"for {cfg.oar_count} (model.oar_count)")


def generate_dataset(cfg: RunConfig, out_dir) -> P.DatasetSplit:
    """Write n_samples phantom files plus the split manifest; idempotent."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = []
    for i in range(cfg.data.n_samples):
        cid = f"sample_{i:05d}"
        s = P.generate_phantom(cfg.data.seed + i, size=cfg.model.image_size,
                               oar_count=cfg.model.oar_count,
                               beam_count=cfg.data.beam_count)
        P.write_sample(sample_path(out, cid), s)
        ids.append(cid)
    split = P.make_split(ids, cfg.data.seed, cfg.data.split_ratios)
    manifest = {"train": split.train, "val": split.val, "test": split.test,
                "seed": split.seed}
    (out / "split.json").write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return split


# ---------------------------------------------------------------------------
# trainer


def fit_step(model: DoseModel, batch, schedule: D.NoiseSchedule, rng: np.random.Generator,
             lr: float, betas: Tuple[float, float] = (0.9, 0.999)) -> float:
    """One optimization step on ``batch`` = (x0, condition); returns the loss.

    Corrupts x0 and predicts the noise (``diffusion.training_step``), then
    backpropagates and applies Adam. A non-finite loss raises
    NumericFailure before any parameter changes.
    """
    loss = D.training_step(model, batch, schedule, rng)
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericFailure(f"non-finite loss {value}")
    adam_step(model.store, backward(loss, model.store), lr, betas)
    return value


@dataclass
class TrainResult:
    losses: List[float]
    final_checkpoint: Path
    steps_run: int


class Trainer:
    """Single-threaded step loop over a fixed in-memory dataset.

    All randomness (batch indices, timesteps, noise) flows through one
    seeded generator whose state is checkpointed, so an interrupted run
    resumed from a checkpoint continues bit-exactly.
    """

    def __init__(self, cfg: RunConfig, data_dir, out_dir,
                 resume: Optional[Checkpoint] = None,
                 train_ids: Optional[Sequence[str]] = None):
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if train_ids is None:
            train_ids = load_split(data_dir).train
        if not train_ids:
            raise DataError("empty training split")
        self.train_ids = list(train_ids)
        samples = load_cases(data_dir, self.train_ids)
        for cid, sample in zip(self.train_ids, samples):
            _check_case_fits(sample, cfg.model, cid)
        self.cond, self.dose = P.normalize_batch(samples)
        self.schedule = D.make_schedule(cfg.model.t_steps, cfg.model.beta_start,
                                        cfg.model.beta_end)
        self.model = DoseModel(cfg.model, cfg.seed)
        self.rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        self.start_step = 0
        if resume is not None:
            restore_into(self.model.store, resume)
            self.rng.bit_generator.state = resume.rng_state
            self.start_step = resume.step

    def _batch(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.dose.shape[0]
        k = min(self.cfg.train.batch_size, n)
        idx = self.rng.integers(0, n, size=k)
        return self.dose[idx], self.cond[idx]

    def run(self, steps: Optional[int] = None) -> TrainResult:
        cfg = self.cfg
        total = cfg.train.steps
        end_step = total if steps is None else min(total, self.start_step + steps)
        losses = []
        log_path = self.out_dir / "loss_log.csv"
        with open(log_path, "w") as log:
            log.write("step,loss,lr\n")
            for step in range(self.start_step, end_step):
                lr = lr_at(step, total, cfg.train.lr, cfg.train.decay_start_frac)
                try:
                    value = fit_step(self.model, self._batch(), self.schedule, self.rng,
                                     lr, (cfg.train.beta1, cfg.train.beta2))
                except NumericFailure as e:
                    raise NumericFailure(f"{e} at step {step}") from None
                losses.append(value)
                log.write(f"{step},{value!r},{lr!r}\n")
                every = cfg.train.checkpoint_every
                if every and (step + 1) % every == 0 and (step + 1) < end_step:
                    self._save(self.out_dir / f"ckpt_step{step + 1:06d}.bin", step + 1)
        final = self.out_dir / "ckpt_final.bin"
        self._save(final, end_step)
        return TrainResult(losses=losses, final_checkpoint=final,
                           steps_run=end_step - self.start_step)

    def _save(self, path: Path, step: int) -> None:
        save_checkpoint(path, self.cfg, self.model.store, step, self.rng)


# ---------------------------------------------------------------------------
# sampling + evaluation helpers


def sample_case(model: DoseModel, schedule: D.NoiseSchedule, sample: P.PhantomSample,
                seed_key) -> np.ndarray:
    """Reverse-diffuse one case; returns dose in prescription units.

    The final map is clamped to the valid normalized range before
    denormalization. seed_key may be any numpy SeedSequence key (ints or
    sequences of ints), so per-case seeds stay order-independent.
    """
    _check_case_fits(sample, model.cfg)
    cond_arr, _ = P.normalize_batch([sample])
    with no_grad():
        stack = model.encode_structure(cond_arr)
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence(seed_key)))
    x = D.sample_loop(model, stack, schedule, rng, shape=(1, 1) + sample.ct.shape)
    return P.denormalize_dose(np.clip(x[0, 0], -1.0, 1.0))


def evaluate_case(pred_dose: np.ndarray, truth: P.PhantomSample,
                  case: str) -> M.MetricsReport:
    if pred_dose.shape != truth.dose.shape:
        raise DataError(f"case {case}: prediction is {pred_dose.shape} but its truth "
                        f"case is {truth.dose.shape}")
    bad = np.count_nonzero(~np.isfinite(pred_dose))
    if bad:
        raise DataError(f"case {case}: prediction has {bad} non-finite voxels")
    return M.compute_metrics(pred_dose, truth.dose.astype(np.float64),
                             truth.body, truth.structures())


# ---------------------------------------------------------------------------
# ablation harness


@dataclass
class AblationRow:
    strategy: str
    reports: List[M.MetricsReport]
    wall_time_s: float

    def mean(self, attr: str) -> float:
        return float(np.mean([getattr(r, attr) for r in self.reports]))


def fusion_ablation_matrix(cfg: RunConfig, strategies: Sequence[FusionStrategy],
                           data_dir, out_root,
                           eval_ids: Optional[Sequence[str]] = None
                           ) -> List[Tuple[FusionStrategy, DoseModel, AblationRow]]:
    """Train and evaluate each fusion strategy under identical data/seed.

    Every run shares the dataset, the training step budget, and the base
    seed; only the fusion wiring differs. Evaluation samples each held
    case with a per-case seed and scores against ground truth.
    """
    split = load_split(data_dir)
    if eval_ids is None:
        eval_ids = split.test if split.test else split.train
    eval_samples = {cid: P.read_sample(sample_path(data_dir, cid)) for cid in eval_ids}

    results = []
    for strat in strategies:
        t0 = time.perf_counter()
        run_cfg = dataclasses.replace(
            cfg, model=dataclasses.replace(cfg.model, fusion=strat))
        run_dir = Path(out_root) / f"ablate_{strat.label()}"
        trainer = Trainer(run_cfg, data_dir, run_dir)
        trainer.run()
        reports = []
        for cid, sample in eval_samples.items():
            pred = sample_case(trainer.model, trainer.schedule, sample,
                               (cfg.seed, _case_index(cid)))
            reports.append(evaluate_case(pred, sample, cid))
        wall = time.perf_counter() - t0
        results.append((strat, trainer.model,
                        AblationRow(strategy=strat.label(), reports=reports,
                                    wall_time_s=wall)))
    return results


def _case_index(case_id: str) -> int:
    tail = case_id.rsplit("_", 1)[-1]
    if tail.isdigit():
        return int(tail)
    return zlib.crc32(case_id.encode("utf-8"))  # stable across processes
