"""Training loop with deterministic batching, linear LR decay, bit-exact
checkpoint resume, and the fusion-strategy ablation harness.

Cases enter through one reader, ``read_cases``: ``train``, ``sample`` and
``ablate`` turn case ids into samples only through it, and it checks each
id, file and image against the model before the caller writes anything.
``Trainer`` trains on the cases it is given. ``check_truth`` turns a truth
case that ``metrics.check_truth`` rejects into a DataError that names it.
"""

from __future__ import annotations

import dataclasses
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diffusion as D
from . import metrics as M
from . import phantom as P
from .atomic import write_atomic
from .checkpoint import Checkpoint, save_checkpoint
from .config import ConfigError, FusionStrategy, ModelConfig, RunConfig, validate
from .networks import DoseModel
from .optim import adam_step
from .tensor import backward, no_grad


class DataError(Exception):
    """Missing or inconsistent dataset (CLI exit code 3)."""


class NumericFailure(Exception):
    """Non-finite loss or parameters during training, or a prediction of
    the program's own that cannot be scored (CLI exit code 4)."""


class PredictionError(DataError):
    """A prediction that cannot be scored: a data error in ``eval``, whose
    predictions are inputs, a NumericFailure in ``ablate``, which made it."""


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


def check_case_ids(ids, source: str) -> None:
    """Raise DataError unless every id is a plain file name, named once.

    A plain file name is a non-empty string that names no directory, so
    ``<dir>/<id>.*`` stays inside dir (and holds no NUL, which no path
    may). ``source`` says where the ids came from.
    """
    seen = set()
    for cid in ids:
        if (not isinstance(cid, str) or cid in ("", ".", "..") or cid != Path(cid).name
                or "\0" in cid):
            raise DataError(f"{source}: case id {cid!r} is not a plain file name")
        if cid in seen:
            raise DataError(f"{source}: case id {cid!r} is listed more than once")
        seen.add(cid)


def load_split(data_dir) -> P.DatasetSplit:
    manifest = Path(data_dir) / "split.json"
    if not manifest.exists():
        raise DataError(f"missing split manifest: {manifest}")
    try:
        d = json.loads(manifest.read_text())
    except (ValueError, RecursionError) as e:  # bad JSON or UTF-8, huge int, deep nesting
        raise DataError(f"{manifest}: invalid JSON ({e})") from None
    if not isinstance(d, dict):
        raise DataError(f"{manifest}: expected an object, got {type(d).__name__}")
    for key, kind in (("train", list), ("val", list), ("test", list), ("seed", int)):
        if not isinstance(d.get(key), kind) or isinstance(d.get(key), bool):
            raise DataError(f"{manifest}: {key!r} must be a {kind.__name__}")
    listed_in = {}
    for key in ("train", "val", "test"):
        check_case_ids(d[key], f"{manifest} {key!r}")
        for cid in d[key]:
            if cid in listed_in:
                raise DataError(f"{manifest}: case id {cid!r} is listed in "
                                f"{listed_in[cid]!r} and again in {key!r}")
            listed_in[cid] = key
    return P.DatasetSplit(train=d["train"], val=d["val"], test=d["test"], seed=d["seed"])


def read_cases(data_dir, ids: Sequence[str], model_cfg: ModelConfig,
               source: str) -> Dict[str, P.PhantomSample]:
    """{id: sample} for ``ids``, in order: the one reader of cases.

    It checks, in order, that every id is a plain file name named once
    (``check_case_ids``), that each file is present and well formed, and
    that each case has the model's image side and OAR count. A malformed
    file raises the container's SampleFormatError, whose message starts
    with the file's path and so names the case; every other failure is a
    DataError that names the case.
    """
    check_case_ids(ids, source)
    size = model_cfg.image_size
    cases = {}
    for cid in ids:
        path = sample_path(data_dir, cid)
        if not path.exists():
            raise DataError(f"{cid}: missing sample file {path}")
        sample = P.read_sample(path)
        if sample.ct.shape != (size, size):
            h, w = sample.ct.shape
            raise DataError(f"{cid} is {h}x{w} px but the model is configured for "
                            f"{size}x{size} (model.image_size)")
        if sample.oar_count != model_cfg.oar_count:
            raise DataError(f"{cid} has {sample.oar_count} OARs but the model is configured "
                            f"for {model_cfg.oar_count} (model.oar_count)")
        cases[cid] = sample
    return cases


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
    write_atomic(out / "split.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return split


# ---------------------------------------------------------------------------
# trainer


def fit_step(model: DoseModel, batch, schedule: D.NoiseSchedule, rng: np.random.Generator,
             lr: float, betas: Tuple[float, float]) -> float:
    """One optimization step on ``batch`` = (x0, condition); returns the loss.

    Corrupts x0 and predicts the noise (``diffusion.training_step``), then
    backpropagates and applies Adam. A non-finite loss, or a non-finite
    gradient (which names its parameter), raises NumericFailure before any
    parameter or moment changes.
    """
    loss = D.training_step(model, batch, schedule, rng)
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericFailure(f"non-finite loss {value}")
    grads = backward(loss, model.store.tensors())
    for name, g in zip(model.store.names(), grads):
        if not np.isfinite(g).all():
            raise NumericFailure(f"non-finite gradient of parameter {name!r}")
    adam_step(model.store, grads, lr, betas)
    return value


class Trainer:
    """Single-threaded step loop over a fixed in-memory dataset.

    All randomness (batch indices, timesteps, noise) flows through one
    seeded generator whose state is checkpointed, so an interrupted run
    resumed from a checkpoint continues bit-exactly.
    """

    def __init__(self, cfg: RunConfig, samples: Dict[str, P.PhantomSample], out_dir,
                 resume: Optional[Checkpoint] = None):
        """Train ``cfg``'s model on ``samples`` ({id: case}, read by
        ``read_cases``), writing into out_dir, fresh or from ``resume``."""
        if not samples:
            raise DataError("empty training split")
        if resume is not None and not resume.model.store.m:
            raise ValueError("the checkpoint was loaded without its Adam moments "
                             "(load_checkpoint(moments=False)); training cannot resume")
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.cond, self.dose = P.normalize_batch(list(samples.values()))
        self.schedule = D.make_schedule(cfg.model.t_steps, cfg.model.beta_start,
                                        cfg.model.beta_end)
        self.rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        self.start_step = 0
        if resume is None:
            self.model = DoseModel(cfg.model, cfg.seed)
        else:
            self.model = resume.model
            self.rng.bit_generator.state = resume.rng_state
            self.start_step = resume.step
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def _batch(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.dose.shape[0]
        k = min(self.cfg.train.batch_size, n)
        idx = self.rng.integers(0, n, size=k)
        return self.dose[idx], self.cond[idx]

    def run(self) -> List[float]:
        """Train to the last step, write ckpt_final.bin; returns each step's loss."""
        cfg = self.cfg
        total = cfg.train.steps
        losses = []
        log_path = self.out_dir / "loss_log.csv"
        with open(log_path, "w") as log:
            log.write("step,loss,lr\n")
            for step in range(self.start_step, total):
                lr = lr_at(step, total, cfg.train.lr, cfg.train.decay_start_frac)
                try:
                    value = fit_step(self.model, self._batch(), self.schedule, self.rng,
                                     lr, (cfg.train.beta1, cfg.train.beta2))
                except NumericFailure as e:
                    raise NumericFailure(f"{e} at step {step}") from None
                losses.append(value)
                log.write(f"{step},{value!r},{lr!r}\n")
                every = cfg.train.checkpoint_every
                if every and (step + 1) % every == 0 and (step + 1) < total:
                    self._save(self.out_dir / f"ckpt_step{step + 1:06d}.bin", step + 1)
        self._save(self.out_dir / "ckpt_final.bin", total)
        return losses

    def _save(self, path: Path, step: int) -> None:
        for name, p in self.model.store.items():   # no checkpoint of a diverged model
            if not np.isfinite(p.data).all():
                raise NumericFailure(f"parameter {name!r} is non-finite at step {step}; "
                                     f"{path.name} not written")
        save_checkpoint(path, self.cfg, self.model.store, step, self.rng)


# ---------------------------------------------------------------------------
# sampling + evaluation helpers


def case_seed_key(seed: int, case_id: str) -> tuple:
    """(seed, the id's numeric ``_N`` suffix, else its CRC32): a case's sampling
    key depends on its id alone, so it is order-independent and stable."""
    tail = case_id.rsplit("_", 1)[-1]
    return seed, int(tail) if tail.isdigit() else zlib.crc32(case_id.encode("utf-8"))


def sample_case(model: DoseModel, schedule: D.NoiseSchedule, sample: P.PhantomSample,
                seed_key) -> np.ndarray:
    """Reverse-diffuse one case; returns dose in prescription units.

    The final map is clipped to the valid normalized range before
    denormalization. seed_key may be any numpy SeedSequence key (ints or
    sequences of ints); ``case_seed_key`` gives each case its own.
    """
    with no_grad():
        stack = model.encode_structure(P.condition_batch([sample]))
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence(seed_key)))
    x = D.sample_loop(model, stack, schedule, rng, shape=(1, 1) + sample.ct.shape)
    return P.denormalize_dose(np.clip(x[0, 0], -1.0, 1.0))


def check_truth(truth: P.PhantomSample, case: str) -> None:
    """``metrics.check_truth`` as a DataError that names the case; ``ablate``
    runs it on every case it will score before anything trains."""
    try:
        M.check_truth(truth.dose, truth.body, truth.structures())
    except M.EmptyMaskError as e:
        raise DataError(f"case {case}: {e}") from None


def evaluate_case(pred_dose: np.ndarray, truth: P.PhantomSample,
                  case: str) -> M.MetricsReport:
    """Score one prediction against its truth case; ``eval`` and
    ``ablate`` both score through it. Every input it cannot score is a
    DataError that names the case; a fault of the prediction (its shape, a
    non-finite voxel, no positive mean dose in a non-empty PTV) is the
    subclass PredictionError, checked before the truth (``check_truth``)."""
    if pred_dose.shape != truth.dose.shape:
        raise PredictionError(f"case {case}: prediction is {pred_dose.shape} but its "
                              f"truth case is {truth.dose.shape}")
    bad = np.count_nonzero(~np.isfinite(pred_dose))
    if bad:
        raise PredictionError(f"case {case}: prediction has {bad} non-finite voxels")
    if truth.ptv.any() and pred_dose[truth.ptv].astype(np.float64).mean() <= 0.0:
        raise PredictionError(f"case {case}: prediction has no positive mean dose in the PTV")
    check_truth(truth, case)
    return M.compute_metrics(pred_dose, truth.dose.astype(np.float64),
                             truth.body, truth.structures())


# ---------------------------------------------------------------------------
# ablation harness


@dataclass
class AblationRow:
    strategy: str
    reports: List[M.MetricsReport]
    wall_time_s: float


def fusion_ablation_matrix(cfg: RunConfig, strategies: Sequence[FusionStrategy],
                           data_dir, out_root) -> List[AblationRow]:
    """Train and evaluate each fusion strategy under identical data/seed.

    Every run shares the dataset, the training step budget, and the base
    seed; only the fusion wiring differs. Evaluation samples each test
    case (the training cases if the test split is empty) with a per-case
    seed and scores against ground truth. Every run config is validated (a
    repeated label is a ConfigError), every case read and every scored truth
    checked once before the first strategy trains, so a prediction that cannot
    be scored is the trained model's: a NumericFailure naming strategy and case.
    """
    runs = {}
    for strat in strategies:
        if strat.label() in runs:
            raise ConfigError(f"strategy {strat.label()} is listed more than once")
        runs[strat.label()] = validate(dataclasses.replace(
            cfg, model=dataclasses.replace(cfg.model, fusion=strat)))
    split = load_split(data_dir)
    train_cases = read_cases(data_dir, split.train, cfg.model, "split.json")
    eval_cases = (read_cases(data_dir, split.test, cfg.model, "split.json") if split.test
                  else train_cases)
    for cid, sample in eval_cases.items():
        check_truth(sample, cid)

    results = []
    for label, run_cfg in runs.items():
        t0 = time.perf_counter()
        trainer = Trainer(run_cfg, train_cases, Path(out_root) / f"ablate_{label}")
        trainer.run()
        reports = []
        for cid, sample in eval_cases.items():
            pred = sample_case(trainer.model, trainer.schedule, sample,
                               case_seed_key(cfg.seed, cid))
            try:
                reports.append(evaluate_case(pred, sample, cid))
            except PredictionError as e:
                raise NumericFailure(f"strategy {label}: {e}") from None
        wall = time.perf_counter() - t0
        results.append(AblationRow(strategy=label, reports=reports, wall_time_s=wall))
    return results
