"""Command-line harness: data generation, training, sampling,
evaluation, ablation sweeps, and schedule dumps.

Exit codes: 0 success, 2 config or argument error (config.validate's
rules), 3 data error (a missing or malformed input, a case id that is
not a plain file name, a path too long for the file system, or a path
of the wrong kind: an --out naming a file, a checkpoint naming a
directory), 4 numeric failure (a non-finite loss or parameter, or an
``ablate`` prediction that cannot be scored, which ``eval`` calls a
data error); any other fault, such as a full disk, is a traceback.
Every command is deterministic given (config, seed): reruns produce
byte-identical result files (wall-clock timings are segregated into
their own file).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import errno
import sys
from pathlib import Path

import numpy as np

from . import diffusion as D
from . import metrics as M
from . import phantom as P
from . import train as TR
from .atomic import write_atomic
from .checkpoint import load_checkpoint
from .config import (ConfigError, FusionStrategy, ModelConfig, check_seed, dumps_config,
                     load_config, validate)
from .render import write_pgm, write_ppm_diff


def _load_cfg(args):
    if getattr(args, "config", None) is None:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    if args.seed is not None:   # checked by main
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, seed=args.seed))
    out = Path(args.out or cfg.out_dir)
    split = TR.generate_dataset(cfg, out)
    print(f"wrote {cfg.data.n_samples} samples to {out} "
          f"(train {len(split.train)} / val {len(split.val)} / test {len(split.test)})")
    return 0


def cmd_train(args) -> int:
    _keep_freed_memory()
    ckpt = load_checkpoint(args.resume) if args.resume else None
    if args.config:
        cfg = load_config(args.config)
    elif ckpt is not None:
        cfg = ckpt.config
    else:
        raise ConfigError("train needs --config or --resume")
    if args.seed is not None:   # checked by main
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if ckpt is not None and dumps_config(cfg) != dumps_config(ckpt.config):
        raise ConfigError("--config or --seed does not match the checkpoint's config")
    if args.steps is not None:
        if ckpt is not None and args.steps < ckpt.step:
            raise ConfigError(f"--steps {args.steps} is below the checkpoint's step "
                              f"{ckpt.step}")
        cfg = validate(dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, steps=args.steps)))
    out = Path(args.out or cfg.out_dir)
    # no reference kept here: the trainer holds only the normalized arrays
    losses = TR.Trainer(cfg, TR.read_cases(args.data, TR.load_split(args.data).train,
                                           cfg.model, "split.json"), out, resume=ckpt).run()
    first = losses[0] if losses else float("nan")
    last = losses[-1] if losses else float("nan")
    print(f"trained {len(losses)} steps: loss {first:.4f} -> {last:.4f}; "
          f"checkpoint {out / 'ckpt_final.bin'}")
    return 0


def _resolve_cases(spec: str, data_dir) -> list:
    if spec in ("train", "val", "test", "all"):
        split = TR.load_split(data_dir)
        if spec == "all":
            return split.all_ids()
        return getattr(split, spec)
    cases = [c for c in spec.split(",") if c]
    TR.check_case_ids(cases, "--cases")
    return cases


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep memory that sampling and training loops free in the process
    for reuse (glibc only; a no-op elsewhere).

    Every denoiser call and every training step frees and reallocates the
    same large arrays. By default glibc returns freed memory at the top of
    its heap to the kernel and serves requests above its mmap threshold
    with fresh pages, so each 256 px call would fault about 8,500 pages in
    again. A fixed mmap threshold at glibc's 32 MiB maximum and a 1 GiB
    trim threshold keep the freed memory for the next call.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if not hasattr(libc, "gnu_get_libc_version"):   # not glibc
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)


def cmd_sample(args) -> int:
    cases = _resolve_cases(args.cases, args.data)
    if not cases:
        raise TR.DataError("no cases to sample")
    _keep_freed_memory()
    ckpt = load_checkpoint(args.checkpoint, moments=False)
    cfg = ckpt.config
    truths = TR.read_cases(args.data, cases, cfg.model, "--cases")
    schedule = D.make_schedule(cfg.model.t_steps, cfg.model.beta_start, cfg.model.beta_end)
    base_seed = args.seed if args.seed is not None else cfg.seed
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)   # only once every input has been read
    for cid, truth in truths.items():
        pred = TR.sample_case(ckpt.model, schedule, truth, TR.case_seed_key(base_seed, cid))
        P.write_dose_map(TR.sample_path(out, cid), pred,
                         meta={"case": cid, "seed": str(base_seed)})
        write_pgm(out / f"{cid}.pgm", pred)
        write_ppm_diff(out / f"{cid}_diff.ppm",
                       pred - truth.dose.astype(np.float64))
        print(f"sampled {cid}")
    return 0


def _matched_cases(pred_dir, truth_dir) -> list:
    preds = sorted(p.stem for p in Path(pred_dir).glob("*.spdp"))
    if not preds:
        raise TR.DataError(f"no predictions in {pred_dir}")
    missing = [c for c in preds if not TR.sample_path(truth_dir, c).exists()]
    if missing:
        raise TR.DataError(f"cases missing from truth dir: {missing}")
    return preds


def _metric_files(rows: dict) -> dict:
    """{file name: text} of metrics.csv and metrics_summary.csv."""
    lines = [",".join(M.MetricsReport.CSV_COLUMNS)]
    for cid in sorted(rows):
        lines.append(rows[cid].csv_row(cid))
    summary = ["metric,mean,std,formatted"]
    for col, attr in M.SCORES:
        mean, std, text = M.summarize([getattr(r, attr) for r in rows.values()])
        summary.append(f"{col},{mean!r},{std!r},{text}")
    return {"metrics.csv": "\n".join(lines) + "\n",
            "metrics_summary.csv": "\n".join(summary) + "\n"}


def _score_case(pred_dir, truth_dir, cid: str):
    """Read one prediction and its truth case and score it:
    (prediction, truth, report)."""
    pred = P.read_dose_map(TR.sample_path(pred_dir, cid)).astype(np.float64)
    truth = P.read_sample(TR.sample_path(truth_dir, cid))
    return pred, truth, TR.evaluate_case(pred, truth, cid)


def cmd_eval(args) -> int:
    out = Path(args.out)
    cases = _matched_cases(args.pred, args.truth)
    if args.compare:
        shared = sorted(set(cases) & set(_matched_cases(args.compare, args.truth)))
        if len(shared) < 2:
            raise TR.DataError("need at least two shared cases for a paired t-test")
    files, rows = {}, {}
    for cid in cases:
        pred, truth, rows[cid] = _score_case(args.pred, args.truth, cid)
        curves = []
        for name, mask in truth.structures().items():
            curves.append(M.dvh_curve(pred, mask, structure=f"{name}_pred"))
            curves.append(M.dvh_curve(truth.dose.astype(np.float64), mask,
                                      structure=f"{name}_truth"))
        files[f"dvh_{cid}.csv"] = M.dvh_csv(curves)
        files[f"report_{cid}.txt"] = rows[cid].kv_text()
    files.update(_metric_files(rows))

    if args.compare:
        comp_rows = {cid: _score_case(args.compare, args.truth, cid)[2] for cid in shared}
        lines = ["metric,t,df,p"]
        for col, attr in M.SCORES[1:]:   # not the signed relative score
            a = [getattr(rows[c], attr) for c in shared]
            b = [getattr(comp_rows[c], attr) for c in shared]
            try:
                t, df, p = M.paired_t_test(a, b)
                lines.append(f"{col},{t!r},{df},{p!r}")
            except M.DegenerateVarianceError:
                lines.append(f"{col},nan,{len(shared) - 1},nan")
        files["ttest.csv"] = "\n".join(lines) + "\n"

    out.mkdir(parents=True, exist_ok=True)   # only after every prediction has scored
    for name, text in files.items():
        write_atomic(out / name, text)
    print(f"evaluated {len(cases)} cases -> {out / 'metrics.csv'}")
    return 0


def cmd_ablate(args) -> int:
    _keep_freed_memory()
    cfg = _load_cfg(args)
    strategies = [FusionStrategy.parse(s) for s in args.strategies.split(",") if s]
    if not strategies:
        raise ConfigError("no strategies given")
    out = Path(args.out or cfg.out_dir)
    rows = TR.fusion_ablation_matrix(cfg, strategies, args.data, out)   # creates out
    lines = [",".join(["strategy", *(col for col, _ in M.SCORES), "n_cases"])]
    timing = ["strategy,wall_time_s"]
    for row in rows:
        means = [repr(M.summarize([getattr(r, a) for r in row.reports])[0]) for _, a in M.SCORES]
        lines.append(",".join([row.strategy, *means, str(len(row.reports))]))
        timing.append(f"{row.strategy},{row.wall_time_s:.3f}")
    write_atomic(out / "ablation.csv", "\n".join(lines) + "\n")
    write_atomic(out / "ablation_timing.csv", "\n".join(timing) + "\n")
    print(f"ablation table -> {out / 'ablation.csv'}")
    return 0


def cmd_dump_schedule(args) -> int:
    s = D.make_schedule(args.steps, args.beta_start, args.beta_end)
    lines = ["t,beta,alpha,alpha_bar"]
    for i in range(s.T):
        lines.append(f"{i + 1},{float(s.beta[i])!r},{float(s.alpha[i])!r},"
                     f"{float(s.alpha_bar[i])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dosediff",
        description="Anatomy-conditioned diffusion dose prediction on synthetic phantoms")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("gen-data", help="generate phantom dataset + split manifest")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the model")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--steps", type=int, default=None, help="override total steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="reverse-diffuse dose maps for cases")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="truth dataset directory")
    p.add_argument("--cases", default="test",
                   help="comma list of ids, or train/val/test/all")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--compare", help="second prediction dir for paired t-tests")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train + evaluate several fusion strategies")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--strategies",
                   default="concatenate,add-all,attn-all,attn-last2")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("dump-schedule", help="print beta/alpha_bar tables as CSV")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--beta-start", type=float, default=ModelConfig.beta_start)
    p.add_argument("--beta-end", type=float, default=ModelConfig.beta_end)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_schedule)

    return ap


# OS faults that are bad input: a path that is missing, taken, of the wrong
# kind or too long for the file system; any other OSError is a traceback
INPUT_ERRNOS = (errno.ENOENT, errno.EEXIST, errno.EISDIR, errno.ENOTDIR, errno.ENAMETOOLONG)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:   # before any input is read
            check_seed(args.seed)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TR.DataError, P.SampleFormatError, OSError) as e:
        if isinstance(e, OSError) and e.errno not in INPUT_ERRNOS:
            raise
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except TR.NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
