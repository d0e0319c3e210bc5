"""Command-line harness: data generation, training, sampling,
evaluation, ablation sweeps, and schedule dumps.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
Every command is deterministic given (config, seed): reruns produce
byte-identical result files (wall-clock timings are segregated into
their own file).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import diffusion as D
from . import metrics as M
from . import phantom as P
from . import train as TR
from .checkpoint import load_checkpoint, restore_into
from .config import ConfigError, dumps_config, load_config
from .networks import DoseModel, FusionStrategy
from .render import write_pgm, write_ppm_diff


def _load_cfg(args):
    if getattr(args, "config", None) is None:
        raise ConfigError("--config is required for this command")
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
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
    ckpt = load_checkpoint(args.resume) if args.resume else None
    if args.config:
        cfg = _load_cfg(args)
        if ckpt is not None and dumps_config(cfg) != dumps_config(ckpt.config):
            raise ConfigError("config file does not match the checkpoint's config")
    elif ckpt is not None:
        cfg = ckpt.config
    else:
        raise ConfigError("train needs --config or --resume")
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {args.steps}")
        if ckpt is not None and args.steps < ckpt.step:
            raise ConfigError(f"--steps {args.steps} is below the checkpoint's step "
                              f"{ckpt.step}")
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, steps=args.steps))
    out = Path(args.out or cfg.out_dir)
    trainer = TR.Trainer(cfg, args.data, out, resume=ckpt)
    result = trainer.run()
    first = result.losses[0] if result.losses else float("nan")
    last = result.losses[-1] if result.losses else float("nan")
    print(f"trained {result.steps_run} steps: loss {first:.4f} -> {last:.4f}; "
          f"checkpoint {result.final_checkpoint}")
    return 0


def _resolve_cases(spec: str, data_dir) -> list:
    if spec in ("train", "val", "test", "all"):
        split = TR.load_split(data_dir)
        if spec == "all":
            return split.all_ids()
        return getattr(split, spec)
    return [c for c in spec.split(",") if c]


def cmd_sample(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    cfg = ckpt.config
    model = DoseModel(cfg.model, cfg.seed)
    restore_into(model.store, ckpt)
    schedule = D.make_schedule(cfg.model.t_steps, cfg.model.beta_start, cfg.model.beta_end)
    base_seed = args.seed if args.seed is not None else cfg.seed
    cases = _resolve_cases(args.cases, args.data)
    if not cases:
        raise TR.DataError("no cases to sample")
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cid in cases:
        truth = P.read_sample(TR.sample_path(args.data, cid))
        pred = TR.sample_case(model, schedule, truth, (base_seed, TR._case_index(cid)))
        P.write_dose_map(out / f"{cid}.spdp", pred,
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


def _write_metric_files(out: Path, rows: dict) -> None:
    lines = [",".join(M.MetricsReport.CSV_COLUMNS)]
    for cid in sorted(rows):
        lines.append(rows[cid].csv_row(cid))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")

    summary = ["metric,mean,std,formatted"]
    for attr, col in (("dose_score_relative", "dose_score_rel"),
                      ("dose_score_mae", "dose_score_mae"),
                      ("dvh_score", "dvh_score"), ("hi", "hi")):
        mean, std, text = M.summarize([getattr(r, attr) for r in rows.values()])
        summary.append(f"{col},{mean!r},{std!r},{text}")
    (out / "metrics_summary.csv").write_text("\n".join(summary) + "\n")


def cmd_eval(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cases = _matched_cases(args.pred, args.truth)
    rows = {}
    for cid in cases:
        pred = P.read_dose_map(Path(args.pred) / f"{cid}.spdp").astype(np.float64)
        truth = P.read_sample(TR.sample_path(args.truth, cid))
        rows[cid] = TR.evaluate_case(pred, truth, cid)
        curves = []
        for name, mask in truth.structures().items():
            curves.append(M.dvh_curve(pred, mask, structure=f"{name}_pred"))
            curves.append(M.dvh_curve(truth.dose.astype(np.float64), mask,
                                      structure=f"{name}_truth"))
        (out / f"dvh_{cid}.csv").write_text(M.dvh_csv(curves))
        (out / f"report_{cid}.txt").write_text(rows[cid].kv_text())
    _write_metric_files(out, rows)

    if args.compare:
        comp_cases = _matched_cases(args.compare, args.truth)
        shared = sorted(set(cases) & set(comp_cases))
        if len(shared) < 2:
            raise TR.DataError("need at least two shared cases for a paired t-test")
        comp_rows = {}
        for cid in shared:
            pred = P.read_dose_map(Path(args.compare) / f"{cid}.spdp").astype(np.float64)
            truth = P.read_sample(TR.sample_path(args.truth, cid))
            comp_rows[cid] = TR.evaluate_case(pred, truth, cid)
        lines = ["metric,t,df,p"]
        for attr, col in (("dose_score_mae", "dose_score_mae"),
                          ("dvh_score", "dvh_score"), ("hi", "hi")):
            a = [getattr(rows[c], attr) for c in shared]
            b = [getattr(comp_rows[c], attr) for c in shared]
            try:
                t, df, p = M.paired_t_test(a, b)
                lines.append(f"{col},{t!r},{df},{p!r}")
            except M.DegenerateVarianceError:
                lines.append(f"{col},nan,{len(shared) - 1},nan")
        (out / "ttest.csv").write_text("\n".join(lines) + "\n")

    print(f"evaluated {len(cases)} cases -> {out / 'metrics.csv'}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    try:
        strategies = [FusionStrategy.parse(s) for s in args.strategies.split(",") if s]
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if not strategies:
        raise ConfigError("no strategies given")
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = TR.fusion_ablation_matrix(cfg, strategies, args.data, out)
    lines = ["strategy,dose_score_rel,dose_score_mae,dvh_score,hi,n_cases"]
    timing = ["strategy,wall_time_s"]
    for strat, _model, row in results:
        lines.append(",".join([
            row.strategy,
            repr(row.mean("dose_score_relative")), repr(row.mean("dose_score_mae")),
            repr(row.mean("dvh_score")), repr(row.mean("hi")), str(len(row.reports)),
        ]))
        timing.append(f"{row.strategy},{row.wall_time_s:.3f}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")
    (out / "ablation_timing.csv").write_text("\n".join(timing) + "\n")
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
        Path(args.out).write_text(text)
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
    p.add_argument("--beta-start", type=float, default=1e-4)
    p.add_argument("--beta-end", type=float, default=0.02)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_schedule)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (TR.DataError, P.SampleFormatError, M.EmptyMaskError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except TR.NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
