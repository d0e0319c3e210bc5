#!/usr/bin/env python3
"""Overfit a tiny model on a handful of phantoms and sample them back.

This is the same protocol as acceptance criterion 5, exposed as a
standalone experiment: it reports the loss-reduction factor and the
normalized-dose MAE of full reverse sampling against ground truth, and
writes renders plus a loss curve CSV.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from dosediff import diffusion as D
from dosediff import phantom as P
from dosediff.config import FusionStrategy, ModelConfig
from dosediff.networks import DoseModel
from dosediff.render import write_pgm, write_ppm_diff
from dosediff.train import fit_step, lr_at, sample_case


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--size", type=int, default=16)
    ap.add_argument("--cases", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--lr", type=float, default=2e-3)
    ap.add_argument("--t-steps", type=int, default=50)
    ap.add_argument("--fusion", default="attn-last2")
    ap.add_argument("--out", default="runs/overfit_smoke")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = ModelConfig(image_size=args.size, oar_count=3, base_channels=4,
                      stage_multipliers=(1, 2, 4, 8), window=2, heads=2,
                      projector_ratio=4, use_projector=True,
                      fusion=FusionStrategy.parse(args.fusion),
                      t_steps=args.t_steps, beta_start=1e-4, beta_end=0.35)

    samples = [P.generate_phantom(100 + i, args.size, 3, 5) for i in range(args.cases)]
    cond, dose = P.normalize_batch(samples)
    sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
    model = DoseModel(cfg, args.seed)
    rng = np.random.default_rng(np.random.PCG64(args.seed))

    t0 = time.time()
    losses = []
    with open(out / "loss_curve.csv", "w") as log:
        log.write("step,loss,lr\n")
        for step in range(args.steps):
            lr = lr_at(step, args.steps, args.lr, 0.5)
            value = fit_step(model, (dose, cond), sched, rng, lr, (0.9, 0.999))
            losses.append(value)
            log.write(f"{step},{value!r},{lr!r}\n")
            if step % max(1, args.steps // 10) == 0:
                print(f"step {step:5d}  loss {value:.4f}  ({time.time() - t0:.0f}s)")

    tail = float(np.mean(losses[-50:]))
    print(f"loss: {losses[0]:.4f} -> {tail:.4f} ({losses[0] / tail:.1f}x reduction)")

    maes = []
    for i, s in enumerate(samples):
        pred = sample_case(model, sched, s, 1234 + i)
        maes.append(float(np.abs(P.normalize_dose(pred) - dose[i, 0]).mean()))
        write_pgm(out / f"case{i}_pred.pgm", pred)
        write_pgm(out / f"case{i}_truth.pgm", s.dose.astype(np.float64))
        write_ppm_diff(out / f"case{i}_diff.ppm", pred - s.dose.astype(np.float64))
        print(f"case {i}: normalized MAE {maes[-1]:.4f}")
    print(f"mean normalized MAE {np.mean(maes):.4f}  "
          f"(total {time.time() - t0:.0f}s, renders in {out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
