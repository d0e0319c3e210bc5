"""One benchmark process: a dosediff command, or input preparation.

    python3 child.py JOB.json

The job file names the checkout root and either a ``dosediff`` command
line (run through ``dosediff.cli.main``, the installed entry point) or a
list of preparation steps. A command run writes a JSON record with its
exit code, unit timestamps, peak RSS and BLAS thread count; with
``trace`` set it also writes the spans of every traced call.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_command(job: dict) -> dict:
    import hostinfo
    import tracer
    mods = tracer.import_package()
    trc = None
    if job["trace"]:
        trc = tracer.Tracer()
        trc.install(mods)
    marks = tracer.Marks()
    marks.install(mods)

    error = None
    t_main = perf_counter()
    try:
        rc = mods["cli"].main(job["argv"])
    except SystemExit as e:        # argparse rejects the command line
        rc = e.code if isinstance(e.code, int) else 1
        error = f"SystemExit({e.code!r})"
    except Exception:              # any traceback is a failed command
        rc = 1
        error = traceback.format_exc()
    t_end = perf_counter()
    if trc is not None:
        trc.dump(job["spans"])
    return {"rc": rc, "error": error, "main": [t_main, t_end], "marks": marks.calls,
            "peak_rss_mb": _peak_rss_mb(), "blas": hostinfo.blas_info()}


def prepare(job: dict) -> dict:
    """Untimed input generation: datasets, untrained checkpoints, stand-ins."""
    import dataclasses

    import numpy as np
    from dosediff import cli, phantom
    from dosediff.checkpoint import save_checkpoint
    from dosediff.config import load_config
    from dosediff.networks import DoseModel

    for step in job["steps"]:
        op = step["op"]
        if op == "cli":
            rc = cli.main(step["argv"])
            if rc != 0:
                raise RuntimeError(f"preparation command failed ({rc}): {step['argv']}")
        elif op == "checkpoint":
            cfg = dataclasses.replace(load_config(step["config"]), seed=step["seed"])
            model = DoseModel(cfg.model, cfg.seed)
            save_checkpoint(step["out"], cfg, model.store, 0,
                            np.random.default_rng(np.random.PCG64(cfg.seed)))
        elif op == "standin":
            # a seeded stand-in prediction: a smooth field in prescription units
            rng = np.random.default_rng(np.random.PCG64(step["seed"]))
            n = step["size"]
            yy, xx = np.mgrid[0:n, 0:n] / n
            field = 0.8 + 0.3 * np.sin(2 * np.pi * (rng.uniform() + yy * rng.uniform(0.5, 2)))
            field *= 1.0 + 0.05 * np.cos(2 * np.pi * xx * rng.uniform(0.5, 2))
            field += rng.normal(0.0, 0.02, (n, n))
            phantom.write_dose_map(step["out"], np.clip(field, 0.0, 1.25),
                                   meta={"standin_seed": str(step["seed"])})
        else:
            raise ValueError(f"unknown preparation step {op!r}")
    return {"rc": 0, "peak_rss_mb": _peak_rss_mb()}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    record = run_command(job) if job["kind"] == "command" else prepare(job)
    Path(job["record"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
