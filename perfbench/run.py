"""dosediff benchmark: one workload per invocation, fresh processes per command.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 35 --trace 0

Run from the root of a dosediff checkout. Each command of the workload
runs in a fresh Python process through ``dosediff.cli.main(argv)``,
one at a time (closed loop, one client). With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import hostinfo    # noqa: E402
import tracer      # noqa: E402

REF_SEED = 0             # inputs of the reference pass, whose outputs are stored
RUN_LIMIT_S = 170.0      # a run ends well inside the 180 s it is allowed
TRAIN_STEPS = 20         # steps per train-desk pass
PAPER_T_STEPS = 2        # reverse steps of the paper-scale copy
PAPER_CASES = 2          # cases generated per pipeline-paper pass
PAPER_SAMPLED = "sample_00000"

# Forward ops the model calls (``mul`` and ``slice_`` exist but are unused).
TENSOR_OPS = ("conv2d", "matmul", "layer_norm", "softmax", "gelu", "relu", "add", "smul",
              "concat", "roll", "upsample2", "reshape", "permute", "mse_loss")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A named sequence of dosediff commands, repeated as passes.

    ``prepare`` lists untimed steps that make one input set from a seed;
    ``commands`` lists the timed commands of one pass over an input set.
    ``unit_parts`` names the command kinds whose median unit times add
    up to the workload's ``unit_ms``.
    """

    name = ""
    why = ""
    unit_parts: tuple = ()
    min_passes = 3

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work

    def prepare(self, inputs: Path, seed: int) -> list:
        raise NotImplementedError

    def commands(self, inputs: Path, seed: int, pass_dir: Path) -> list:
        raise NotImplementedError

    @property
    def desk_config(self) -> str:
        return str(self.root / "configs" / "desk.json")


class TrainDesk(Workload):
    name = "train-desk"
    why = "training steps at desk scale: per-op overhead, backward, Adam, checkpoint writes"
    unit_parts = ("train",)

    def prepare(self, inputs, seed):
        return [{"op": "cli", "argv": ["gen-data", "--config", self.desk_config,
                                       "--seed", str(seed), "--out", str(inputs / "data")]}]

    def commands(self, inputs, seed, pass_dir):
        out = pass_dir / "run"
        return [{"kind": "train", "out": str(out),
                 "units": [f"step{i:03d}" for i in range(TRAIN_STEPS)],
                 "argv": ["train", "--config", self.desk_config, "--data", str(inputs / "data"),
                          "--out", str(out), "--steps", str(TRAIN_STEPS), "--seed", str(seed)]}]


class SampleDesk(Workload):
    name = "sample-desk"
    why = "forward-only reverse sampling at desk scale, B=1, T=100; training code idle"
    unit_parts = ("sample",)

    def prepare(self, inputs, seed):
        return [{"op": "cli", "argv": ["gen-data", "--config", self.desk_config,
                                       "--seed", str(seed), "--out", str(inputs / "data")]},
                {"op": "checkpoint", "config": self.desk_config, "seed": seed,
                 "out": str(inputs / "ckpt.bin")}]

    def commands(self, inputs, seed, pass_dir):
        split = json.loads((inputs / "data" / "split.json").read_text())
        out = pass_dir / "pred"
        return [{"kind": "sample", "out": str(out), "units": list(split["test"]),
                 "argv": ["sample", "--checkpoint", str(inputs / "ckpt.bin"),
                          "--data", str(inputs / "data"), "--cases", "test",
                          "--out", str(out), "--seed", str(seed)]}]


class PipelinePaper(Workload):
    name = "pipeline-paper"
    why = "gen-data, sample and eval at 256 px: BLAS-bound convs, beam dose, big checkpoint"
    unit_parts = ("gen", "sample", "eval")
    min_passes = 2

    def __init__(self, root: Path, work: Path):
        super().__init__(root, work)
        # the paper-scale config with only t_steps and n_samples changed
        cfg = json.loads((root / "configs" / "paper_scale.json").read_text())
        cfg["model"]["t_steps"] = PAPER_T_STEPS
        cfg["data"]["n_samples"] = PAPER_CASES
        self.image_size = cfg["model"]["image_size"]
        self.config = work / "paper_bench.json"
        self.config.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")

    def case_ids(self) -> list:
        return [f"sample_{i:05d}" for i in range(PAPER_CASES)]

    def prepare(self, inputs, seed):
        steps = [{"op": "checkpoint", "config": str(self.config), "seed": seed,
                  "out": str(inputs / "ckpt.bin")}]
        for i, cid in enumerate(self.case_ids()):
            if cid != PAPER_SAMPLED:
                steps.append({"op": "standin", "size": self.image_size, "seed": seed * 1000 + i,
                              "out": str(inputs / "standin" / f"{cid}.spdp")})
            steps.append({"op": "standin", "size": self.image_size,
                          "seed": seed * 1000 + 500 + i,
                          "out": str(inputs / "compare" / f"{cid}.spdp")})
        (inputs / "standin").mkdir(parents=True, exist_ok=True)
        (inputs / "compare").mkdir(parents=True, exist_ok=True)
        return steps

    def commands(self, inputs, seed, pass_dir):
        data, pred, ev = pass_dir / "data", pass_dir / "pred", pass_dir / "eval"
        shutil.copytree(inputs / "standin", pred)
        ids = self.case_ids()
        return [
            {"kind": "gen", "out": str(data), "units": ids,
             "argv": ["gen-data", "--config", str(self.config), "--seed", str(seed),
                      "--out", str(data)]},
            {"kind": "sample", "out": str(pred), "units": [PAPER_SAMPLED],
             "argv": ["sample", "--checkpoint", str(inputs / "ckpt.bin"), "--data", str(data),
                      "--cases", PAPER_SAMPLED, "--out", str(pred), "--seed", str(seed)]},
            {"kind": "eval", "out": str(ev), "units": ids,
             "argv": ["eval", "--pred", str(pred), "--truth", str(data), "--out", str(ev),
                      "--compare", str(inputs / "compare")]},
        ]


WORKLOADS = {w.name: w for w in (TrainDesk, SampleDesk, PipelinePaper)}


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts one child process at a time and waits for it to end."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.jobs = 0

    def run(self, job: dict) -> tuple:
        """(record, spawn time). Kills the child at the run deadline.

        A child that ends without writing its record gets a record with a
        non-zero ``rc`` and the tail of its log as ``error``.
        """
        self.jobs += 1
        stem = self.work / "jobs" / f"{self.jobs:03d}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        job = dict(job, root=str(self.root), record=f"{stem}.record.json",
                   spans=f"{stem}.spans.npz")
        Path(f"{stem}.job.json").write_text(json.dumps(job))
        with open(f"{stem}.log", "wb") as log:
            t_spawn = perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), f"{stem}.job.json"],
                                    cwd=self.root, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        record_path = Path(job["record"])
        if proc.returncode != 0 or not record_path.exists():
            tail = Path(f"{stem}.log").read_text(errors="replace")[-2000:]
            return {"rc": proc.returncode or 1, "error": tail}, t_spawn
        record = json.loads(record_path.read_text())
        record["spans"] = job["spans"] if job.get("trace") else None
        return record, t_spawn


def unit_times(kind: str, record: dict, n_units: int) -> tuple:
    """(set-up end, [seconds per unit]) from a command's timestamps."""
    marks, (_, t_end) = record["marks"], record["main"]
    if kind == "train":
        (run_start, run_end), = marks["train.Trainer.run"]
        steps = [s for s, _ in marks["diffusion.training_step"]]
        bounds = [run_start] + steps[1:] + [run_end]
        return run_start, list(np.diff(bounds))
    if kind == "eval":
        first = marks["phantom.read_dose_map"][0][0]
        return first, [(t_end - first) / n_units]
    starts = [s for s, _ in marks["train.sample_case" if kind == "sample"
                                  else "phantom.generate_phantom"]]
    return starts[0], list(np.diff(starts + [t_end]))


def run_pass(wl: Workload, runner: Runner, inputs: Path, seed: int, index: int,
             traced: bool) -> dict:
    pass_dir = wl.work / f"pass{index:02d}"
    pass_dir.mkdir(parents=True)
    result = {"index": index, "seed": seed, "traced": traced, "commands": [], "ok": True}
    t0 = perf_counter()
    for cmd in wl.commands(inputs, seed, pass_dir):
        entry = dict(cmd, ok=False)
        result["commands"].append(entry)
        if not result["ok"]:
            continue                    # an earlier command failed: its units fail too
        record, t_spawn = runner.run({"kind": "command", "argv": cmd["argv"], "trace": traced})
        entry["rc"] = record["rc"]
        if record["rc"] != 0:
            entry["error"] = record["error"]
            result["ok"] = False
            continue
        try:
            first_unit, times = unit_times(cmd["kind"], record, len(cmd["units"]))
        except (KeyError, IndexError, ValueError):
            entry["error"] = "unit boundaries missing from the command's record"
            result["ok"] = False
            continue
        entry.update(ok=True, setup_s=first_unit - t_spawn, unit_s=times,
                     peak_rss_mb=record["peak_rss_mb"], blas_threads=record["blas"]["threads"],
                     spans=record["spans"])
    result["wall_s"] = perf_counter() - t0
    if result["ok"]:
        result["setup_s"] = sum(c["setup_s"] for c in result["commands"])
        result["peak_rss_mb"] = max(c["peak_rss_mb"] for c in result["commands"])
    return result


# ---------------------------------------------------------------------------
# checks


def check_passes(passes: list, reference: dict, phantom) -> dict:
    """Status of every attempted unit; pass 0 against the stored reference
    (by sanity alone when ``reference`` is None, i.e. while writing it),
    the first seeded pass by sanity, later seeded passes against it."""
    tally = {"attempted": 0, "failed": 0, "bitwise_mismatch": 0, "failures": []}
    first_seeded = None
    for p in passes:
        outputs = {}
        for cmd in p["commands"]:
            kind = cmd["kind"]
            got = checks.read_outputs(kind, cmd, phantom) if cmd["ok"] else {}
            outputs[kind] = got
            for uid in cmd["units"]:
                payload = got.get(uid)
                if not cmd["ok"]:
                    status = "fail"
                elif p["index"] == 0 and reference is not None:
                    status = checks.compare_unit(payload, reference.get(kind, {}).get(uid))
                elif p["index"] == 0 or first_seeded is None:
                    status = "bitwise" if checks.sane_unit(kind, payload) else "fail"
                else:
                    status = checks.compare_unit(payload, first_seeded.get(kind, {}).get(uid))
                    if status != "fail" and not checks.sane_unit(kind, payload):
                        status = "fail"
                tally["attempted"] += 1
                if status == "fail":
                    tally["failed"] += 1
                    tally["failures"].append(f"pass {p['index']} {kind} {uid}")
                elif status == "tolerance":
                    tally["bitwise_mismatch"] += 1
        p["outputs"] = outputs
        if p["index"] > 0 and first_seeded is None:
            first_seeded = outputs
    return tally


# ---------------------------------------------------------------------------
# metrics


def median_and_tail(values: list) -> dict:
    """Median, plus the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail_pct": None, "tail": None}
    if n > 10:
        pct = math.floor(100.0 * (n - 10) / n)
        ordered = sorted(values)
        out["tail_pct"] = pct
        out["tail"] = ordered[max(1, math.ceil(pct / 100.0 * n)) - 1]
    return out


def command_stats(passes: list) -> dict:
    """Per command kind: unit times pooled over passes (seconds)."""
    pooled: dict = {}
    for p in passes:
        if p["ok"]:
            for c in p["commands"]:
                pooled.setdefault(c["kind"], []).extend(c["unit_s"])
    return {kind: median_and_tail(v) for kind, v in pooled.items()}


def unit_ms(wl: Workload, passes: list):
    stats = command_stats(passes)
    if not all(k in stats for k in wl.unit_parts):
        return None
    return 1e3 * sum(stats[k]["median"] for k in wl.unit_parts)


def end_to_end(wl: Workload, passes: list) -> dict:
    ok = [p for p in passes if p["ok"]]
    if not ok:
        return {}
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in ok), "s"),
        "unit_ms": (unit_ms(wl, ok), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok), "MB"),
    }


def per_layer(wl: Workload, passes: list) -> dict:
    traced = [p for p in passes if p["ok"] and p["traced"]]
    plain = [p for p in passes if p["ok"] and not p["traced"]]
    if not traced or not plain:
        return {}
    calls_self: dict = {}
    counters = dict.fromkeys(tracer.COUNTERS, 0.0)
    for p in traced:
        for c in p["commands"]:
            with np.load(c["spans"], allow_pickle=False) as spans:
                for name, (n, total) in tracer.self_times(spans).items():
                    old = calls_self.get(name, (0, 0.0))
                    calls_self[name] = (old[0] + n, old[1] + total)
                for k, v in json.loads(str(spans["counters"])).items():
                    counters[k] += v
    n_pass = len(traced)

    def ms(name):
        n, total = calls_self.get(name, (0, 0.0))
        return 1e3 * total / n if n else 0.0

    def calls(name):
        return calls_self.get(name, (0, 0.0))[0] / n_pass

    def per(num, den):
        return num / den if den else 0.0

    m = {
        "tensor.backward.ms": (ms("tensor.backward"), "ms"),
        "tensor.backward.calls": (calls("tensor.backward"), "count"),
        "tensor.graph.nodes": (per(counters["graph.nodes"], counters["graph.losses"]), "count"),
        "tensor.graph.nodes_reshape_permute": (
            per(counters["graph.nodes_reshape_permute"], counters["graph.losses"]), "count"),
    }
    for op in TENSOR_OPS:
        m[f"tensor.{op}.ms"] = (ms(f"tensor.{op}"), "ms")
        m[f"tensor.{op}.calls"] = (calls(f"tensor.{op}"), "count")
    conv_s = calls_self.get("tensor.conv2d", (0, 0.0))[1]
    matmul_s = calls_self.get("tensor.matmul", (0, 0.0))[1]
    m["tensor.conv2d.gflop"] = (counters["conv2d.flop"] / 1e9 / n_pass, "GFLOP")
    m["tensor.conv2d.gflop_per_s"] = (per(counters["conv2d.flop"] / 1e9, conv_s), "GFLOP/s")
    m["tensor.matmul.gflop_per_s"] = (per(counters["matmul.flop"] / 1e9, matmul_s), "GFLOP/s")
    m["optim.adam_step.ms"] = (ms("optim.adam_step"), "ms")
    m["optim.param_tensors"] = (per(counters["adam.param_tensors"], counters["adam.calls"]),
                                "count")
    for name in ("diffusion.training_step", "diffusion.corrupt_batch",
                 "diffusion.sample_loop", "diffusion.p_sample_step"):
        m[f"{name}.ms"] = (ms(name), "ms")
    for name in ("networks.encode_structure", "networks.predict_noise"):
        m[f"{name}.ms"] = (ms(name), "ms")
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("swin_block", "window_attention", "cross_attention_fuse",
                 "projector_forward", "channel_layer_norm", "time_embedding"):
        m[f"blocks.{name}.ms"] = (ms(f"blocks.{name}"), "ms")
    for name in ("generate_phantom", "beam_dose", "write_sample", "read_sample",
                 "write_dose_map", "read_dose_map", "normalize_batch"):
        m[f"phantom.{name}.ms"] = (ms(f"phantom.{name}"), "ms")
    m["metrics.compute_metrics.ms"] = (ms("metrics.compute_metrics"), "ms")
    m["metrics.dvh_curve.ms"] = (ms("metrics.dvh_curve"), "ms")
    m["metrics.d_stat.calls"] = (calls("metrics.d_stat"), "count")
    m["checkpoint.load_checkpoint.ms"] = (ms("checkpoint.load_checkpoint"), "ms")
    m["checkpoint.save_checkpoint.ms"] = (ms("checkpoint.save_checkpoint"), "ms")
    m["checkpoint.bytes"] = (counters["checkpoint.bytes"] / n_pass, "B")
    m["render.write_pgm.ms"] = (ms("render.write_pgm"), "ms")
    m["render.write_ppm_diff.ms"] = (ms("render.write_ppm_diff"), "ms")
    traced_ms, plain_ms = unit_ms(wl, traced), unit_ms(wl, plain)
    m["trace.unit_ms"] = (traced_ms, "ms")
    m["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    return m


# ---------------------------------------------------------------------------
# report


# per command kind: the name its unit time is printed under, scale, unit
COMMAND_METRICS = {"train": ("train.step_ms", 1e3, "ms"), "sample": ("sample.case_s", 1.0, "s"),
                   "gen": ("gen_data.case_s", 1.0, "s"), "eval": ("eval.case_ms", 1e3, "ms")}


def report_lines(wl, seed, trace, passes, tally, metrics, env, noise) -> list:
    lines = [f"workload {wl.name} seed {seed} trace {trace}: {len(passes)} passes "
             f"({sum(p['traced'] for p in passes)} traced), closed loop, one client"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<38} {value:14.6g} {unit}")
    for kind, st in command_stats(passes).items():
        label, scale, unit = COMMAND_METRICS[kind]
        tail = (f"p{st['tail_pct']} {st['tail'] * scale:.6g} {unit}" if st["tail"] is not None
                else "tail n/a (10 or fewer samples)")
        lines.append(f"  {label:<38} median {st['median'] * scale:.6g} {unit}, {tail}, "
                     f"n={st['n']}")
    rate = tally["failed"] / tally["attempted"] if tally["attempted"] else 0.0
    lines.append(f"  error_rate {rate:.6g} ({tally['failed']} of {tally['attempted']} units failed; "
                 f"{tally['bitwise_mismatch']} within tolerance but not bitwise)")
    for f in tally["failures"][:10]:
        lines.append(f"    failed: {f}")
    blas = env["blas"]
    threads = sorted({c.get("blas_threads") for p in passes for c in p["commands"]
                      if c.get("blas_threads") is not None})
    lines.append(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
                 f"scipy {env['scipy']}, BLAS {blas['library']} ({blas['config']}), "
                 f"threads in the program {threads}")
    for when in ("before", "after"):
        snap, k = noise[when], noise[when]["reference_kernel"]
        lines.append(f"  host {when}: loadavg {' '.join(f'{x:.2f}' for x in snap['loadavg'])}, "
                     f"{k['kernel']} median {k['median_ms']:.4f} ms "
                     f"(q1 {k['q1_ms']:.4f}, q3 {k['q3_ms']:.4f})")
    steal = noise["steal_pct"]
    lines.append("  host steal during the run: "
                 + ("unknown" if steal is None else f"{steal:.2f}% of machine CPU time"))
    return lines


def program_present(root: Path) -> bool:
    return all((root / p).is_file() for p in (
        "src/dosediff/cli.py", "configs/desk.json", "configs/paper_scale.json"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="store this run's reference-pass outputs as the new reference")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    if not program_present(root):
        print(f"error: no dosediff checkout at {root} (need src/dosediff and configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from dosediff import phantom    # the program's own readers decode its files

    base = root / ".perfbench"
    work = base / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results = base / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    ref_path = HERE / "reference" / f"{args.workload}.npz"
    try:
        wl = WORKLOADS[args.workload](root, work)
        runner = Runner(root, work, t_start + RUN_LIMIT_S)
        env = hostinfo.environment()
        noise = {"before": hostinfo.noise_snapshot()}
        input_sets = {REF_SEED: work / "inputs-ref", args.seed: work / "inputs-seed"}
        for seed, inputs in input_sets.items():
            inputs.mkdir(parents=True, exist_ok=True)
            record, _ = runner.run({"kind": "prepare", "steps": wl.prepare(inputs, seed)})
            if record["rc"] != 0:
                print(f"error: input preparation failed:\n{record['error']}", file=sys.stderr)
                return 1
        reference = None if args.update_reference else checks.load_reference(ref_path)

        passes = []
        t_measure = perf_counter()
        while True:
            i = len(passes)
            seed = REF_SEED if i == 0 else args.seed
            traced = bool(args.trace) and i % 2 == 0
            passes.append(run_pass(wl, runner, input_sets[seed], seed, i, traced))
            walls = [p["wall_s"] for p in passes]
            if perf_counter() + 1.5 * max(walls) > t_start + RUN_LIMIT_S:
                break
            # stop when one more pass of typical length would end mostly after --seconds
            half_next = perf_counter() - t_measure + statistics.median(walls) / 2
            if len(passes) >= wl.min_passes and half_next > args.seconds:
                break
        noise["after"] = hostinfo.noise_snapshot()
        noise["steal_pct"] = hostinfo.steal_pct(noise["before"], noise["after"])

        tally = check_passes(passes, reference, phantom)
        if args.update_reference and passes[0]["ok"]:
            checks.save_reference(ref_path, passes[0]["outputs"])
        metrics = per_layer(wl, passes) if args.trace else end_to_end(wl, passes)
        if not metrics or any(v is None for v, _ in metrics.values()):
            print("error: no pass completed; nothing to measure", file=sys.stderr)
            for p in passes:
                for c in p["commands"]:
                    if c.get("error"):
                        print(c["error"], file=sys.stderr)
            return 1

        lines = report_lines(wl, args.seed, args.trace, passes, tally, metrics, env, noise)
        print("\n".join(lines))
        if args.trace:
            spans = next(c["spans"] for p in passes if p["traced"] and p["ok"]
                         for c in p["commands"])
            shutil.copy(spans, results / f"{args.workload}.spans.npz")
        summary = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "why": wl.why, "environment": env, "host_noise": noise,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "commands": {COMMAND_METRICS[k][0]: v for k, v in command_stats(passes).items()},
            "checks": tally,
            "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        }
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1, default=float) + "\n")
        print(json.dumps({
            "correct": tally["failed"] == 0, "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
