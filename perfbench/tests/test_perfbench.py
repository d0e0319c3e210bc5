"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They cover input determinism, the output checks, the tracer, the schema
of BENCHMARK.json and of the result files, and the refusal to run
outside a dosediff checkout. The end-to-end cases run the benchmark on
train-desk with a one-second budget (about a minute in all).
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks   # noqa: E402
import run      # noqa: E402
import tracer   # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _digests(folder: Path) -> dict:
    return {str(p.relative_to(folder)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def _prepare(workload: str, seed: int, folder: Path, size: int = 32) -> dict:
    """Run a workload's preparation steps in a fresh process, as the benchmark does."""
    inputs = folder / "inputs"
    inputs.mkdir(parents=True)
    wl = run.WORKLOADS[workload](ROOT, folder)
    steps = wl.prepare(inputs, seed)
    if workload == "pipeline-paper":
        # keep the stand-ins, drop the 370 MB checkpoint; shrink the maps
        steps = [dict(s, size=size) for s in steps if s["op"] == "standin"]
    job = {"kind": "prepare", "steps": steps, "root": str(ROOT),
           "record": str(folder / "record.json")}
    (folder / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(folder / "job.json")],
                   check=True, cwd=ROOT, capture_output=True, timeout=120)
    return _digests(inputs)


@pytest.mark.parametrize("workload", ["sample-desk", "pipeline-paper"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = _prepare(workload, 7, tmp_path / "a")
    again = _prepare(workload, 7, tmp_path / "b")
    other = _prepare(workload, 8, tmp_path / "c")
    assert first and first == again
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first if not k.endswith("split.json"))


# ---------------------------------------------------------------------------
# checks


def test_compare_field_statuses():
    a = np.array([1.0, 0.5, 3.0], dtype=np.float32)
    one_step = np.nextafter(a, np.float32(2.0))
    assert checks.compare_field("dose", a, a.copy()) == "bitwise"
    assert checks.compare_field("dose", one_step, a) == "tolerance"
    assert checks.compare_field("dose", a * np.float32(1.001), a) == "fail"
    assert checks.compare_field("dose", a[:2], a) == "fail"
    assert checks.compare_field("ptv", np.float32([1, 0]), np.float32([1, 1])) == "fail"
    assert checks.compare_field("meta", np.array("x=1"), np.array("x=2")) == "fail"
    loss = np.float64(1.0)
    assert checks.compare_field("loss", loss * (1 + 2e-15), loss) == "tolerance"
    assert checks.compare_field("loss", loss * (1 + 1e-9), loss) == "fail"
    nan = np.array([np.nan, 1.0])
    assert checks.compare_field("ttest", nan, nan.copy()) == "bitwise"


def test_compare_unit_takes_the_worst_field():
    ref = {"ct": np.float32([1.0]), "dose": np.float32([2.0])}
    got = {"ct": np.float32([1.0]), "dose": np.nextafter(np.float32([2.0]), np.float32(3))}
    assert checks.compare_unit(got, ref) == "tolerance"
    assert checks.compare_unit({"ct": ref["ct"]}, ref) == "fail"
    assert checks.compare_unit(None, ref) == "fail"


def test_reference_round_trip(tmp_path):
    outputs = {"train": {"step000": {"loss": np.float64(1.25)}},
               "gen": {"sample_00000": {"ct": np.float32([[1, 2]]), "meta": np.array("a=1")}}}
    path = tmp_path / "ref.npz"
    checks.save_reference(path, outputs)
    back = checks.load_reference(path)
    assert checks.compare_unit(back["train"]["step000"], outputs["train"]["step000"]) == "bitwise"
    assert checks.compare_unit(back["gen"]["sample_00000"],
                               outputs["gen"]["sample_00000"]) == "bitwise"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_stored_reference_covers_the_reference_pass(workload):
    ref = checks.load_reference(BENCH / "reference" / f"{workload}.npz")
    kinds = {"train-desk": {"train"}, "sample-desk": {"sample"},
             "pipeline-paper": {"gen", "sample", "eval"}}[workload]
    assert set(ref) == kinds
    if workload == "train-desk":
        assert len(ref["train"]) == run.TRAIN_STEPS


# ---------------------------------------------------------------------------
# metrics helpers


def test_median_and_tail():
    values = list(range(1, 101))
    st = run.median_and_tail(values)
    assert st["median"] == 50.5 and st["n"] == 100
    assert st["tail_pct"] == 90 and st["tail"] == 90      # ten samples lie beyond it
    assert run.median_and_tail([1.0] * 10)["tail"] is None


def test_self_times_subtract_direct_children():
    spans = {"names": np.array(["outer", "inner"]),
             "name": np.array([0, 1, 1, 0], dtype=np.int32),
             "start": np.array([0.0, 1.0, 4.0, 20.0]),
             "end": np.array([10.0, 3.0, 5.0, 21.0]),
             "parent": np.array([-1, 0, 0, -1], dtype=np.int32)}
    got = tracer.self_times(spans)
    assert got["outer"] == (2, pytest.approx(7.0 + 1.0))
    assert got["inner"] == (2, pytest.approx(3.0))


def test_tracer_rebinds_every_alias():
    code = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]
import tracer
mods = tracer.import_package()
originals = {{n: getattr(mods['blocks'], n) for n in ('swin_block', 'cross_attention_fuse')}}
originals['backward'] = mods['tensor'].backward
originals['adam_step'] = mods['optim'].adam_step
tr = tracer.Tracer()
tr.install(mods)
import dosediff
for owner, name in [(mods['networks'], 'swin_block'), (mods['networks'], 'cross_attention_fuse'),
                    (mods['train'], 'backward'), (mods['train'], 'adam_step'),
                    (dosediff, 'backward'), (mods['blocks'], 'swin_block')]:
    assert getattr(owner, name) is not originals[name], (owner.__name__, name)
assert getattr(mods['networks'].swin_block, '__wrapped__') is originals['swin_block']
assert mods['tensor'].no_grad.__name__ == 'no_grad'
print('ok')
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


# ---------------------------------------------------------------------------
# BENCHMARK.json and result files


def test_benchmark_json_schema():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and not p.startswith("/")
        assert ".." not in p.split("/") and (ROOT / p).is_dir()
    cmd = spec["command"]
    assert 1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)
    assert all(not c.startswith("/") for c in cmd)
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    workloads = spec["workloads"]
    assert 2 <= len(workloads) <= 8
    assert {w["name"] for w in workloads} == set(run.WORKLOADS)
    names = [w["name"] for w in workloads]
    for w in workloads:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]

    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    names += [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))


def _check_result_line(line: str, spec_metrics: list):
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_and_writes_results(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(spec["command"] + ["--workload", "train-desk", "--seed", "3",
                                            "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    _check_result_line(out.stdout.strip().splitlines()[-1],
                       spec["per_layer"] if trace else spec["end_to_end"])
    results = json.loads((ROOT / ".perfbench" / "results" /
                          f"train-desk-seed3-trace{trace}.json").read_text())
    assert {"workload", "seed", "trace", "seconds", "why", "environment", "host_noise",
            "metrics", "commands", "checks", "passes"} <= set(results)
    env = results["environment"]
    assert env["nproc"] >= 1 and {"library", "threads", "config"} <= set(env["blas"])
    noise = results["host_noise"]
    for when in ("before", "after"):
        assert len(noise[when]["loadavg"]) == 3
        assert noise[when]["reference_kernel"]["median_ms"] > 0
    assert "steal_pct" in noise
    assert results["checks"]["attempted"] == len(results["passes"]) * run.TRAIN_STEPS
    assert "train.step_ms" in results["commands"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(spec["command"] + ["--workload", "train-desk", "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
