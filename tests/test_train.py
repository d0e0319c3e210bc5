import dataclasses
import inspect
import json

import numpy as np
import pytest

from dosediff import metrics as M
from dosediff import train as TR
from dosediff.checkpoint import load_checkpoint
from dosediff.config import FusionStrategy, config_from_dict
from dosediff.train import (DataError, NumericFailure, Trainer, case_seed_key, fit_step,
                            fusion_ablation_matrix, generate_dataset, load_split, lr_at,
                            read_cases, sample_case)
from dosediff.tensor import Tensor


def tiny_cfg_dict(**train_kw):
    train = {"steps": 8, "batch_size": 2, "lr": 0.002, "checkpoint_every": 4}
    train.update(train_kw)
    return {
        "model": {
            "image_size": 16, "oar_count": 2, "base_channels": 4,
            "stage_multipliers": [1, 2], "window": 2, "heads": 2,
            "projector_ratio": 4, "fusion": "attn-last1", "t_steps": 8,
            "beta_end": 0.3,
        },
        "train": train,
        "data": {"n_samples": 5, "seed": 2},
        "seed": 4,
        "out_dir": "unused",
    }


def arrays_reached(root):
    """Every ndarray reachable from ``root`` through containers, object
    attributes, closure cells and a Tensor's data (a gradient is not
    parameter state)."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or inspect.ismodule(obj) or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, Tensor):
            todo.append(obj.data)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            todo.extend(obj)
        elif inspect.isfunction(obj):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())


def train_cases(cfg, data_dir):
    return read_cases(data_dir, load_split(data_dir).train, cfg.model, "split.json")


@pytest.fixture()
def dataset(tmp_path):
    cfg = config_from_dict(tiny_cfg_dict())
    data_dir = tmp_path / "data"
    generate_dataset(cfg, data_dir)
    return cfg, data_dir


class TestLrSchedule:
    def test_constant_then_linear_ramp_to_zero(self):
        total, lr0, ds = 10, 1.0, 0.5
        assert [lr_at(s, total, lr0, ds) for s in range(5)] == [1.0] * 5
        # documented ramp: lr0 * (1 - (frac - ds) / (1 - ds))
        for s in range(5, 10):
            frac = s / total
            assert lr_at(s, total, lr0, ds) == pytest.approx(
                lr0 * (1 - (frac - ds) / (1 - ds)))
        assert lr_at(9, total, lr0, ds) == pytest.approx(0.2)

    def test_no_decay_when_start_at_one(self):
        assert lr_at(99, 100, 3e-4, 1.0) == 3e-4


class TestGenerateDataset:
    def test_idempotent_bytes(self, tmp_path):
        cfg = config_from_dict(tiny_cfg_dict())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_dataset(cfg, d1)
        generate_dataset(cfg, d2)
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes(), f.name

    def test_split_partitions_ids(self, dataset):
        cfg, data_dir = dataset
        split = load_split(data_dir)
        ids = split.all_ids()
        assert sorted(ids) == [f"sample_{i:05d}" for i in range(5)]
        assert len(set(ids)) == 5

    @pytest.mark.parametrize("seed", [True, False, 1.0, "3", None])
    def test_split_seed_must_be_an_int(self, dataset, seed):
        cfg, data_dir = dataset
        manifest = data_dir / "split.json"
        d = json.loads(manifest.read_text())
        d["seed"] = seed
        manifest.write_text(json.dumps(d))
        with pytest.raises(DataError, match="'seed' must be a int"):
            load_split(data_dir)


class TestTrainer:
    def test_loss_log_and_decreasing_smoke(self, dataset, tmp_path):
        cfg, data_dir = dataset
        trainer = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "run")
        assert len(trainer.run()) == 8
        log = (tmp_path / "run" / "loss_log.csv").read_text().splitlines()
        assert log[0] == "step,loss,lr"
        assert len(log) == 9

    def test_200_steps_on_4_samples_reduces_loss(self):
        """Smoke-run oracle: short training on 4 tiny phantoms cuts the loss."""
        from dosediff import diffusion as D
        from dosediff import phantom as P
        from dosediff.config import FusionStrategy, ModelConfig
        from dosediff.networks import DoseModel

        cfg = ModelConfig(image_size=16, oar_count=3, base_channels=4,
                          stage_multipliers=(1, 2, 4, 8), window=2, heads=2,
                          projector_ratio=4, fusion=FusionStrategy("attn-lastK", 2),
                          t_steps=50, beta_start=1e-4, beta_end=0.35)
        cond, dose = P.normalize_batch(
            [P.generate_phantom(100 + i, 16, 3, 5) for i in range(4)])
        sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
        model = DoseModel(cfg, 0)
        rng = np.random.default_rng(np.random.PCG64(0))
        losses = [fit_step(model, (dose, cond), sched, rng, lr_at(step, 200, 2e-3, 0.5),
                           (0.9, 0.999))
                  for step in range(200)]
        assert np.mean(losses[-10:]) < losses[0]

    def test_resume_is_bit_exact(self, dataset, tmp_path):
        cfg, data_dir = dataset
        # uninterrupted reference run
        full = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "full")
        full.run()
        ref = (tmp_path / "full" / "ckpt_final.bin").read_bytes()
        # interrupted at step 4, then resumed
        part = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "part")
        part.run()
        resumed = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "resumed",
                          resume=load_checkpoint(tmp_path / "part" / "ckpt_step000004.bin"))
        resumed.run()
        got = (tmp_path / "resumed" / "ckpt_final.bin").read_bytes()
        assert got == ref

    def test_a_resumed_checkpoint_holds_no_stale_array(self, dataset, tmp_path):
        cfg, data_dir = dataset
        Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "part").run()
        ckpt = load_checkpoint(tmp_path / "part" / "ckpt_step000004.bin")
        resumed = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "resumed", resume=ckpt)
        resumed.run()
        store = resumed.model.store
        live = {id(a) for n, p in store.items() for a in (p.data, store.m[n], store.v[n])}
        # Adam's flat buffers, whose views the live arrays are
        bases = {id(a.base) for n, p in store.items()
                 for a in (p.data, store.m[n], store.v[n]) if a.base is not None}
        reached = [a for a in arrays_reached(ckpt) if id(a) not in bases]
        assert len(reached) == len(live)
        assert all(id(a) in live for a in reached)

    def test_non_finite_parameters_are_never_checkpointed(self, dataset, tmp_path):
        cfg, data_dir = dataset
        # the Python API skips config validation; an infinite lr diverges in one step
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, lr=float("inf"),
                                                                 steps=1))
        with np.errstate(invalid="ignore"), pytest.raises(NumericFailure, match="non-finite"):
            Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "run").run()
        assert not (tmp_path / "run" / "ckpt_final.bin").exists()

    def test_a_non_finite_gradient_names_its_parameter_and_changes_nothing(
            self, dataset, tmp_path, monkeypatch):
        cfg, data_dir = dataset
        trainer = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "run")
        store = trainer.model.store
        name = store.names()[len(store.names()) // 2]
        calls, before = [], []
        backward = TR.backward

        def nan_at_third_step(loss, leaves):
            grads = backward(loss, leaves)
            calls.append(None)
            if len(calls) == 3:     # a finite loss, Adam's moments nonzero by now
                before.extend([store.step] + [a.copy() for n, p in store.items()
                                              for a in (p.data, store.m[n], store.v[n])])
                grads[store.names().index(name)].flat[0] = np.nan
            return grads

        monkeypatch.setattr(TR, "backward", nan_at_third_step)
        with pytest.raises(NumericFailure) as err:
            trainer.run()
        assert str(err.value) == f"non-finite gradient of parameter {name!r} at step 2"
        after = [store.step] + [a for n, p in store.items()
                                for a in (p.data, store.m[n], store.v[n])]
        assert before[0] == after[0] == 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before[1:], after[1:]))

    def test_intermediate_checkpoint_resume(self, dataset, tmp_path):
        cfg, data_dir = dataset
        full = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "full")
        full.run()
        mid = tmp_path / "full" / "ckpt_step000004.bin"
        assert mid.exists()
        resumed = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "resumed",
                          resume=load_checkpoint(mid))
        resumed.run()
        assert (tmp_path / "resumed" / "ckpt_final.bin").read_bytes() == \
            (tmp_path / "full" / "ckpt_final.bin").read_bytes()

    def test_checkpoint_carries_step_and_config(self, dataset, tmp_path):
        cfg, data_dir = dataset
        Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "run").run()
        ckpt = load_checkpoint(tmp_path / "run" / "ckpt_final.bin")
        assert ckpt.step == 8
        assert ckpt.config.model.image_size == 16

    def test_missing_data_raises(self, tmp_path):
        cfg = config_from_dict(tiny_cfg_dict())
        with pytest.raises(DataError):
            Trainer(cfg, train_cases(cfg, tmp_path / "nowhere"), tmp_path / "run")

    def test_sampling_deterministic_per_case(self, dataset, tmp_path):
        cfg, data_dir = dataset
        trainer = Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "run")
        trainer.run()
        from dosediff.phantom import read_sample
        s = read_sample(data_dir / "sample_00000.spdp")
        a = sample_case(trainer.model, trainer.schedule, s, (9, 0))
        b = sample_case(trainer.model, trainer.schedule, s, (9, 0))
        assert np.array_equal(a, b)
        c = sample_case(trainer.model, trainer.schedule, s, (10, 0))
        assert not np.array_equal(a, c)


    def test_sampling_a_case_above_the_dose_scale_warns_nothing(self, dataset):
        # sample_case builds only the condition; it never reads the truth dose
        import warnings
        from dosediff import diffusion as D
        from dosediff.networks import DoseModel
        from dosediff.phantom import read_sample
        cfg, data_dir = dataset
        model = DoseModel(cfg.model, cfg.seed)
        sched = D.make_schedule(cfg.model.t_steps, cfg.model.beta_start, cfg.model.beta_end)
        s = read_sample(data_dir / "sample_00000.spdp")
        hot = dataclasses.replace(s, dose=s.dose * np.float32(2.0))   # PTV mean 2 > 1.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sample_case(model, sched, hot, (9, 0))
        assert np.array_equal(got, sample_case(model, sched, s, (9, 0)))

    def test_case_seed_key(self):
        import zlib
        assert case_seed_key(7, "sample_00012") == (7, 12)
        assert case_seed_key(7, "ct-a") == (7, zlib.crc32(b"ct-a"))


class TestAblationMatrix:
    def test_strategies_complete_and_rerun_identical(self, dataset, tmp_path):
        cfg, data_dir = dataset
        strategies = [FusionStrategy.parse(s) for s in
                      ("concatenate", "add-all", "attn-all", "attn-last1")]

        def run(out):
            rows = fusion_ablation_matrix(cfg, strategies, data_dir, tmp_path / out)
            return [(r.strategy, *(M.summarize([getattr(rep, attr) for rep in r.reports])[0]
                                   for attr in ("dose_score_mae", "dvh_score", "hi")))
                    for r in rows]

        first = run("a")
        second = run("b")
        assert [r[0] for r in first] == ["concatenate", "add-all", "attn-all",
                                         "attn-last1"]
        assert first == second  # bit-exact reruns
        for _, mae, dvh, hi in first:
            assert np.isfinite(mae) and np.isfinite(dvh) and np.isfinite(hi)


def test_overfit_script_writes_curve_and_renders(tmp_path):
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "run_overfit_smoke.py"
    spec = importlib.util.spec_from_file_location("run_overfit_smoke", script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.main(["--steps", "3", "--t-steps", "2", "--cases", "2",
                     "--out", str(tmp_path)]) == 0
    curve = (tmp_path / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "step,loss,lr" and len(curve) == 4
    for i in range(2):
        for name in (f"case{i}_pred.pgm", f"case{i}_truth.pgm", f"case{i}_diff.ppm"):
            assert (tmp_path / name).stat().st_size > 0


def test_weights_only_checkpoint_cannot_resume(dataset, tmp_path):
    cfg, data_dir = dataset
    Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "part").run()
    light = load_checkpoint(tmp_path / "part" / "ckpt_step000004.bin", moments=False)
    with pytest.raises(ValueError, match="moments"):
        Trainer(cfg, train_cases(cfg, data_dir), tmp_path / "resumed", resume=light)
