import json

import numpy as np
import pytest

from dosediff import phantom as P
from dosediff.checkpoint import load_checkpoint, save_checkpoint
from dosediff.cli import main
from dosediff.networks import DoseModel

from test_config_checkpoint import (bad_rng_state, drop_config, drop_opt_step,
                                    rename_param, rewrite_checkpoint_header)


CFG = {
    "model": {
        "image_size": 16, "oar_count": 2, "base_channels": 4,
        "stage_multipliers": [1, 2], "window": 2, "heads": 2,
        "projector_ratio": 4, "fusion": "attn-last1", "t_steps": 8,
        "beta_end": 0.3,
    },
    "train": {"steps": 6, "batch_size": 2, "lr": 0.002, "checkpoint_every": 3},
    "data": {"n_samples": 6, "seed": 2},
    "seed": 4,
    "out_dir": "unused",
}


@pytest.fixture()
def ws(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG))
    return tmp_path, cfg_path


def run(args):
    return main([str(a) for a in args])


def dir_bytes(d):
    return {f.name: f.read_bytes() for f in sorted(d.iterdir()) if f.is_file()}


class TestGenData:
    def test_rerun_byte_identical(self, ws):
        tmp, cfg = ws
        assert run(["gen-data", "--config", cfg, "--out", tmp / "d1"]) == 0
        assert run(["gen-data", "--config", cfg, "--out", tmp / "d2"]) == 0
        assert dir_bytes(tmp / "d1") == dir_bytes(tmp / "d2")

    def test_manifest_disjoint(self, ws):
        tmp, cfg = ws
        run(["gen-data", "--config", cfg, "--out", tmp / "d"])
        man = json.loads((tmp / "d" / "split.json").read_text())
        ids = man["train"] + man["val"] + man["test"]
        assert len(ids) == len(set(ids)) == 6

    def test_default_ratios_at_320(self, tmp_path):
        # ratio check happens at the split level; see test_phantom for 320
        from dosediff.phantom import make_split
        s = make_split([str(i) for i in range(320)], 0)
        assert (len(s.train), len(s.val), len(s.test)) == (220, 20, 80)


@pytest.fixture()
def trained(ws):
    tmp, cfg = ws
    run(["gen-data", "--config", cfg, "--out", tmp / "data"])
    assert run(["train", "--config", cfg, "--data", tmp / "data",
                "--out", tmp / "run"]) == 0
    return tmp, cfg, tmp / "data", tmp / "run" / "ckpt_final.bin"


class TestTrainCommand:
    def test_rerun_byte_identical(self, trained):
        tmp, cfg, data, ckpt = trained
        assert run(["train", "--config", cfg, "--data", data,
                    "--out", tmp / "run2"]) == 0
        assert dir_bytes(tmp / "run") == dir_bytes(tmp / "run2")

    def test_cli_resume_matches_uninterrupted(self, trained):
        tmp, cfg, data, ckpt = trained
        mid = tmp / "run" / "ckpt_step000003.bin"
        assert mid.exists()
        assert run(["train", "--resume", mid, "--data", data,
                    "--out", tmp / "resumed"]) == 0
        assert (tmp / "resumed" / "ckpt_final.bin").read_bytes() == ckpt.read_bytes()

    def test_conflicting_config_rejected(self, trained, tmp_path):
        tmp, cfg, data, ckpt = trained
        other = dict(CFG)
        other["seed"] = 99
        p = tmp / "other.json"
        p.write_text(json.dumps(other))
        assert run(["train", "--config", p, "--resume", ckpt,
                    "--data", data, "--out", tmp / "x"]) == 2

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_is_config_error(self, trained, steps, capsys):
        tmp, cfg, data, ckpt = trained
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--data", data, "--steps", steps,
                    "--out", tmp / "x"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp / "x").exists()

    def test_resume_steps_below_checkpoint_step_is_config_error(self, trained, capsys):
        tmp, cfg, data, ckpt = trained
        mid = tmp / "run" / "ckpt_step000003.bin"
        capsys.readouterr()
        assert run(["train", "--resume", mid, "--data", data, "--steps", 2,
                    "--out", tmp / "x"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp / "x").exists()
        # stopping exactly at the checkpoint's step stays a valid no-op run
        assert run(["train", "--resume", mid, "--data", data, "--steps", 3,
                    "--out", tmp / "y"]) == 0
        assert load_checkpoint(tmp / "y" / "ckpt_final.bin").step == 3


class TestSampleCommand:
    def test_outputs_and_determinism(self, trained):
        tmp, cfg, data, ckpt = trained
        for out in ("p1", "p2"):
            assert run(["sample", "--checkpoint", ckpt, "--data", data,
                        "--cases", "sample_00000,sample_00001",
                        "--out", tmp / out, "--seed", 7]) == 0
        assert dir_bytes(tmp / "p1") == dir_bytes(tmp / "p2")
        names = set(dir_bytes(tmp / "p1"))
        assert names == {"sample_00000.spdp", "sample_00000.pgm",
                         "sample_00000_diff.ppm", "sample_00001.spdp",
                         "sample_00001.pgm", "sample_00001_diff.ppm"}

    def test_per_case_seed_independent_of_subset(self, trained):
        tmp, cfg, data, ckpt = trained
        run(["sample", "--checkpoint", ckpt, "--data", data,
             "--cases", "sample_00000", "--out", tmp / "solo", "--seed", 7])
        solo = (tmp / "solo" / "sample_00000.spdp").read_bytes()
        run(["sample", "--checkpoint", ckpt, "--data", data,
             "--cases", "sample_00001,sample_00000", "--out", tmp / "pair",
             "--seed", 7])
        assert (tmp / "pair" / "sample_00000.spdp").read_bytes() == solo

    def test_prediction_in_prescription_units(self, trained):
        tmp, cfg, data, ckpt = trained
        run(["sample", "--checkpoint", ckpt, "--data", data,
             "--cases", "sample_00000", "--out", tmp / "pu", "--seed", 1])
        dose = P.read_dose_map(tmp / "pu" / "sample_00000.spdp")
        assert dose.min() >= 0.0 and dose.max() <= P.DOSE_MAX_SCALE

    def test_render_formats(self, trained):
        tmp, cfg, data, ckpt = trained
        run(["sample", "--checkpoint", ckpt, "--data", data,
             "--cases", "sample_00000", "--out", tmp / "r", "--seed", 1])
        pgm = (tmp / "r" / "sample_00000.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        assert len(pgm) == len(b"P5\n16 16\n255\n") + 16 * 16
        ppm = (tmp / "r" / "sample_00000_diff.ppm").read_bytes()
        assert ppm.startswith(b"P6\n16 16\n255\n")
        assert len(ppm) == len(b"P6\n16 16\n255\n") + 3 * 16 * 16


class TestEvalCommand:
    def test_truth_vs_truth_scores_zero(self, trained):
        tmp, cfg, data, ckpt = trained
        pred = tmp / "selfpred"
        pred.mkdir()
        for cid in ("sample_00000", "sample_00002"):
            s = P.read_sample(data / f"{cid}.spdp")
            P.write_dose_map(pred / f"{cid}.spdp", s.dose)
        assert run(["eval", "--pred", pred, "--truth", data,
                    "--out", tmp / "ev"]) == 0
        lines = (tmp / "ev" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "case,dose_score_rel,dose_score_mae,dvh_score,hi"
        for line in lines[1:]:
            case, rel, mae, dvh, hi = line.split(",")
            assert float(rel) == 0.0 and float(mae) == 0.0 and float(dvh) == 0.0
        # HI of prediction equals HI of truth when they are the same map
        report = (tmp / "ev" / "report_sample_00000.txt").read_text()
        kv = dict(l.split("=", 1) for l in report.splitlines())
        assert kv["hi"] == kv["hi_truth"]

    def test_aggregate_matches_recomputation(self, trained):
        tmp, cfg, data, ckpt = trained
        run(["sample", "--checkpoint", ckpt, "--data", data, "--cases",
             "sample_00000,sample_00001,sample_00002", "--out", tmp / "pr",
             "--seed", 3])
        run(["eval", "--pred", tmp / "pr", "--truth", data, "--out", tmp / "ev2"])
        lines = (tmp / "ev2" / "metrics.csv").read_text().splitlines()[1:]
        maes = [float(l.split(",")[2]) for l in lines]
        summary = (tmp / "ev2" / "metrics_summary.csv").read_text().splitlines()
        row = [l for l in summary if l.startswith("dose_score_mae,")][0]
        _, mean_s, std_s, formatted = row.split(",")
        assert float(mean_s) == pytest.approx(np.mean(maes), rel=1e-12)
        assert float(std_s) == pytest.approx(np.std(maes, ddof=1), rel=1e-12)
        assert "±" in formatted

    def test_dvh_csv_shape(self, trained):
        tmp, cfg, data, ckpt = trained
        pred = tmp / "sp"
        pred.mkdir()
        s = P.read_sample(data / "sample_00000.spdp")
        P.write_dose_map(pred / "sample_00000.spdp", s.dose)
        run(["eval", "--pred", pred, "--truth", data, "--out", tmp / "ev3"])
        dvh = (tmp / "ev3" / "dvh_sample_00000.csv").read_text().splitlines()
        assert dvh[0] == "structure,dose,volume_pct"
        # 2 OARs + PTV, pred and truth curves, 256 bins each
        assert len(dvh) == 1 + 3 * 2 * 256

    def test_compare_produces_ttest(self, trained):
        tmp, cfg, data, ckpt = trained
        run(["sample", "--checkpoint", ckpt, "--data", data, "--cases",
             "sample_00000,sample_00001,sample_00002", "--out", tmp / "pa",
             "--seed", 3])
        run(["sample", "--checkpoint", ckpt, "--data", data, "--cases",
             "sample_00000,sample_00001,sample_00002", "--out", tmp / "pb",
             "--seed", 4])
        assert run(["eval", "--pred", tmp / "pa", "--truth", data,
                    "--out", tmp / "evt", "--compare", tmp / "pb"]) == 0
        tt = (tmp / "evt" / "ttest.csv").read_text().splitlines()
        assert tt[0] == "metric,t,df,p"
        assert len(tt) == 4
        for line in tt[1:]:
            parts = line.split(",")
            assert parts[2] == "2"  # df = n - 1 over 3 shared cases

    def test_case_mismatch_is_data_error(self, trained):
        tmp, cfg, data, ckpt = trained
        pred = tmp / "orphan"
        pred.mkdir()
        P.write_dose_map(pred / "ghost.spdp", np.zeros((16, 16), np.float32))
        assert run(["eval", "--pred", pred, "--truth", data,
                    "--out", tmp / "evx"]) == 3


class TestAblateCommand:
    def test_sweep_rows_and_rerun_identical(self, trained):
        tmp, cfg, data, ckpt = trained
        strategies = "attn-last1,attn-last2"
        assert run(["ablate", "--config", cfg, "--data", data,
                    "--out", tmp / "ab1", "--strategies", strategies]) == 0
        table = (tmp / "ab1" / "ablation.csv").read_text()
        lines = table.splitlines()
        assert lines[0] == "strategy,dose_score_rel,dose_score_mae,dvh_score,hi,n_cases"
        assert [l.split(",")[0] for l in lines[1:]] == ["attn-last1", "attn-last2"]
        assert (tmp / "ab1" / "ablation_timing.csv").exists()
        run(["ablate", "--config", cfg, "--data", data,
             "--out", tmp / "ab2", "--strategies", strategies])
        assert (tmp / "ab2" / "ablation.csv").read_text() == table

    def test_unknown_strategy_is_config_error(self, trained):
        tmp, cfg, data, ckpt = trained
        assert run(["ablate", "--config", cfg, "--data", data,
                    "--out", tmp / "abx", "--strategies", "osmosis"]) == 2


class TestDumpSchedule:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert run(["dump-schedule", "--steps", 5, "--beta-start", "0.1",
                    "--beta-end", "0.2", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,beta,alpha,alpha_bar"
        assert len(lines) == 6
        t, beta, alpha, abar = lines[1].split(",")
        assert float(beta) == 0.1 and float(abar) == 0.9


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["gen-data", "--config", bad, "--out", tmp_path / "x"]) == 2
        assert run(["train", "--config", tmp_path / "missing.json",
                    "--data", tmp_path, "--out", tmp_path / "y"]) == 2

    def test_data_error_is_3(self, ws):
        tmp, cfg = ws
        assert run(["train", "--config", cfg, "--data", tmp / "absent",
                    "--out", tmp / "r"]) == 3

    def test_numeric_failure_is_4(self, trained):
        tmp, cfg, data, ckpt = trained
        # poison one parameter with NaN and resume from it
        ck = load_checkpoint(ckpt)
        model = DoseModel(ck.config.model, ck.config.seed)
        from dosediff.checkpoint import restore_into
        restore_into(model.store, ck)
        model.store["dn.head.w"].data[:] = np.nan
        rng = np.random.default_rng(0)
        rng.bit_generator.state = ck.rng_state
        poisoned = tmp / "poisoned.bin"
        import dataclasses
        cfg2 = dataclasses.replace(
            ck.config, train=dataclasses.replace(ck.config.train, steps=8))
        save_checkpoint(poisoned, cfg2, model.store, ck.step, rng)
        assert run(["train", "--resume", poisoned, "--data", data,
                    "--out", tmp / "boom"]) == 4

    @pytest.mark.parametrize("edit", [lambda h: b"{not json", drop_config, bad_rng_state,
                                      drop_opt_step, rename_param],
                             ids=["invalid-json", "no-config", "bad-rng-state",
                                  "missing-opt-step", "renamed-param"])
    def test_malformed_checkpoint_is_3(self, trained, edit, capsys):
        tmp, cfg, data, ckpt = trained
        bad = rewrite_checkpoint_header(ckpt, tmp / "bad.bin", edit)
        capsys.readouterr()
        assert run(["sample", "--checkpoint", bad, "--data", data,
                    "--cases", "sample_00000", "--out", tmp / "s"]) == 3
        assert run(["train", "--resume", bad, "--data", data,
                    "--out", tmp / "t"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("data error:") for e in err)

    def test_empty_mask_in_eval_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2)
        s.ptv[:] = False
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", s.dose)
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_eval_prediction_shape_mismatch_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=32, oar_count=2)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", np.ones((16, 16), np.float32))
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_eval_non_finite_prediction_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        pred = s.dose.copy()
        pred[4, 5], pred[8, 8] = np.nan, np.inf
        P.write_dose_map(tmp_path / "pred" / "c.spdp", pred)
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: case c: prediction has 2 non-finite voxels"]

    @pytest.mark.parametrize("field,value", [("image_size", 32), ("oar_count", 3)])
    def test_data_not_matching_model_config_is_3(self, trained, field, value, capsys):
        tmp, cfg, data, ckpt = trained
        other = json.loads(json.dumps(CFG))
        other["model"][field] = value
        other_cfg = tmp / "other.json"
        other_cfg.write_text(json.dumps(other))
        assert run(["gen-data", "--config", other_cfg, "--out", tmp / "other"]) == 0
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--data", tmp / "other",
                    "--out", tmp / "t"]) == 3
        assert run(["sample", "--checkpoint", ckpt, "--data", tmp / "other",
                    "--cases", "sample_00000", "--out", tmp / "s"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("data error:") for e in err)
