import contextlib
import errno
import hashlib
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosediff import cli
from dosediff import metrics as M
from dosediff import phantom as P
from dosediff import train as TR
from dosediff.checkpoint import CKPT_FILE, load_checkpoint, save_checkpoint
from dosediff.cli import main

from test_config_checkpoint import (BAD_COUNT_HEADERS, ODD_VALUES, bad_rng_state, drop_config,
                                    drop_opt_step, rename_param, rewrite_checkpoint_header)


# JSON that the parser cannot turn into a value: arrays nested 200,000 deep,
# and an integer of 5,000 digits
DEEP_JSON = '{"model": ' + "[" * 200_000 + "]" * 200_000 + "}"
HUGE_INT_JSON = '{"seed": ' + "9" * 5000 + "}"

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
        from dosediff.config import DataParams
        from dosediff.phantom import make_split
        s = make_split([str(i) for i in range(320)], 0, DataParams.split_ratios)
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

    def test_resume_seed_must_match_the_checkpoint(self, trained, capsys):
        # a --seed is never dropped: without --config it must still agree
        tmp, cfg, data, ckpt = trained
        mid = tmp / "run" / "ckpt_step000003.bin"
        capsys.readouterr()
        assert run(["train", "--resume", mid, "--seed", 99, "--data", data,
                    "--out", tmp / "x"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
        assert not (tmp / "x").exists()
        assert run(["train", "--resume", mid, "--seed", CFG["seed"], "--data", data,
                    "--out", tmp / "y"]) == 0
        assert (tmp / "y" / "ckpt_final.bin").read_bytes() == ckpt.read_bytes()

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


# SHA-256 of the scoring files of ``eval --compare`` on four generated
# phantoms and model-free predictions (see test_compare_bytes_are_pinned)
EVAL_COMPARE_SHA256 = {
    "metrics.csv":
        "eb4dd56af5985f7e6c229b33cf11546eb8fa30320157583ae26009ebbdc877c9",
    "metrics_summary.csv":
        "7d957845edb2dc5bae427421c647eecd0c1423bf01d6bcea65a3b5c67e4f6339",
    "ttest.csv":
        "9adc2df91164b47839a51c5cfcbc2b4fc58fd50cf7580c45624572997354f54f",
    "report_case_1.txt":
        "f0f61b976aa17698e7322bb1efc6b5aca4eaebcdb62d039f1e0ae912b23055b5",
    "dvh_case_2.csv":
        "9a3720f2356cd9bff49a7f2fa2607b11700f6e4f125d8d20ea896e7afed41417",
}


class TestEvalCommand:
    def test_compare_bytes_are_pinned(self, tmp_path):
        # each prediction blends its case's truth dose with another seed's
        dirs = {d: tmp_path / d for d in ("truth", "pa", "pb")}
        for d in dirs.values():
            d.mkdir()
        for i in range(4):
            cid = f"case_{i}"
            truth = P.generate_phantom(10 + i, size=16, oar_count=2, beam_count=5)
            P.write_sample(TR.sample_path(dirs["truth"], cid), truth)
            for name, seed, w in (("pa", 20 + i, 0.3), ("pb", 30 + i, 0.15)):
                other = P.generate_phantom(seed, size=16, oar_count=2, beam_count=5)
                P.write_dose_map(TR.sample_path(dirs[name], cid),
                                 0.9 * truth.dose + w * other.dose, meta={})
        assert run(["eval", "--pred", dirs["pa"], "--truth", dirs["truth"],
                    "--out", tmp_path / "ev", "--compare", dirs["pb"]]) == 0
        assert {name: hashlib.sha256((tmp_path / "ev" / name).read_bytes()).hexdigest()
                for name in EVAL_COMPARE_SHA256} == EVAL_COMPARE_SHA256

    def test_compare_with_itself_writes_nan_rows(self, tmp_path):
        """Paired differences that are all zero have no t statistic: each
        score row reads nan with the df of the shared cases."""
        for d in ("truth", "pa"):
            (tmp_path / d).mkdir()
        for i in range(3):
            truth = P.generate_phantom(10 + i, size=16, oar_count=2, beam_count=5)
            P.write_sample(TR.sample_path(tmp_path / "truth", f"case_{i}"), truth)
            P.write_dose_map(TR.sample_path(tmp_path / "pa", f"case_{i}"), 0.9 * truth.dose,
                             meta={})
        shutil.copytree(tmp_path / "pa", tmp_path / "pb")
        assert run(["eval", "--pred", tmp_path / "pa", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev", "--compare", tmp_path / "pb"]) == 0
        assert (tmp_path / "ev" / "ttest.csv").read_text().splitlines() == (
            ["metric,t,df,p"] + [f"{col},nan,2,nan" for col, _ in M.SCORES[1:]])

    def test_truth_vs_truth_scores_zero(self, trained):
        tmp, cfg, data, ckpt = trained
        pred = tmp / "selfpred"
        pred.mkdir()
        for cid in ("sample_00000", "sample_00002"):
            s = P.read_sample(data / f"{cid}.spdp")
            P.write_dose_map(pred / f"{cid}.spdp", s.dose, meta={})
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
        P.write_dose_map(pred / "sample_00000.spdp", s.dose, meta={})
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
        P.write_dose_map(pred / "ghost.spdp", np.zeros((16, 16), np.float32), meta={})
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

    def test_every_strategy_checked_before_any_trains(self, trained, capsys):
        tmp, cfg, data, ckpt = trained
        capsys.readouterr()
        # add-all is valid; attn-last9 needs 9 stages and the config has 2
        assert run(["ablate", "--config", cfg, "--data", data,
                    "--out", tmp / "abx", "--strategies", "add-all,attn-last9"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: attn-last9 exceeds 2 stages"]
        assert not (tmp / "abx").exists()

    def test_unscorable_prediction_is_4_naming_strategy_and_case(self, trained, monkeypatch,
                                                                  capsys):
        tmp, cfg, data, ckpt = trained
        split = json.loads((data / "split.json").read_text())
        first = (split["test"] or split["train"])[0]
        monkeypatch.setattr(TR, "sample_case",
                            lambda model, schedule, sample, key: np.zeros(sample.ct.shape))
        capsys.readouterr()
        assert run(["ablate", "--config", cfg, "--data", data,
                    "--out", tmp / "ab", "--strategies", "attn-last1,attn-last2"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"numeric failure: strategy attn-last1: case {first}: prediction has no "
            f"positive mean dose in the PTV"]
        assert (tmp / "ab" / "ablate_attn-last1" / "ckpt_final.bin").exists()
        assert sorted(f.name for f in (tmp / "ab").iterdir()) == ["ablate_attn-last1"]

    def test_repeated_strategy_is_2_before_anything_is_read(self, ws, capsys):
        tmp, cfg = ws
        # no dataset exists: the label is rejected before --data is read
        assert run(["ablate", "--config", cfg, "--data", tmp / "data", "--out", tmp / "ab",
                    "--strategies", "attn-last0,add-all,add-all"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: strategy add-all is listed more than once"]
        assert not (tmp / "ab").exists()
        # the same wiring under two labels is no repeat
        assert run(["gen-data", "--config", cfg, "--out", tmp / "data"]) == 0
        assert run(["ablate", "--config", cfg, "--data", tmp / "data", "--out", tmp / "ab",
                    "--strategies", "attn-last0,add-all"]) == 0
        rows = (tmp / "ab" / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["attn-last0", "add-all"]

    @pytest.mark.parametrize("fault,message", [
        ("ptv-dose", "truth has no positive mean dose in the PTV"),
        ("oar2-mask", "mask selects no voxels"),
        ("ptv-mask", "mask selects no voxels"),
        ("ct", "mask selects no voxels"),   # the body is CT > 0
    ], ids=["ptv-dose", "oar2-mask", "ptv-mask", "ct"])
    def test_unscorable_truth_is_3_before_any_strategy_trains(self, ws, fault, message,
                                                              capsys):
        tmp, cfg = ws
        assert run(["gen-data", "--config", cfg, "--out", tmp / "data"]) == 0
        split = json.loads((tmp / "data" / "split.json").read_text())
        case = (split["test"] or split["train"])[0]
        path = TR.sample_path(tmp / "data", case)
        s = P.read_sample(path)
        if fault == "ptv-dose":
            s.dose[s.ptv] = 0.0
        elif fault == "oar2-mask":
            s.oars[1] = False
        elif fault == "ptv-mask":
            s.ptv[:] = False
        else:
            s.ct[:] = 0.0
        P.write_sample(path, s)
        capsys.readouterr()
        assert run(["ablate", "--config", cfg, "--data", tmp / "data",
                    "--out", tmp / "ab", "--strategies", "attn-last1,add-all"]) == 3
        assert capsys.readouterr().err.splitlines() == [f"data error: case {case}: {message}"]
        assert not (tmp / "ab").exists()


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

    def test_failed_out_write_keeps_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "sched.csv"
        assert run(["dump-schedule", "--steps", 5, "--out", out]) == 0
        before = out.read_bytes()

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("dosediff.atomic.os.replace", no_replace)
        with pytest.raises(OSError, match="disk full"):
            run(["dump-schedule", "--steps", 7, "--out", out])
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("args", [
        ["--steps", 0], ["--steps", 3, "--beta-start", 0], ["--steps", 3, "--beta-end", "nan"],
        ["--steps", 3, "--beta-start", 0.5, "--beta-end", 0.1],
    ], ids=["steps-0", "beta-start-0", "beta-end-nan", "start-above-end"])
    def test_bad_schedule_is_2(self, tmp_path, args, capsys):
        assert run(["dump-schedule", *args, "--out", tmp_path / "s.csv"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "t_steps" in err[0]
        assert not (tmp_path / "s.csv").exists()


@pytest.fixture(scope="module")
def split_ws(tmp_path_factory):
    """A generated data set of CFG, its config and its split manifest."""
    tmp = tmp_path_factory.mktemp("split")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    assert run(["gen-data", "--config", cfg, "--out", tmp / "data"]) == 0
    return tmp, cfg, tmp / "data", json.loads((tmp / "data" / "split.json").read_text())


SPLIT_KEYS = ("train", "val", "test", "seed")
# case ids a hand-edited split may hold: odd values, any short text, and
# names that are not plain file names
ODD_IDS = st.one_of(ODD_VALUES, st.text(max_size=8),
                    st.sampled_from(["", ".", "..", "a/b", "../x", "x\0"]))


def mutate_split(d, data):
    """One mutation of a split manifest: a key dropped or set to an odd
    value, an id replaced by an odd one, an id listed again, or the whole
    manifest replaced."""
    how = data.draw(st.sampled_from(["drop", "odd", "id", "repeat", "whole"]))
    key = data.draw(st.sampled_from(SPLIT_KEYS))
    if how == "whole" or not isinstance(d, dict):
        return data.draw(ODD_VALUES)
    if how == "drop":
        d.pop(key, None)
    elif how == "odd" or not (isinstance(d.get(key), list) and d[key]):
        d[key] = data.draw(ODD_VALUES)
    elif how == "id":
        d[key][data.draw(st.integers(0, len(d[key]) - 1))] = data.draw(ODD_IDS)
    else:
        into = data.draw(st.sampled_from([k for k in SPLIT_KEYS[:3] if isinstance(d.get(k), list)]))
        d[into].append(data.draw(st.sampled_from(d[key])))
    return d


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_mutated_split_runs_or_is_a_data_error(split_ws, data):
    """One or two mutations of a valid ``split.json``: ``train`` either runs
    or exits 3 with one ``data error:`` line, never a traceback."""
    tmp, cfg, data_dir, split = split_ws
    d = json.loads(json.dumps(split))
    for _ in range(data.draw(st.integers(1, 2))):
        d = mutate_split(d, data)
    (data_dir / "split.json").write_text(json.dumps(d))
    shutil.rmtree(tmp / "run", ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["train", "--config", cfg, "--data", data_dir, "--out", tmp / "run",
                    "--steps", 1])
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 3 and len(lines) == 1 and lines[0].startswith("data error:")), \
        (code, lines, d)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(["gen-data", "--config", bad, "--out", tmp_path / "x"]) == 2
        assert run(["train", "--config", tmp_path / "missing.json",
                    "--data", tmp_path, "--out", tmp_path / "y"]) == 2

    def test_config_naming_a_directory_is_2(self, tmp_path, capsys):
        (tmp_path / "cfg").mkdir()
        assert run(["gen-data", "--config", tmp_path / "cfg", "--out", tmp_path / "d"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "cfg" in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg"]
        assert not any((tmp_path / "cfg").iterdir())

    @pytest.mark.parametrize("path,value", [
        # ranges that used to pass config loading
        ("model.base_channels", 0), ("model.stage_multipliers", [0, 1]),
        ("data.split_ratios", [-1.0, 1.0, 1.0]), ("model.image_size", 65536),
        ("model.oar_count", 1000000), ("train.lr", float("nan")), ("train.lr", float("inf")),
        ("train.lr", 0.0), ("train.beta1", 1.0), ("train.beta2", float("nan")),
        ("train.decay_start_frac", float("inf")), ("train.checkpoint_every", -1),
        ("model.time_dim", -4), ("model.beta_end", float("nan")),
        ("data.split_ratios", [float("nan"), 0.5, 0.5]), ("seed", -1), ("data.seed", -1),
        # rules the library functions enforced, now config rules
        ("model.t_steps", 0), ("model.beta_start", 0), ("model.image_size", 8),
        ("data.beam_count", 0), ("data.split_ratios", [0.5, 0.5, 0.5]),
        # last, so the generated ids of the cases above stay as they were
        ("model.time_dim", 5),
    ])
    def test_out_of_range_config_value_is_2(self, tmp_path, path, value, capsys):
        bad = json.loads(json.dumps(CFG))
        *sections, key = path.split(".")
        target = bad
        for s in sections:
            target = target[s]
        target[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run(["gen-data", "--config", cfg, "--out", tmp_path / "d"]) == 2
        assert run(["train", "--config", cfg, "--data", tmp_path / "d",
                    "--out", tmp_path / "r"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(e.startswith("config error:") and key in e for e in err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_float_field_holding_a_huge_integer_is_2_and_named(self, tmp_path, capsys):
        # JSON integers have no range; this one overflows a float
        text = json.dumps(CFG).replace('"beta_end": 0.3', '"beta_end": 0.3, "beta_start": 1'
                                       + "0" * 400)
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run(["gen-data", "--config", cfg, "--out", tmp_path / "d"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: config.model.beta_start:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_plain_value_error_is_not_a_config_error(self, monkeypatch):
        def broken(args):
            raise ValueError("a fault inside the program")
        monkeypatch.setattr(cli, "cmd_dump_schedule", broken)
        with pytest.raises(ValueError, match="inside the program"):
            run(["dump-schedule", "--steps", 3])

    def test_full_disk_is_not_a_data_error(self, monkeypatch):
        def full(args):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cli, "cmd_dump_schedule", full)
        with pytest.raises(OSError, match="No space left"):
            run(["dump-schedule", "--steps", 3])

    @pytest.mark.parametrize("section,key,value", [
        ("model", "window", 0), ("model", "heads", "two"), ("model", "fusion", 5),
        ("model", "stage_multipliers", None), ("data", "split_ratios", [1.0]),
        ("train", "steps", 2.5), ("train", "steps", True), ("train", "lr", "x"),
    ])
    def test_ill_typed_config_value_is_2(self, tmp_path, section, key, value, capsys):
        bad = json.loads(json.dumps(CFG))
        bad[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["gen-data", "--config", path, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_data_error_is_3(self, ws):
        tmp, cfg = ws
        assert run(["train", "--config", cfg, "--data", tmp / "absent",
                    "--out", tmp / "r"]) == 3

    @pytest.mark.parametrize("where", [
        "sample-cases", "sample-split", "sample-data", "sample-checkpoint", "train-resume",
        "eval-pred", "gen-data-out", "dump-schedule-out"])
    def test_name_too_long_is_3(self, trained, where, capsys):
        """A path or case id past the file system's name limit is a data
        error that names it, not a traceback."""
        tmp, cfg, data, ckpt = trained
        long = "a" * (os.pathconf(tmp, "PC_NAME_MAX") + 1)
        split = json.loads((data / "split.json").read_text())
        split["test"] = [long]
        (data / "split.json").write_text(json.dumps(split))
        sample = ["sample", "--checkpoint", ckpt, "--data", data, "--out", tmp / "o"]
        args = {
            "sample-cases": sample + ["--cases", long],
            "sample-split": sample,
            "sample-data": ["sample", "--checkpoint", ckpt, "--data", tmp / long,
                            "--out", tmp / "o"],
            "sample-checkpoint": ["sample", "--checkpoint", tmp / long, "--data", data,
                                  "--out", tmp / "o"],
            "train-resume": ["train", "--resume", tmp / long, "--data", data, "--out", tmp / "o"],
            "eval-pred": ["eval", "--pred", tmp / long, "--truth", data, "--out", tmp / "o"],
            "gen-data-out": ["gen-data", "--config", cfg, "--out", tmp / long],
            "dump-schedule-out": ["dump-schedule", "--steps", 3, "--out", tmp / long],
        }[where]
        capsys.readouterr()
        assert run(args) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and long in err[0]
        assert not (tmp / "o").exists()

    def test_name_near_the_limit_is_written(self, tmp_path):
        """A legal name 5 bytes under the file system's name limit is
        written; the temporary file it went through is gone."""
        name = "s" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 9) + ".csv"
        assert run(["dump-schedule", "--steps", 3, "--out", tmp_path / name]) == 0
        assert [f.name for f in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_text().startswith("t,")

    def test_numeric_failure_is_4(self, trained):
        tmp, cfg, data, ckpt = trained
        # poison one parameter with NaN and resume from it
        ck = load_checkpoint(ckpt)
        model = ck.model
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

    def test_non_finite_gradient_is_4(self, ws, monkeypatch, capsys):
        tmp, cfg = ws
        run(["gen-data", "--config", cfg, "--out", tmp / "data"])
        backward = TR.backward

        def nan_gradient(loss, leaves):
            grads = backward(loss, leaves)
            grads[0].flat[0] = np.nan
            return grads

        monkeypatch.setattr(TR, "backward", nan_gradient)
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--data", tmp / "data",
                    "--out", tmp / "run"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: non-finite gradient "
                                                   "of parameter ")
        assert err[0].endswith(" at step 0")

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
        # the parameter check runs inside the read too, so every line names the file
        assert len(err) == 2 and all(e.startswith(f"data error: {bad}:") for e in err)
        assert not (tmp / "s").exists() and not (tmp / "t").exists()

    def test_resume_from_a_bad_step_count_is_3(self, trained, capsys):
        """A step or optimizer count that is not one integer >= 0 is a data
        error naming the file, not a run that logs steps from -3."""
        tmp, cfg, data, ckpt = trained
        for label, edit in BAD_COUNT_HEADERS.items():
            bad = rewrite_checkpoint_header(ckpt, tmp / f"{label}.bin", edit)
            capsys.readouterr()
            assert run(["train", "--resume", bad, "--data", data,
                        "--out", tmp / "t"]) == 3, label
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"data error: {bad}:"), (label, err)
            assert not (tmp / "t").exists(), label

    def test_empty_mask_in_eval_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        s.ptv[:] = False
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", s.dose, meta={})
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_eval_prediction_shape_mismatch_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=32, oar_count=2, beam_count=5)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", np.ones((16, 16), np.float32), meta={})
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_eval_non_finite_prediction_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        pred = s.dose.copy()
        pred[4, 5], pred[8, 8] = np.nan, np.inf
        P.write_dose_map(tmp_path / "pred" / "c.spdp", pred, meta={})
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: case c: prediction has 2 non-finite voxels"]

    def test_eval_prediction_zero_in_ptv_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        pred = s.dose.copy()
        pred[s.ptv] = 0.0
        P.write_dose_map(tmp_path / "pred" / "c.spdp", pred, meta={})
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: case c: prediction has no positive mean dose in the PTV"]

    def test_eval_all_zero_prediction_is_3(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", np.zeros((16, 16), np.float32), meta={})
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: case c: prediction has no positive mean dose in the PTV"]
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("side,keep", [("truth", 100), ("pred", 30)])
    def test_eval_truncated_file_is_3_and_named(self, tmp_path, side, keep, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", s.dose, meta={})
        bad = tmp_path / side / "c.spdp"
        bad.write_bytes(bad.read_bytes()[:keep])
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {bad}: truncated ")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("channel", ["ct", "dose"])
    def test_eval_non_finite_truth_voxel_is_3_and_named(self, tmp_path, channel, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_dose_map(tmp_path / "pred" / "c.spdp", s.dose, meta={})
        getattr(s, channel)[s.ptv] = np.nan
        bad = tmp_path / "truth" / "c.spdp"
        P.write_sample(bad, s)
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        name = {"ct": "CT", "dose": "dose"}[channel]
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {bad}: {int(s.ptv.sum())} non-finite {name} voxels"]
        assert not (tmp_path / "ev").exists()

    def test_train_non_finite_sample_voxel_is_3_and_named(self, ws, capsys):
        tmp, cfg = ws
        assert run(["gen-data", "--config", cfg, "--out", tmp / "data"]) == 0
        split = json.loads((tmp / "data" / "split.json").read_text())
        bad = TR.sample_path(tmp / "data", split["train"][0])
        s = P.read_sample(bad)
        s.dose[s.ptv] = np.nan
        P.write_sample(bad, s)
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--data", tmp / "data",
                    "--out", tmp / "t"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {bad}: {int(s.ptv.sum())} non-finite dose voxels"]
        assert not (tmp / "t").exists()

    def test_eval_empty_oar_mask_names_the_case(self, tmp_path, capsys):
        s = P.generate_phantom(3, size=16, oar_count=2, beam_count=5)
        s.oars[1] = False
        (tmp_path / "truth").mkdir()
        (tmp_path / "pred").mkdir()
        P.write_sample(tmp_path / "truth" / "c.spdp", s)
        P.write_dose_map(tmp_path / "pred" / "c.spdp", s.dose, meta={})
        assert run(["eval", "--pred", tmp_path / "pred", "--truth", tmp_path / "truth",
                    "--out", tmp_path / "ev"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["data error: case c: mask selects no voxels"]
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"train": []}',
        '{"train": 5, "val": [], "test": [], "seed": 0}',
        '{"train": [], "val": [], "test": []}',
    ], ids=["invalid-json", "not-an-object", "missing-keys", "train-not-a-list", "no-seed"])
    def test_malformed_split_is_3(self, ws, text, capsys):
        tmp, cfg = ws
        (tmp / "data").mkdir()
        (tmp / "data" / "split.json").write_text(text)
        assert run(["train", "--config", cfg, "--data", tmp / "data",
                    "--out", tmp / "t"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")

    def test_split_not_utf8_is_3(self, trained, capsys):
        tmp, cfg, data, ckpt = trained
        (data / "split.json").write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        assert run(["train", "--config", cfg, "--data", data, "--out", tmp / "t"]) == 3
        assert run(["sample", "--checkpoint", ckpt, "--data", data, "--out", tmp / "s"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("data error:") and "split.json" in e
                                     for e in err)

    @pytest.mark.parametrize("where,text", [
        ("config", DEEP_JSON), ("config", HUGE_INT_JSON), ("split", DEEP_JSON),
        ("split", HUGE_INT_JSON), ("checkpoint", DEEP_JSON),
    ], ids=["config-deep", "config-huge-int", "split-deep", "split-huge-int",
            "checkpoint-deep"])
    def test_json_too_deep_or_too_long_is_an_input_error(self, tmp_path, where, text, capsys):
        """JSON nested past the parser's recursion limit, or an integer past
        Python's 4,300-digit conversion limit, is a config or data error on
        one stderr line: ``main`` returns an exit code instead of raising."""
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        if where == "config":
            (tmp_path / "cfg.json").write_text(text)
            args = ["gen-data", "--config", tmp_path / "cfg.json", "--out", out]
        elif where == "split":
            (data / "split.json").write_text(text)
            args = ["sample", "--checkpoint", tmp_path / "unread.bin", "--data", data,
                    "--out", out]
        else:
            CKPT_FILE.write(tmp_path / "ckpt.bin", [P.pack_text(text)])
            args = ["sample", "--checkpoint", tmp_path / "ckpt.bin", "--data", data,
                    "--cases", "sample_00000", "--out", out]
        code, prefix = (2, "config error:") if where == "config" else (3, "data error:")
        assert run(args) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        assert ("split.json" if where == "split" else "ckpt.bin" if where == "checkpoint"
                else "cfg.json") in lines[0]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [
        "gen-data", "gen-data-under-file", "train", "sample", "eval",
        "sample-checkpoint-dir", "train-resume-dir"])
    def test_path_of_the_wrong_kind_is_3(self, trained, command, capsys):
        tmp, cfg, data, ckpt = trained
        a_file, a_dir = tmp / "a_file", tmp / "a_dir"
        a_file.write_text("keep")
        a_dir.mkdir()
        argv = {
            "gen-data": ["gen-data", "--config", cfg, "--out", a_file],
            "gen-data-under-file": ["gen-data", "--config", cfg, "--out", a_file / "sub"],
            "train": ["train", "--config", cfg, "--data", data, "--out", a_file],
            "sample": ["sample", "--checkpoint", ckpt, "--data", data,
                       "--cases", "sample_00000", "--out", a_file],
            "eval": ["eval", "--pred", data, "--truth", data, "--out", a_file],
            "sample-checkpoint-dir": ["sample", "--checkpoint", a_dir, "--data", data,
                                      "--out", tmp / "s"],
            "train-resume-dir": ["train", "--resume", a_dir, "--data", data,
                                 "--out", tmp / "t"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert a_file.read_text() == "keep"

    @pytest.mark.parametrize("bad", [1, None, "", ".", "..", "../x", "a/b", "/abs", "a\0b"],
                             ids=["int", "null", "empty", "dot", "dotdot", "parent",
                                  "subdir", "absolute", "nul"])
    def test_split_case_id_not_a_plain_name_is_3(self, trained, bad, capsys):
        tmp, cfg, data, ckpt = trained
        split = json.loads((data / "split.json").read_text())
        split["test"] = split["test"] + [bad]
        (data / "split.json").write_text(json.dumps(split))
        capsys.readouterr()
        assert run(["sample", "--checkpoint", ckpt, "--data", data,
                    "--out", tmp / "s"]) == 3
        assert run(["train", "--config", cfg, "--data", data, "--out", tmp / "t"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("data error:") and "case id" in e
                                     for e in err)

    @pytest.mark.parametrize("cases", ["../x", "sample_00000,../x", "..", "/abs/x", "a/b"])
    def test_cases_not_plain_names_write_nothing(self, trained, cases, capsys):
        tmp, cfg, data, ckpt = trained
        # a readable case just outside --data, which ../x would reach
        (tmp / "x.spdp").write_bytes((data / "sample_00000.spdp").read_bytes())
        before = sorted(p.name for p in tmp.iterdir())
        capsys.readouterr()
        assert run(["sample", "--checkpoint", ckpt, "--data", data, "--cases", cases,
                    "--out", tmp / "s"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and "case id" in err[0]
        assert sorted(p.name for p in tmp.iterdir()) == before

    @pytest.mark.parametrize("cut", ["inside-moments", "trailing-byte"])
    def test_damaged_checkpoint_is_3_for_sample(self, trained, cut, capsys):
        # sample steps over the Adam moments but still checks their length
        tmp, cfg, data, ckpt = trained
        blob = ckpt.read_bytes()
        bad = tmp / "bad.bin"
        bad.write_bytes(blob[:-8] if cut == "inside-moments" else blob + b"\0")
        capsys.readouterr()
        assert run(["sample", "--checkpoint", bad, "--data", data,
                    "--cases", "sample_00000", "--out", tmp / "s"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert ("truncated" if cut == "inside-moments" else "trailing") in err[0]
        assert not (tmp / "s").exists()

    def test_duplicate_case_ids_are_3(self, trained, capsys):
        tmp, cfg, data, ckpt = trained
        capsys.readouterr()
        assert run(["sample", "--checkpoint", ckpt, "--data", data,
                    "--cases", "sample_00001,sample_00000,sample_00001",
                    "--out", tmp / "s"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert "'sample_00001'" in err[0]
        assert not (tmp / "s").exists()

    @pytest.mark.parametrize("listed", ["train-and-test", "twice-in-test"])
    def test_split_listing_a_case_twice_is_3(self, trained, listed, capsys):
        tmp, cfg, data, ckpt = trained
        split = json.loads((data / "split.json").read_text())
        again = split["train"][0] if listed == "train-and-test" else split["test"][0]
        split["test"] = split["test"] + [again]
        (data / "split.json").write_text(json.dumps(split))
        capsys.readouterr()
        assert run(["sample", "--checkpoint", ckpt, "--data", data,
                    "--out", tmp / "s"]) == 3
        assert run(["ablate", "--config", cfg, "--data", data, "--out", tmp / "a",
                    "--strategies", "add-all"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("data error:") for e in err)
        assert all(repr(again) in e and "'test'" in e for e in err)
        assert not (tmp / "s").exists()

    def test_compare_with_one_shared_case_writes_nothing(self, trained, capsys):
        tmp, cfg, data, ckpt = trained
        for out, cases in (("pa", "sample_00000,sample_00001"), ("pb", "sample_00001")):
            assert run(["sample", "--checkpoint", ckpt, "--data", data,
                        "--cases", cases, "--out", tmp / out]) == 0
        capsys.readouterr()
        assert run(["eval", "--pred", tmp / "pa", "--truth", data,
                    "--out", tmp / "ev", "--compare", tmp / "pb"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "two shared cases" in err[0]
        assert not (tmp / "ev").exists() or not any((tmp / "ev").iterdir())

    def test_malformed_compare_prediction_writes_nothing(self, trained, capsys):
        # both directories are read and scored before the first result file
        tmp, cfg, data, ckpt = trained
        cases = "sample_00000,sample_00001,sample_00002"
        for out, seed in (("pa", 3), ("pb", 4)):
            assert run(["sample", "--checkpoint", ckpt, "--data", data, "--cases", cases,
                        "--out", tmp / out, "--seed", seed]) == 0
        cut = tmp / "pb" / "sample_00001.spdp"
        cut.write_bytes(cut.read_bytes()[:20])
        capsys.readouterr()
        assert run(["eval", "--pred", tmp / "pa", "--truth", data,
                    "--out", tmp / "ev", "--compare", tmp / "pb"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert not (tmp / "ev").exists() or not any((tmp / "ev").iterdir())

    @pytest.mark.parametrize("command", ["sample", "train", "train-resume"])
    def test_negative_seed_is_2_before_any_read(self, ws, command, capsys):
        tmp, cfg = ws
        missing = tmp / "nonexistent"
        argv = {"sample": ["sample", "--checkpoint", missing, "--data", missing],
                "train": ["train", "--config", cfg, "--resume", missing, "--data", missing],
                "train-resume": ["train", "--resume", missing, "--data", missing]}[command]
        capsys.readouterr()
        assert run(argv + ["--seed", -1, "--out", tmp / "o"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
        assert not (tmp / "o").exists()

    @pytest.mark.parametrize("command", ["train", "ablate", "sample", "sample-wrong-size",
                                         "ablate-wrong-size"])
    def test_data_error_leaves_no_out_dir(self, trained, command, capsys):
        # every input is read before --out is created
        tmp, cfg, data, ckpt = trained
        if command == "sample-wrong-size":
            other = json.loads(json.dumps(CFG))
            other["model"]["image_size"] = 32
            (tmp / "other.json").write_text(json.dumps(other))
            assert run(["gen-data", "--config", tmp / "other.json", "--out", tmp / "other"]) == 0
        if command == "ablate-wrong-size":
            # a test case that does not fit the model, which only evaluation reads
            shutil.copytree(data, tmp / "mixed")
            bad = json.loads((data / "split.json").read_text())["test"][0]
            P.write_sample(tmp / "mixed" / f"{bad}.spdp",
                           P.generate_phantom(0, size=32, oar_count=2, beam_count=5))
        argv = {"train": ["train", "--config", cfg, "--data", tmp / "missing"],
                "ablate": ["ablate", "--config", cfg, "--data", tmp / "missing",
                           "--strategies", "attn-last1"],
                "sample": ["sample", "--checkpoint", ckpt, "--data", data,
                           "--cases", "sample_00000,sample_00099"],
                "sample-wrong-size": ["sample", "--checkpoint", ckpt, "--data", tmp / "other",
                                      "--cases", "sample_00000"],
                "ablate-wrong-size": ["ablate", "--config", cfg, "--data", tmp / "mixed",
                                      "--strategies", "add-all"]}[command]
        capsys.readouterr()
        assert run(argv + ["--out", tmp / "o"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        if command == "ablate-wrong-size":
            assert bad in err[0]
        assert not (tmp / "o").exists()
