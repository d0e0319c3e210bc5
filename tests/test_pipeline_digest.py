"""The bitwise record of the command chain: every result file of one
smoke-scale run of ``gen-data``, ``train``, ``train --resume``, ``sample``,
``eval --compare`` and ``ablate`` has a pinned SHA-256.

The chain runs in-process through ``cli.main``. Only
``ablation_timing.csv`` is left out: it holds wall-clock times. The values
depend on numpy and its BLAS build; a change that moves a file, by design
or by an upgrade, re-records it here and says which file moved and why in
CHANGES.md.
"""

import hashlib
import json

from dosediff.cli import main

CFG = {
    "model": {
        "image_size": 16, "oar_count": 2, "base_channels": 4,
        "stage_multipliers": [1, 2], "window": 2, "heads": 2,
        "projector_ratio": 4, "fusion": "attn-last1", "t_steps": 10,
        "beta_end": 0.3,
    },
    "train": {"steps": 20, "batch_size": 2, "lr": 0.002, "checkpoint_every": 10},
    "data": {"n_samples": 6, "seed": 2},
    "seed": 4,
    "out_dir": "unused",
}

# recorded at da0a2a0
PINNED = {
    "ablate/ablate_add-all/ckpt_final.bin":
        "6f7b0e1986a562021cb2709153dfa07f8f617ecfaa7560f3c90e88f3f8256c27",
    "ablate/ablate_add-all/ckpt_step000010.bin":
        "401e8117960aae356039444cafc746455f10a3961ada8c3e7cfea397beb23295",
    "ablate/ablate_add-all/loss_log.csv":
        "e8789bcb22543fddc9016b437d89c354a1ad80d68999781f96c7aa5cede274d5",
    "ablate/ablate_concatenate/ckpt_final.bin":
        "f85bb494e9866eedeef52368eff84957c6bbe0dfe635343ded3a71869059ae51",
    "ablate/ablate_concatenate/ckpt_step000010.bin":
        "7a28b4a85385bf1c29aa739e5584ac5be3bb3cdd8a256f420acb4c28931e7dea",
    "ablate/ablate_concatenate/loss_log.csv":
        "f43e3384a9e55ff6711fab5150e8ae884593c26d0c1d9bf43f22326486eb21cd",
    "ablate/ablation.csv":
        "b3ea3581d33a55d8a39c369b394db67f61835612e6ab86730990b86fb98f4d22",
    "data/sample_00000.spdp":
        "76e91cba92bf66c591048385efa8544530ca9c6b978456bb12cf465ce9f9c3e3",
    "data/sample_00001.spdp":
        "b52ed77617abd028b473eace6f10df47b8b4c76fa7e059ee6237711e89e9c234",
    "data/sample_00002.spdp":
        "addabdf9b96dd2afa6410e286cbe9837b4db8a5dca3fc9b5989734eb38434426",
    "data/sample_00003.spdp":
        "3919a86e9efb699ff154fd80aa490a971b536f0704798cedb38ed7cd87a6ce27",
    "data/sample_00004.spdp":
        "c2c9ddbd2dd6a218bd700bea634e4b82084bf6a5405309df78414821eb934388",
    "data/sample_00005.spdp":
        "e6c6802d828e965bbd7506679901059b1184c128ed5af53e8b7382ec08f5b654",
    "data/split.json":
        "d5e8a0b06c57f038555d839afa3f0e462e3544d9054603adbd1da19fd45375fb",
    "eval/dvh_sample_00003.csv":
        "4b4cb4f823c110e05caa8806fad670118d5dbc6628716c7db70ca875c77c7bab",
    "eval/dvh_sample_00005.csv":
        "49b08d62c6c5c79d6bfe52fa839b46af4986d6167ed3a207d6f5aff49aeee66e",
    "eval/metrics.csv":
        "94b5c8845135aa9ceee998bcd9c8da74a270a59dd60765a0cb79f0654d2c2503",
    "eval/metrics_summary.csv":
        "d53552a1207470c961b737233b6caabac743381d0317b61977beff17f6051c54",
    "eval/report_sample_00003.txt":
        "6528d9bd2fa2a88dd8b142ddbc3884d8c4d3ca75b946471158a85dc609d0492c",
    "eval/report_sample_00005.txt":
        "a9d829e8453ed6bd2f8e9e1b86970c9d1577433f248289160c87f418ad2bfce1",
    "eval/ttest.csv":
        "b98be914012043475cdb62aba167660f1d1a76492a5c9139159125a81042e6bb",
    "resumed/ckpt_final.bin":
        "1b2eeb588272ce2213ae800e7837153f57c5d885839e2c73e38c3bc5cffc4220",
    "resumed/loss_log.csv":
        "45c739bd7263be7db1858f40330049d07be204100bdd788c8bc0e26fe06ad8b5",
    "sample_final/sample_00003.pgm":
        "befff4e8e647511783feb6381d73bffb84a25e2e0a34afb90bc368714cd1ed23",
    "sample_final/sample_00003.spdp":
        "2b70753bb31f0cd2c17956a4d2cdb4d0afa242e8c7fc598f75960d6252946f71",
    "sample_final/sample_00003_diff.ppm":
        "1d78cf66529df26be8bd7c3e594b5aba6fe41852ff2f09adb21864eb892d5249",
    "sample_final/sample_00005.pgm":
        "3b1d285b59621928978b822af4aab1968ba94c05761d55b05478aa3d8dddf6b4",
    "sample_final/sample_00005.spdp":
        "5feaf83eb43576fd3262d27a94c6c7db7d78708ab1a6971b98db3e5f4924508d",
    "sample_final/sample_00005_diff.ppm":
        "b5a40a6ea044d850cf07bbc038b0d376810adce26f91c07a2d2d77bd69b4a617",
    "sample_mid/sample_00003.pgm":
        "b25be38636299ee435d6fdfbbde08f0ebddc8e418748153f388dcb596a3c0ad1",
    "sample_mid/sample_00003.spdp":
        "392c59ed010a8e9f5e279a4f0df966b6d4964002a69fe941ab0b53f3b7792433",
    "sample_mid/sample_00003_diff.ppm":
        "ecd1060344d88201d0c4251f662b4b606b80995459b4f7d69268232ee2b0f1b0",
    "sample_mid/sample_00005.pgm":
        "8250f199082131d69ea8688caee29be32620f078d03ca31ff37cb258040380e3",
    "sample_mid/sample_00005.spdp":
        "7de540fdd651b5947ccf23c3d5cf158241b1deb96a9c622e7398d6183fccc2bd",
    "sample_mid/sample_00005_diff.ppm":
        "fc9058c8f4e4964745af5c5df5ff2fde5529a95518ec9e0f23d5ada3fe1e774c",
    "train/ckpt_final.bin":
        "1b2eeb588272ce2213ae800e7837153f57c5d885839e2c73e38c3bc5cffc4220",
    "train/ckpt_step000010.bin":
        "2cccb94cc0d0fcb54ccdcdf5c0dd5ad7998239a2ab12551440f898268d14a1b0",
    "train/loss_log.csv":
        "f1d45da9f637f3894a7423ba9355aea44126e3aee59f73769b669fe0559e4dc4",
}


def run(*args) -> None:
    assert main([str(a) for a in args]) == 0, args


def run_chain(tmp):
    """Run the chain in ``tmp``; returns {relative path: SHA-256} of every
    result file but the ablation timings."""
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    data, train, resumed = tmp / "data", tmp / "train", tmp / "resumed"
    run("gen-data", "--config", cfg, "--out", data)
    run("train", "--config", cfg, "--data", data, "--out", train)
    run("train", "--resume", train / "ckpt_step000010.bin", "--data", data, "--out", resumed)
    cases = ",".join(json.loads((data / "split.json").read_text())["train"][:2])
    for ckpt, out in (("ckpt_final.bin", "sample_final"), ("ckpt_step000010.bin", "sample_mid")):
        run("sample", "--checkpoint", train / ckpt, "--data", data, "--cases", cases,
            "--out", tmp / out)
    run("eval", "--pred", tmp / "sample_final", "--truth", data, "--compare",
        tmp / "sample_mid", "--out", tmp / "eval")
    run("ablate", "--config", cfg, "--data", data, "--out", tmp / "ablate",
        "--strategies", "concatenate,add-all")
    return {f.relative_to(tmp).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(tmp.rglob("*"))
            if f.is_file() and f.name not in ("cfg.json", "ablation_timing.csv")}


def test_pipeline_result_files_are_pinned(tmp_path):
    got = run_chain(tmp_path)
    assert (tmp_path / "resumed" / "ckpt_final.bin").read_bytes() == \
        (tmp_path / "train" / "ckpt_final.bin").read_bytes()
    assert sorted(got) == sorted(PINNED), "the chain writes other files than the pinned ones"
    moved = [name for name in PINNED if got[name] != PINNED[name]]
    assert not moved, "result file moved: " + ", ".join(
        f"{name} {got[name]} (pinned {PINNED[name]})" for name in moved)
