import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosediff import phantom as P
from dosediff.checkpoint import load_checkpoint, save_checkpoint
from dosediff.cli import main
from dosediff.config import (ConfigError, FusionStrategy, ModelConfig, config_from_dict,
                             config_to_dict, load_config, save_config, validate)
from dosediff.networks import DoseModel
from dosediff.optim import adam_step
from dosediff.phantom import BadMagicError, SampleFormatError, TruncatedFileError


def tiny_run_config():
    d = {
        "model": {
            "image_size": 16, "oar_count": 2, "base_channels": 4,
            "stage_multipliers": [1, 2], "window": 2, "heads": 2,
            "projector_ratio": 4, "fusion": "attn-last1", "t_steps": 8,
            "beta_end": 0.3,
        },
        "train": {"steps": 5, "batch_size": 2, "lr": 0.001},
        "data": {"n_samples": 4, "seed": 1},
        "seed": 3,
        "out_dir": "runs/t",
    }
    return config_from_dict(d)


def rewrite_checkpoint_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its JSON header replaced by
    ``edit(header_bytes)``; the tensor payload is kept as is."""
    buf = src.read_bytes()
    (n,) = struct.unpack("<I", buf[6:10])
    header = edit(buf[10:10 + n])
    dst.write_bytes(buf[:6] + struct.pack("<I", len(header)) + header + buf[10 + n:])
    return dst


def drop_config(header: bytes) -> bytes:
    d = json.loads(header)
    del d["config"]
    return json.dumps(d).encode("utf-8")


def bad_rng_state(header: bytes) -> bytes:
    d = json.loads(header)
    d["rng_state"] = {"bit_generator": "PCG64", "state": 5}
    return json.dumps(d).encode("utf-8")


def rng_state_out_of_range(header: bytes) -> bytes:
    d = json.loads(header)
    d["rng_state"]["state"]["state"] = -1
    return json.dumps(d).encode("utf-8")


def drop_opt_step(header: bytes) -> bytes:
    d = json.loads(header)
    del d["opt_steps"]["dn.head.b"]
    return json.dumps(d).encode("utf-8")


def edit_counts(step=None, counts=None):
    """A header edit that sets ``step`` and maps every ``opt_steps`` value
    v to ``counts(v)`` (each left alone when None)."""
    def edit(header: bytes) -> bytes:
        d = json.loads(header)
        if step is not None:
            d["step"] = step
        if counts is not None:
            d["opt_steps"] = {n: counts(v) for n, v in d["opt_steps"].items()}
        return json.dumps(d).encode("utf-8")
    return edit


def two_opt_step_values(header: bytes) -> bytes:
    d = json.loads(header)
    d["opt_steps"]["dn.head.b"] += 1
    return json.dumps(d).encode("utf-8")


# hand-edited step counts that no save writes
BAD_COUNT_HEADERS = {
    "negative-step": edit_counts(step=-3),
    "bool-step": edit_counts(step=True),
    "float-count": edit_counts(counts=float),
    "negative-count": edit_counts(counts=lambda v: -1),
    "two-opt-step-values": two_opt_step_values,
}


def rename_param(header: bytes) -> bytes:
    """Rename one parameter consistently, so the file is well formed but no
    longer matches the model its config builds."""
    return header.replace(b'"dn.head.b"', b'"dn.head.bias"')


MALFORMED_HEADERS = {
    "invalid-json": lambda h: b"{not json",
    "not-an-object": lambda h: b"[]",
    "no-config": drop_config,
    "bad-step": lambda h: h.replace(b'"step":1', b'"step":"x"'),
    "bad-rng-state": bad_rng_state,
    "rng-state-out-of-range": rng_state_out_of_range,
    "missing-opt-step": drop_opt_step,
    "renamed-param": rename_param,
    **BAD_COUNT_HEADERS,
}


class TestConfig:
    def test_roundtrip_is_identity(self, tmp_path):
        cfg = tiny_run_config()
        path = tmp_path / "c.json"
        save_config(path, cfg)
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)
        # serialize -> parse -> serialize gives identical text
        save_config(tmp_path / "c2.json", again)
        assert (tmp_path / "c.json").read_text() == (tmp_path / "c2.json").read_text()

    def test_defaults_fill_missing_sections(self):
        cfg = config_from_dict({})
        assert cfg.model.image_size == 256
        assert cfg.train.lr == 1e-4
        assert cfg.train.batch_size == 8
        assert cfg.model.t_steps == 1000

    def test_unknown_keys_fail_fast(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"modle": {}})
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"model": {"windw": 4}})

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"image_size": 17}})

    def test_bad_fusion_string(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"fusion": "blend-everything"}})

    def test_schema_raises_config_error(self):
        # one schema, importable from both modules, whose checks are config errors
        from dosediff import config, networks
        assert networks.ModelConfig is config.ModelConfig
        for bad in ("mystery", "attn-last", "attn-lastx", "attn-last-1"):
            with pytest.raises(ConfigError):
                FusionStrategy.parse(bad)
        with pytest.raises(ConfigError):
            FusionStrategy.parse("attn-last3").stage_kinds(2)
        with pytest.raises(ConfigError):
            ModelConfig(heads=3).validate()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_fusion_survives_roundtrip(self):
        cfg = tiny_run_config()
        d = config_to_dict(cfg)
        assert d["model"]["fusion"] == "attn-last1"
        assert config_from_dict(d).model.fusion == FusionStrategy("attn-lastK", 1)


class TestCheckpoint:
    def build(self):
        cfg = tiny_run_config()
        model = DoseModel(cfg.model, cfg.seed)
        rng = np.random.default_rng(5)
        # a couple of optimizer steps so moments are nontrivial
        for _ in range(2):
            grads = [rng.standard_normal(p.shape) for p in model.store.tensors()]
            adam_step(model.store, grads, 1e-3, (0.9, 0.999))
        return cfg, model, rng

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg, model, rng = self.build()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, cfg, model.store, 2, rng)
        ckpt = load_checkpoint(p1)
        model2 = ckpt.model
        rng2 = np.random.default_rng(0)
        rng2.bit_generator.state = ckpt.rng_state
        save_checkpoint(p2, ckpt.config, model2.store, ckpt.step, rng2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restore_reproduces_state(self, tmp_path):
        cfg, model, rng = self.build()
        path = tmp_path / "c.bin"
        save_checkpoint(path, cfg, model.store, 7, rng)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 7
        model2 = ckpt.model
        for name, p in model.store.items():
            assert np.array_equal(p.data, model2.store[name].data)
            assert np.array_equal(model.store.m[name], model2.store.m[name])
        assert model.store.step == model2.store.step == 2

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(BadMagicError):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        cfg, model, rng = self.build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 1, rng)
        cut = tmp_path / "cut.bin"
        cut.write_bytes(p.read_bytes()[:200])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(cut)

    def test_mismatched_model_rejected(self, tmp_path):
        cfg, model, rng = self.build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 1, rng)

        def other_model(header: bytes) -> bytes:
            d = json.loads(header)
            d["config"]["model"].update(stage_multipliers=[1], fusion="add-all")
            return json.dumps(d).encode("utf-8")

        bad = rewrite_checkpoint_header(p, tmp_path / "other.bin", other_model)
        with pytest.raises(SampleFormatError, match=f"^{re.escape(str(bad))}: "):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit", list(MALFORMED_HEADERS.values()),
                             ids=list(MALFORMED_HEADERS))
    def test_malformed_header(self, tmp_path, edit):
        cfg, model, rng = self.build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 1, rng)
        bad = rewrite_checkpoint_header(p, tmp_path / "bad.bin", edit)
        with pytest.raises(SampleFormatError):
            load_checkpoint(bad)

    def test_trailing_bytes(self, tmp_path):
        cfg, model, rng = self.build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 1, rng)
        long = tmp_path / "long.bin"
        long.write_bytes(p.read_bytes() + b"\0" * 8)
        with pytest.raises(SampleFormatError, match="trailing"):
            load_checkpoint(long)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        cfg, model, rng = self.build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 1, rng)
        before = p.read_bytes()
        last = model.store.names()[-1]
        model.store.v[last] = "not a tensor"  # fails after the other tensors are written
        with pytest.raises(ValueError):
            save_checkpoint(p, cfg, model.store, 2, rng)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    sample = P.generate_phantom(5, size=16, oar_count=2, beam_count=5)
    P.write_sample(d / "s.spdp", sample)
    P.write_dose_map(d / "d.spdp", sample.dose, meta={"case": "x"})
    cfg = tiny_run_config()
    save_checkpoint(d / "c.bin", cfg, DoseModel(cfg.model, cfg.seed).store, 0,
                    np.random.default_rng(0))
    return d, {"sample": (d / "s.spdp", P.read_sample),
               "dose map": (d / "d.spdp", P.read_dose_map),
               "checkpoint": (d / "c.bin", load_checkpoint)}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_truncation_is_truncated_file_error(valid_files, data):
    d, kinds = valid_files
    path, reader = kinds[data.draw(st.sampled_from(sorted(kinds)))]
    blob = path.read_bytes()
    cut = d / "cut.bin"
    cut.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(TruncatedFileError):
        reader(cut)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_truncation_of_a_weights_only_load_is_truncated_file_error(valid_files, data):
    d, kinds = valid_files
    path, _ = kinds["checkpoint"]
    blob = path.read_bytes()
    cut = d / "cut_weights.bin"
    cut.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(cut, moments=False)


DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"

# values a hand-edited config field may hold: wrong types, null, out of
# range, integers too large for a float, NaN, infinities and nested objects
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.integers(-2 ** 70, 2 ** 70), st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-3, 300), st.floats()), max_size=5),
    st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.none()), max_size=2))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_desk_config_raises_nothing_but_config_error(data):
    """One or two fields (or whole sections) of ``configs/desk.json`` set
    to an odd value: the config is admitted or rejected as a ConfigError
    (exit 2), never another exception."""
    d = json.loads(DESK.read_text())
    fields = [(None, key) for key in d] + [
        (section, key) for section in sorted(d) if isinstance(d[section], dict)
        for key in d[section]]
    for section, key in data.draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2,
                                           unique=True)):
        owner = d if section is None else d[section]
        if isinstance(owner, dict):   # not a section the first pick replaced
            owner[key] = data.draw(ODD_VALUES)
    try:
        validate(config_from_dict(d))
    except ConfigError:
        pass


# A fresh checkpoint of this run, per fusion strategy (a "-no-projector"
# suffix turns the projector off), pins the values and the order of every
# initial draw: any change to either changes its bytes.
SMOKE_RUN = {
    "model": {"image_size": 16, "oar_count": 3, "base_channels": 4,
              "stage_multipliers": [1, 2, 4, 8], "window": 2, "heads": 2,
              "projector_ratio": 4, "use_projector": True, "fusion": "attn-last2",
              "t_steps": 50, "beta_end": 0.35},
    "train": {"steps": 5, "batch_size": 2, "lr": 0.001},
    "data": {"n_samples": 4, "seed": 1},
    "seed": 11, "out_dir": "runs/smoke",
}
FRESH_SMOKE_SHA256 = {
    "add-all": "2655cc90f01d83e6c95e49a7bc10ad57b0bde4a5c89806c713b5af409dae7167",
    "attn-all": "30fd32523801dbe25d05e2a8fdd69f4264520237293842045376f1203ef705cf",
    "attn-last2": "853fede9f32dad9e039b74d73937f25737f0b7055ee7d0e1c53e64d3273dec8f",
    "attn-last2-no-projector":
        "997ee163edaeb1e7c2c8e5b64ff68f8130964e76adeeabc56743348395c93760",
    "concatenate": "1bd327c2423cc5bf12b1f5ac41b0f56122de93532032bc897d1707d82cac7e23",
}


@pytest.mark.parametrize("fusion", sorted(FRESH_SMOKE_SHA256))
def test_fresh_checkpoint_bytes_are_pinned(tmp_path, fusion):
    d = json.loads(json.dumps(SMOKE_RUN))
    d["model"]["fusion"] = fusion.removesuffix("-no-projector")
    d["model"]["use_projector"] = not fusion.endswith("-no-projector")
    cfg = config_from_dict(d)
    p = tmp_path / "fresh.bin"
    save_checkpoint(p, cfg, DoseModel(cfg.model, cfg.seed).store, 0,
                    np.random.default_rng(np.random.PCG64(cfg.seed)))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == FRESH_SMOKE_SHA256[fusion]


def traced_peak(fn):
    """(fn's result or the SampleFormatError it raised, the peak bytes
    tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except SampleFormatError as e:
            result = e
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWeightsOnlyLoad:
    def test_arrays_equal_a_full_load(self, tmp_path):
        cfg, model, rng = TestCheckpoint().build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 2, rng)
        full, light = load_checkpoint(p), load_checkpoint(p, moments=False)
        fs, ls = full.model.store, light.model.store
        assert ls.m == {} and ls.v == {}
        assert list(fs.m) == list(fs.v) == fs.names()
        assert ls.names() == fs.names()
        for name, t in fs.items():
            assert ls[name].data.dtype == t.data.dtype
            assert ls[name].shape == t.shape
            assert ls[name].data.tobytes() == t.data.tobytes()
        assert (light.step, ls.step, light.rng_state) == \
            (full.step, fs.step, full.rng_state)
        assert config_to_dict(light.config) == config_to_dict(full.config)

    def test_peak_memory_of_a_load(self, tmp_path):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk.json")
        model = DoseModel(cfg.model, cfg.seed)
        p = tmp_path / "desk.bin"
        save_checkpoint(p, cfg, model.store, 0, np.random.default_rng(0))
        weights = sum(t.data.nbytes for _, t in model.store.items())
        _, light = traced_peak(lambda: load_checkpoint(p, moments=False))
        _, full = traced_peak(lambda: load_checkpoint(p))
        assert light <= 1.2 * weights
        assert full <= 3.2 * weights

    def test_shape_past_the_end_of_the_file_allocates_nothing(self, tmp_path):
        cfg, model, rng = TestCheckpoint().build()
        p = tmp_path / "c.bin"
        save_checkpoint(p, cfg, model.store, 1, rng)

        def huge(header: bytes) -> bytes:
            d = json.loads(header)
            d["params"][0]["shape"] = [1_000_000, 1_000_000]   # 8 TB of float64
            return json.dumps(d).encode("utf-8")

        bad = rewrite_checkpoint_header(p, tmp_path / "huge.bin", huge)
        for moments in (True, False):
            err, peak = traced_peak(lambda: load_checkpoint(bad, moments=moments))
            assert isinstance(err, TruncatedFileError) and peak < 8 << 20
        # sample reads the checkpoint before any case, so no dataset is needed
        rc, peak = traced_peak(lambda: main([
            "sample", "--checkpoint", str(bad), "--data", str(tmp_path), "--cases", "x",
            "--out", str(tmp_path / "s")]))
        assert rc == 3 and peak < 8 << 20
