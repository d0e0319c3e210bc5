import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosediff import phantom as P


@pytest.fixture(scope="module")
def sample():
    return P.generate_phantom(11, size=32, oar_count=3, beam_count=5)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = P.generate_phantom(7, 16, 3, 5)
        b = P.generate_phantom(7, 16, 3, 5)
        assert np.array_equal(a.ct, b.ct)
        assert np.array_equal(a.ptv, b.ptv)
        assert np.array_equal(a.oars, b.oars)
        assert np.array_equal(a.dose, b.dose)
        assert a.meta == b.meta

    @given(st.integers(0, 500), st.sampled_from([16, 32]))
    @settings(max_examples=25, deadline=None)
    def test_geometry_invariants(self, seed, size):
        s = P.generate_phantom(seed, size, oar_count=2, beam_count=3)
        body = s.body
        assert not (s.ptv & ~body).any()          # PTV inside body support
        assert (s.dose[~body] == 0).all()          # dose support inside body
        assert abs(float(s.dose[s.ptv].mean()) - 1.0) < 1e-6
        assert set(np.unique(s.ptv)) <= {False, True}
        for i in range(s.oar_count):
            assert s.oars[i].any()

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_ptv_mean_dose_exceeds_every_oar_mean(self, seed):
        s = P.generate_phantom(seed, 32, oar_count=3, beam_count=5)
        ptv_mean = s.dose[s.ptv].mean()
        for i in range(s.oar_count):
            assert s.dose[s.oars[i]].mean() < ptv_mean

    def test_meta_records_geometry(self, sample):
        assert sample.meta["seed"] == "11"
        assert sample.meta["generator_version"] == str(P.GENERATOR_VERSION)
        angles = [float(a) for a in sample.meta["beam_angles"].split(",")]
        assert len(angles) == 5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            P.generate_phantom(0, size=8)
        with pytest.raises(ValueError):
            P.generate_phantom(0, size=16, oar_count=0)


def test_beam_dose_mu_zero_constant_along_depth():
    """With mu=0 a beam is its lateral profile only: no depth dependence."""
    body = np.ones((32, 32), dtype=bool)
    center = (16.0, 16.0)
    angle = 0.0  # beam along +y
    d = P.beam_dose(body, center, angle, sigma=2.0, mu=0.0)
    # along the axis column the dose is constant in depth
    axis = d[:, 16]
    assert np.allclose(axis, axis[0], atol=1e-12)
    # and equals the analytic lateral profile across the beam
    xs = np.arange(32, dtype=np.float64)
    lateral = np.exp(-0.5 * ((xs - 16.0) / 2.0) ** 2)
    assert np.allclose(d[5, :], lateral, atol=1e-12)


def test_beam_dose_attenuates_with_depth():
    body = np.ones((32, 32), dtype=bool)
    d = P.beam_dose(body, (16.0, 16.0), 0.0, sigma=4.0, mu=0.05)
    axis = d[:, 16]
    assert np.all(np.diff(axis[2:-2]) < 0)  # monotone decay along the ray


class TestSampleIO:
    def test_roundtrip_bitwise(self, sample, tmp_path):
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        r = P.read_sample(path)
        assert np.array_equal(r.ct, sample.ct)
        assert np.array_equal(r.ptv, sample.ptv)
        assert np.array_equal(r.oars, sample.oars)
        assert np.array_equal(r.dose, sample.dose)
        assert r.meta == sample.meta

    def test_write_is_deterministic(self, sample, tmp_path):
        a, b = tmp_path / "a.spdp", tmp_path / "b.spdp"
        P.write_sample(a, sample)
        P.write_sample(b, sample)
        assert a.read_bytes() == b.read_bytes()

    def test_header_channel_count(self, sample, tmp_path):
        import struct
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        buf = path.read_bytes()
        version, h, w, o = struct.unpack("<HHHH", buf[4:12])
        assert o == 3
        n_channels = 2 + o + 1  # CT, PTV, OARs, dose
        assert n_channels == 6
        assert len(buf) > 12 + n_channels * h * w * 4

    def test_bad_magic(self, sample, tmp_path):
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        bad = tmp_path / "bad.spdp"
        bad.write_bytes(bytes(blob))
        with pytest.raises(P.BadMagicError):
            P.read_sample(bad)

    def test_version_mismatch(self, sample, tmp_path):
        import struct
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        bad = tmp_path / "bad.spdp"
        bad.write_bytes(bytes(blob))
        with pytest.raises(P.VersionError):
            P.read_sample(bad)

    def test_truncated(self, sample, tmp_path):
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        for cut in (2, 8, 40):
            bad = tmp_path / f"cut{cut}.spdp"
            bad.write_bytes(path.read_bytes()[:cut])
            with pytest.raises(P.TruncatedFileError):
                P.read_sample(bad)

    def test_dose_only_variant(self, sample, tmp_path):
        path = tmp_path / "d.spdp"
        P.write_dose_map(path, sample.dose, meta={"case": "x"})
        assert np.array_equal(P.read_dose_map(path), sample.dose)
        # a full sample is not a dose map and vice versa
        full = tmp_path / "s.spdp"
        P.write_sample(full, sample)
        with pytest.raises(P.VersionError):
            P.read_dose_map(full)
        with pytest.raises(P.VersionError):
            P.read_sample(path)

    def test_trailing_bytes(self, sample, tmp_path):
        P.write_sample(tmp_path / "s.spdp", sample)
        P.write_dose_map(tmp_path / "d.spdp", sample.dose)
        for name, reader in (("s.spdp", P.read_sample), ("d.spdp", P.read_dose_map)):
            bad = tmp_path / f"long_{name}"
            bad.write_bytes((tmp_path / name).read_bytes() + b"\0")
            with pytest.raises(P.SampleFormatError, match="trailing"):
                reader(bad)

    def test_non_utf8_metadata(self, sample, tmp_path):
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        blob = bytearray(path.read_bytes())
        blob[-1] = 0xFF  # last byte of the metadata text
        bad = tmp_path / "bad.spdp"
        bad.write_bytes(bytes(blob))
        with pytest.raises(P.SampleFormatError):
            P.read_sample(bad)

    def test_failed_write_keeps_previous_file(self, sample, tmp_path):
        path = tmp_path / "s.spdp"
        P.write_sample(path, sample)
        before = path.read_bytes()

        def parts():
            yield b"\0" * 64
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            P.SAMPLE_FILE.write(path, parts())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestNormalize:
    def test_affine_endpoints(self):
        assert P.normalize_dose(np.array(0.0)) == -1.0
        assert P.normalize_dose(np.array(1.25)) == 1.0
        assert P.denormalize_dose(np.array(-1.0)) == 0.0
        assert P.denormalize_dose(np.array(1.0)) == 1.25

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_exact_on_float32_doses(self, seed):
        d = np.random.default_rng(seed).uniform(0, 1.25, 100).astype(np.float32)
        back = P.denormalize_dose(P.normalize_dose(d.astype(np.float64)))
        assert np.array_equal(back.astype(np.float32), d)

    def test_batch_layout_and_channel_order(self, sample):
        cond, dose = P.normalize_batch([sample, sample])
        assert cond.shape == (2, 5, 32, 32)
        assert dose.shape == (2, 1, 32, 32)
        # channel order: CT, PTV, OAR1..O
        assert np.array_equal(cond[0, 0], sample.ct.astype(np.float64))
        assert np.array_equal(cond[0, 1], sample.ptv.astype(np.float64))
        assert np.array_equal(cond[0, 2], sample.oars[0].astype(np.float64))
        assert dose.min() >= -1.0 and dose.max() <= 1.0

    def test_clamp_warns(self, sample):
        hot = P.PhantomSample(ct=sample.ct, ptv=sample.ptv, oars=sample.oars,
                              dose=(sample.dose * 2.0).astype(np.float32),
                              meta=dict(sample.meta))
        with pytest.warns(P.DoseClampWarning):
            _, dose = P.normalize_batch([hot])
        assert dose.max() <= 1.0

    def test_heterogeneous_batch_rejected(self, sample):
        other = P.generate_phantom(1, 16, 3, 5)
        with pytest.raises(ValueError):
            P.normalize_batch([sample, other])


class TestSplit:
    def test_disjoint_exhaustive(self):
        ids = [f"s{i:03d}" for i in range(37)]
        split = P.make_split(ids, seed=5)
        combined = split.train + split.val + split.test
        assert sorted(combined) == sorted(ids)
        assert len(set(combined)) == len(ids)

    def test_default_ratios_mirror_220_20_80(self):
        split = P.make_split([f"s{i}" for i in range(320)], seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (220, 20, 80)

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(20)]
        a = P.make_split(ids, seed=9)
        b = P.make_split(ids, seed=9)
        assert a == b
