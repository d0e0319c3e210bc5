import hashlib
import json

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


def reference_beam_dose(body, center, angle, sigma, mu):
    """The per-pixel depth march that ``beam_dose`` replaced, kept verbatim
    as the reference its separable march must equal bitwise."""
    h, w = body.shape
    cy, cx = center
    uy, ux = np.cos(angle), np.sin(angle)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    d_perp = np.abs(-(ys - cy) * ux + (xs - cx) * uy)
    lateral = np.exp(-0.5 * (d_perp / sigma) ** 2)

    depth = np.zeros((h, w))
    if mu > 0.0:
        body_f = body.astype(np.float64)
        max_k = int(np.ceil(np.hypot(h, w)))
        for k in range(1, max_k + 1):
            py, px = ys - k * uy, xs - k * ux
            iy = np.rint(py).astype(np.int64)
            ix = np.rint(px).astype(np.int64)
            inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
            iy, ix = np.clip(iy, 0, h - 1), np.clip(ix, 0, w - 1)
            depth += np.where(inside, body_f[iy, ix], 0.0)

    return lateral * np.exp(-mu * depth) * body


def random_body(rng, h, w):
    """A non-convex body: a union of random ellipses with holes cut out."""
    ys, xs = np.mgrid[0:h, 0:w]
    body = np.zeros((h, w), dtype=bool)
    for keep in [True] * int(rng.integers(1, 5)) + [False] * int(rng.integers(0, 3)):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        ry, rx = rng.uniform(2, h / 2), rng.uniform(2, w / 2)
        blob = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        body = body | blob if keep else body & ~blob
    return body


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestBeamDoseMatchesPerPixelMarch:
    @given(seed=st.integers(0, 2**32 - 1),
           h=st.integers(16, 96), w=st.integers(16, 96),
           angle=st.one_of(st.integers(-8, 8).map(lambda k: k * np.pi / 4),
                           st.floats(-2 * np.pi, 4 * np.pi)),
           mu=st.sampled_from([0.0, 0.02, 0.3]))
    @settings(max_examples=300, deadline=None)
    def test_random_cases_bitwise(self, seed, h, w, angle, mu):
        rng = np.random.default_rng(seed)
        body = random_body(rng, h, w)
        # centres range well outside the frame on every side
        center = (rng.uniform(-h, 2 * h), rng.uniform(-w, 2 * w))
        sigma = rng.uniform(0.5, 0.3 * max(h, w))
        assert_bitwise(P.beam_dose(body, center, angle, sigma, mu),
                       reference_beam_dose(body, center, angle, sigma, mu))

    @pytest.mark.parametrize("k", range(-8, 9))
    @pytest.mark.parametrize("shape", [(16, 16), (23, 61), (64, 17)])
    def test_multiples_of_quarter_pi_bitwise(self, k, shape):
        h, w = shape
        body = random_body(np.random.default_rng(h * w + k), h, w)
        args = (body, (h / 2 - 0.5, w / 3), k * np.pi / 4, 0.1 * h, 0.3)
        assert_bitwise(P.beam_dose(*args), reference_beam_dose(*args))

    @pytest.mark.parametrize("kind", ["empty", "full", "pixel", "row", "column", "corners"])
    @pytest.mark.parametrize("angle", [0.0, 0.7, np.pi / 2, 2.5, np.pi, 4.4])
    def test_edge_bodies_bitwise(self, kind, angle):
        h, w = 20, 27
        body = np.zeros((h, w), dtype=bool)
        if kind == "full":
            body[:] = True
        elif kind == "pixel":
            body[7, 11] = True
        elif kind == "row":
            body[0, 3:20] = True
        elif kind == "column":
            body[2:, w - 1] = True
        elif kind == "corners":
            body[0, 0] = body[h - 1, w - 1] = body[0, w - 1] = True
        args = (body, (9.5, 13.0), angle, 3.0, 0.3)
        assert_bitwise(P.beam_dose(*args), reference_beam_dose(*args))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phantom_body_bitwise(self, seed):
        """The generator's own bodies, centroids and beams at 64 px."""
        s = P.generate_phantom(seed, size=64)
        pys, pxs = np.nonzero(s.ptv)
        centroid = (float(pys.mean()), float(pxs.mean()))
        for a in s.meta["beam_angles"].split(","):
            args = (s.body, centroid, float(a), P.SIGMA_FRACTION * 64, P.MU_PER_PIXEL)
            assert_bitwise(P.beam_dose(*args), reference_beam_dose(*args))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Digests of generate_phantom(seed, size) with the default 3 OARs and 5 beams,
# recorded with the per-pixel march (numpy 2.4, scipy 1.17, x86-64). A change
# to any generator output byte, or to a float routine it calls, shows here.
GOLDEN = {
    (0, 16): {
        "ct": "81aa7d2cd4f0aaaf553713fcf684217daf552d0abed2082026141e9d4aed67a1",
        "ptv": "9dedb184bf52a221d4ad90559772bc959c924164f33c4ead9408ebb297400aaf",
        "oars": "5c72a562ce77a267c2a42a33354b2835d2d3f26736b77a28663aa39c1e5930fd",
        "dose": "5ff95b9c9b29223b3386839047be2454aabfbd4cb8b932328ed2fdf6b5df53f6",
        "meta": "f6db590cd17229155ef81613debaa78fd4d18a0948ca77468de832a28e8049a6",
    },
    (7, 64): {
        "ct": "7cd6c5993c4142f3cf869d33c78f62f94b0019beb2ccd7202ac383bf305f4119",
        "ptv": "3ac978d392d80eebec42f54d0d56a0f7a6a71982341648335033c07e1f3f0ae1",
        "oars": "991f480f0a54f30a6a6b80c06549c22b8c68ed62585f954ba5210b4baca2e01e",
        "dose": "4970a96cd75d6cc3f80cfa906f8d685f37cef93a923f769f802ab30fa7c1202e",
        "meta": "456e0ccc5d6d2cbdaf01c60f905c2712a205a6adefb012f457b9c78abe7d060e",
    },
    (0, 256): {
        "ct": "a5f8a0cc0b3c3c9bcbe0d53ed79a80a9a36db5667d54b03554610e3c5a43c537",
        "ptv": "3337cdf1902dcb44700061c4093e0a733545d5832ef305a13ded7b14744a7492",
        "oars": "69ecff9d6fcf6cd2994d90f3b7a9434f1d88bd536fc711d9fcf3af965d8496da",
        "dose": "711b4e0d1c6fe2f1f7111dc51ce4cfa5a45ccf95668b32f1313c4d19b121af86",
        "meta": "81d41d44ff2834af525588c16bb5a9603674f062976c629be9b6283b4d6d8cd4",
    },
}


@pytest.mark.parametrize("seed,size", sorted(GOLDEN))
def test_generator_golden_digests(seed, size):
    s = P.generate_phantom(seed, size)
    got = {"ct": sha256(s.ct.tobytes()), "ptv": sha256(s.ptv.tobytes()),
           "oars": sha256(s.oars.tobytes()), "dose": sha256(s.dose.tobytes()),
           "meta": sha256(json.dumps(s.meta, sort_keys=True).encode())}
    assert got == GOLDEN[(seed, size)]


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
