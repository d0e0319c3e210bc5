import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from dosediff import metrics as M
from dosediff.phantom import generate_phantom

# ---------------------------------------------------------------------------
# independent brute-force oracles (plain python loops, no shared code paths)


def oracle_dose_score_relative(pred, truth, mask, floor=M.RELATIVE_TRUTH_FLOOR):
    total, count = 0.0, 0
    for p, t, m in zip(pred.ravel(), truth.ravel(), mask.ravel()):
        if m and t > floor:
            total += (p - t) / t
            count += 1
    return total / count


def oracle_dose_score_mae(pred, truth, mask):
    total, count = 0.0, 0
    for p, t, m in zip(pred.ravel(), truth.ravel(), mask.ravel()):
        if m:
            total += abs(p - t)
            count += 1
    return total / count


def oracle_d_stat(dose, mask, q):
    vals = sorted((d for d, m in zip(dose.ravel(), mask.ravel()) if m), reverse=True)
    return vals[math.ceil(q / 100.0 * len(vals)) - 1]


def oracle_dvh_curve(dose, mask, bins, d_max):
    vals = [d for d, m in zip(dose.ravel(), mask.ravel()) if m]
    out = []
    for i in range(bins):
        thr = d_max * i / (bins - 1)
        out.append(100.0 * sum(1 for v in vals if v >= thr) / len(vals))
    return np.array(out)


def oracle_hi(dose, mask):
    vals = [d for d, m in zip(dose.ravel(), mask.ravel()) if m]
    mu = sum(vals) / len(vals)
    var = sum((v - mu) ** 2 for v in vals) / len(vals)
    return math.sqrt(var) / mu


def random_case(seed, n=1000):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 1.3, n)
    truth = rng.uniform(0.01, 1.25, n)
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[0] = True
    return pred, truth, mask


REL_TOL = 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_dose_score_matches_bruteforce(seed):
    pred, truth, mask = random_case(seed)
    got = M.dose_score(pred, truth, mask, "relative")
    want = oracle_dose_score_relative(pred, truth, mask)
    assert abs(got - want) <= REL_TOL * max(abs(want), 1.0)
    got = M.dose_score(pred, truth, mask, "mae")
    want = oracle_dose_score_mae(pred, truth, mask)
    assert abs(got - want) <= REL_TOL * max(abs(want), 1.0)


@pytest.mark.parametrize("seed", range(20))
def test_d_stat_matches_bruteforce(seed):
    pred, _, mask = random_case(seed)
    for q in (1.0, 37.5, 95.0, 99.0, 100.0):
        assert M.d_stat(pred, mask, q) == oracle_d_stat(pred, mask, q)


@pytest.mark.parametrize("seed", range(20))
def test_dvh_curve_matches_bruteforce(seed):
    pred, _, mask = random_case(seed)
    curve = M.dvh_curve(pred, mask, "", bin_count=64, d_max=1.3)
    want = oracle_dvh_curve(pred, mask, 64, 1.3)
    assert np.abs(curve.volume_pct - want).max() <= REL_TOL * 100


@pytest.mark.parametrize("seed", range(20))
def test_dvh_score_matches_bruteforce(seed):
    pred, truth, mask = random_case(seed)
    mask2 = ~mask
    if not mask2.any():
        mask2[0] = True
    got = M.dvh_score(pred, truth, [mask, mask2])
    diffs = [abs(oracle_d_stat(pred, m, q) - oracle_d_stat(truth, m, q))
             for m in (mask, mask2) for q in (1.0, 95.0, 99.0)]
    want = sum(diffs) / len(diffs)
    assert abs(got - want) <= REL_TOL * max(abs(want), 1.0)


@pytest.mark.parametrize("seed", range(20))
def test_hi_matches_bruteforce(seed):
    pred, _, mask = random_case(seed)
    got = M.homogeneity_index(pred, mask)
    want = oracle_hi(pred, mask)
    assert abs(got - want) <= REL_TOL * max(abs(want), 1.0)


# ---------------------------------------------------------------------------
# stated examples


class TestExamples:
    def test_identical_inputs_score_zero(self):
        x = np.linspace(0.1, 1.0, 50)
        mask = np.ones(50, bool)
        assert M.dose_score(x, x, mask, "relative") == 0.0
        assert M.dose_score(x, x, mask, "mae") == 0.0
        assert M.dvh_score(x, x, [mask]) == 0.0

    def test_single_voxel_relative(self):
        assert M.dose_score(np.array([3.0]), np.array([2.0]),
                            np.array([True]), "relative") == 0.5

    def test_constant_dose_dvh_is_step(self):
        dose = np.full(30, 0.6)
        mask = np.ones(30, bool)
        c = M.dvh_curve(dose, mask, "", bin_count=126, d_max=1.25)
        assert np.all(c.volume_pct[c.dose <= 0.6] == 100.0)
        assert np.all(c.volume_pct[c.dose > 0.6] == 0.0)

    def test_uniform_ramp_half_volume(self):
        dose = np.arange(1.0, 101.0)
        mask = np.ones(100, bool)
        c = M.dvh_curve(dose, mask, "", bin_count=3, d_max=101.0)
        # middle threshold 50.5: doses 51..100 remain, i.e. 50%
        assert c.dose[1] == 50.5
        assert c.volume_pct[1] == 50.0

    def test_d_stat_conventions(self):
        dose = np.arange(1.0, 101.0)
        mask = np.ones(100, bool)
        assert M.d_stat(dose, mask, 95.0) == 6.0   # 95th-from-top element
        assert M.d_stat(dose, mask, 100.0) == 1.0  # minimum masked dose
        assert M.d_stat(np.full(9, 0.7), np.ones(9, bool), 42.0) == 0.7

    def test_dvh_score_shift(self):
        truth = np.linspace(0.2, 1.0, 64)
        mask = np.ones(64, bool)
        assert abs(M.dvh_score(truth + 0.5, truth, [mask]) - 0.5) < 1e-12

    def test_hi_two_point(self):
        assert M.homogeneity_index(np.array([1.0, 3.0]), np.ones(2, bool)) == 0.5

    def test_hi_constant_region_zero(self):
        assert M.homogeneity_index(np.full(5, 0.8), np.ones(5, bool)) == 0.0

    def test_difference_map(self):
        a, b = np.array([[1.0, 2.0]]), np.array([[0.5, 3.0]])
        assert np.array_equal(M.dose_difference_map(a, b), [[0.5, -1.0]])
        assert np.array_equal(M.dose_difference_map(a, b),
                              -M.dose_difference_map(b, a))

    def test_errors(self):
        empty = np.zeros(4, bool)
        with pytest.raises(M.EmptyMaskError):
            M.dose_score(np.ones(4), np.ones(4), empty, "mae")
        with pytest.raises(M.EmptyMaskError):
            M.dvh_curve(np.ones(4), empty, "")
        with pytest.raises(M.EmptyMaskError):
            M.d_stat(np.ones(4), empty, 95)
        with pytest.raises(ValueError):
            M.dvh_score(np.ones(4), np.ones(4), [])
        with pytest.raises(ValueError):
            M.homogeneity_index(np.zeros(4), np.ones(4, bool))
        with pytest.raises(ValueError):
            M.d_stat(np.ones(4), np.ones(4, bool), 0.0)
        with pytest.raises(ValueError):
            M.dose_score(np.ones(3), np.ones(4), np.ones(4, bool), "mae")


# ---------------------------------------------------------------------------
# properties


@given(st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_dvh_monotone_and_bounded(seed):
    pred, _, mask = random_case(seed, n=200)
    c = M.dvh_curve(pred, mask, "", bin_count=40)
    assert np.all(np.diff(c.volume_pct) <= 0)
    assert c.volume_pct[0] == 100.0  # nonnegative dose: everything >= 0
    assert np.all((0 <= c.volume_pct) & (c.volume_pct <= 100))


@given(st.integers(0, 2 ** 31))
@settings(max_examples=100, deadline=None)
def test_d_stat_monotone_in_q(seed):
    pred, _, mask = random_case(seed, n=150)
    qs = [1, 20, 50, 95, 99, 100]
    vals = [M.d_stat(pred, mask, q) for q in qs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@given(st.integers(0, 2 ** 31), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_hi_scale_invariance(seed, k):
    pred, _, mask = random_case(seed, n=150)
    a = M.homogeneity_index(pred, mask)
    b = M.homogeneity_index(k * pred, mask)
    assert abs(a - b) < 1e-9


@given(st.integers(0, 2 ** 31), st.floats(-0.5, 0.5))
@settings(max_examples=100, deadline=None)
def test_translation_property(seed, c):
    pred, truth, mask = random_case(seed, n=150)
    base_mae = M.dose_score(pred, truth, mask, "mae")
    shifted_mae = M.dose_score(pred + c, truth + c, mask, "mae")
    assert abs(base_mae - shifted_mae) < 1e-12
    for q in (1.0, 95.0):
        assert abs(M.d_stat(pred + c, mask, q) - (M.d_stat(pred, mask, q) + c)) < 1e-12


def test_zero_score_iff_equal_on_mask():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.1, 1.0, 100)
    truth = pred.copy()
    mask = np.zeros(100, bool)
    mask[:50] = True
    truth[60] = 0.9  # differs only off-mask
    assert M.dose_score(pred, truth, mask, "mae") == 0.0
    truth2 = pred.copy()
    truth2[10] += 0.05  # differs on-mask
    assert M.dose_score(pred, truth2, mask, "mae") > 0.0


def test_dvh_score_zero_for_agreeing_statistics():
    # permuting masked values preserves every Dq, so the score is zero
    # even though the maps differ voxelwise
    rng = np.random.default_rng(4)
    truth = rng.uniform(0.1, 1.2, 64)
    mask = np.ones(64, bool)
    pred = truth.copy()
    pred[mask] = rng.permutation(truth[mask])
    assert M.dvh_score(pred, truth, [mask]) == 0.0
    assert not np.array_equal(pred, truth)


# ---------------------------------------------------------------------------
# paired t-test


class TestPairedT:
    def test_equal_vectors_degenerate(self):
        with pytest.raises(M.DegenerateVarianceError):
            M.paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_consistent_shift_gives_tiny_p(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(0, 1, 12)
        a = b + 1.0 + 1e-3 * rng.standard_normal(12)
        t, df, p = M.paired_t_test(a, b)
        assert df == 11
        assert abs(t) > 100
        assert p < 1e-10

    def test_reference_value_from_integration_oracle(self):
        # frozen from numerical integration of the t density (df = 7):
        # quad of the two-sided tail beyond |t| = 2.904320871847925
        a = [2.1, 2.9, 3.3, 2.4, 3.8, 2.2, 3.1, 2.7]
        b = [1.9, 2.5, 3.4, 2.0, 3.1, 2.3, 2.8, 2.2]
        t, df, p = M.paired_t_test(a, b)
        assert df == 7
        assert abs(t - 2.904320871847925) < 1e-12
        assert abs(p - 0.022844734173423083) < 1e-6

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            M.paired_t_test([1.0], [2.0])


def test_report_csv_and_kv_text():
    rng = np.random.default_rng(3)
    pred = rng.uniform(0.1, 1.2, (16, 16))
    truth = rng.uniform(0.1, 1.2, (16, 16))
    body = np.ones((16, 16), bool)
    ptv = np.zeros((16, 16), bool)
    ptv[4:8, 4:8] = True
    rep = M.compute_metrics(pred, truth, body, {"ptv": ptv})
    row = rep.csv_row("case1")
    assert row.startswith("case1,")
    assert len(row.split(",")) == len(M.MetricsReport.CSV_COLUMNS)
    text = rep.kv_text()
    assert "dose_score_mae=" in text and "d95_pred[ptv]=" in text
    assert np.isfinite(rep.max_abs_diff)


class TestCheckTruth:
    @pytest.fixture()
    def case(self):
        s = generate_phantom(3, size=16, oar_count=2, beam_count=5)
        return s.dose.astype(np.float64), s.body, s.structures()

    def test_generated_phantom_passes(self, case):
        assert M.check_truth(*case) is None

    @pytest.mark.parametrize("fault,message", [
        ("ptv-dose", "truth has no positive mean dose in the PTV"),
        ("oar-mask", "mask selects no voxels"),
        ("ptv-mask", "mask selects no voxels"),
        ("body", "mask selects no voxels"),
        ("floor", "no masked truth voxels above the relative-score floor"),
    ], ids=["ptv-dose", "oar-mask", "ptv-mask", "body", "floor"])
    def test_each_rule_raises(self, case, fault, message):
        dose, body, structures = case
        if fault == "ptv-dose":
            dose[structures["ptv"]] = 0.0
        elif fault == "oar-mask":
            structures["oar2"] = np.zeros_like(body)
        elif fault == "ptv-mask":
            structures["ptv"] = np.zeros_like(body)
        elif fault == "body":
            body = np.zeros_like(body)
        else:   # every voxel positive, none above the floor
            dose = np.where(dose > 0, M.RELATIVE_TRUTH_FLOOR, 0.0)
        with pytest.raises(M.EmptyMaskError) as e:
            M.check_truth(dose, body, structures)
        assert str(e.value) == message

    def test_ptv_dose_rule_comes_first(self, case):
        dose, body, structures = case
        dose[structures["ptv"]] = 0.0
        structures["oar1"] = np.zeros_like(body)
        with pytest.raises(M.EmptyMaskError, match="positive mean dose"):
            M.check_truth(dose, np.zeros_like(body), structures)


def test_summarize_formatting():
    mean, std, text = M.summarize([1.0, 2.0, 3.0])
    assert mean == 2.0 and abs(std - 1.0) < 1e-12
    assert text == "2.000±1.000"


@pytest.mark.parametrize("df", range(1, 61))
def test_p_value_matches_scipy_betainc(df):
    # the two-sided p of paired_t_test is I_x(df / 2, 1 / 2), x = df / (df + t^2)
    for t in [0.0] + [10.0 ** k for k in range(-8, 4)]:
        x = df / (df + t * t)
        want = float(sp_special.betainc(df / 2.0, 0.5, x))
        assert abs(M._betainc(df / 2.0, 0.5, x) - want) <= 1e-12 * want
    d = np.random.default_rng(df).standard_normal(df + 1)
    t, got_df, p = M.paired_t_test(d + 0.3, np.zeros_like(d))
    assert got_df == df and type(p) is float   # ttest.csv writes repr(p)
    assert abs(p - sp_special.betainc(df / 2.0, 0.5, df / (df + t * t))) <= 1e-12 * p
