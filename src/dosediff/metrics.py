"""Clinical evaluation of predicted dose maps.

Dose Score (signed relative deviation, plus a masked MAE variant in
dose units), DVH curves and score over D1/D95/D99, homogeneity index,
difference maps, and paired t-tests. ``check_truth`` holds every rule a
truth dose must meet to be scored; ``SCORES`` names the score columns.

Conventions, fixed and oracle-tested:
  * Dq = dose received by at least q% of the structure volume; computed
    by sorting masked doses descending and taking the element at index
    ceil(q/100 * N) - 1.
  * DVH curves use 256 uniform bins from 0 to 1.25 prescription units
    by default; volume(d) is the percent of masked voxels with dose >= d.
  * HI is the population standard deviation over the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .phantom import DOSE_MAX_SCALE

DVH_BINS = 256
DVH_QS = (1.0, 95.0, 99.0)
RELATIVE_TRUTH_FLOOR = 1e-3
# (CSV column, MetricsReport attribute) per headline score; ttest.csv skips the first
SCORES = (("dose_score_rel", "dose_score_relative"), ("dose_score_mae", "dose_score_mae"),
          ("dvh_score", "dvh_score"), ("hi", "hi"))


class EmptyMaskError(ValueError):
    pass


class DegenerateVarianceError(ValueError):
    pass


@dataclass
class DvhCurve:
    """Cumulative dose-volume curve for one structure."""

    structure: str
    dose: np.ndarray         # thresholds, prescription units
    volume_pct: np.ndarray   # percent of volume receiving >= dose


@dataclass
class MetricsReport:
    """Scored evaluation of one predicted dose map against ground truth."""

    dose_score_relative: float
    dose_score_mae: float
    dvh_score: float
    hi: float                       # homogeneity index of the prediction
    hi_truth: float
    d_stats_pred: Dict[str, Dict[float, float]]
    d_stats_truth: Dict[str, Dict[float, float]]
    max_abs_diff: float
    rel_excluded_voxels: int        # sub-floor truth voxels dropped from Eq-style score

    CSV_COLUMNS = ("case",) + tuple(col for col, _ in SCORES)

    def csv_row(self, case: str) -> str:
        return ",".join([case] + [repr(getattr(self, attr)) for _, attr in SCORES])

    def kv_text(self) -> str:
        lines = [
            f"dose_score_relative={self.dose_score_relative!r}",
            f"dose_score_mae={self.dose_score_mae!r}",
            f"dvh_score={self.dvh_score!r}",
            f"hi={self.hi!r}",
            f"hi_truth={self.hi_truth!r}",
            f"max_abs_diff={self.max_abs_diff!r}",
            f"rel_excluded_voxels={self.rel_excluded_voxels}",
        ]
        for name in sorted(self.d_stats_pred):
            for q in DVH_QS:
                lines.append(f"d{q:g}_pred[{name}]={self.d_stats_pred[name][q]!r}")
                lines.append(f"d{q:g}_truth[{name}]={self.d_stats_truth[name][q]!r}")
        return "\n".join(lines) + "\n"


def _masked(dose: np.ndarray, mask: np.ndarray) -> np.ndarray:
    vals = np.asarray(dose, dtype=np.float64)[np.asarray(mask, dtype=bool)]
    if vals.size == 0:
        raise EmptyMaskError("mask selects no voxels")
    return vals


def dose_score(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray, variant: str) -> float:
    """Average deviation of prediction from truth over the mask.

    variant="relative": mean of (pred - truth) / truth, signed; truth
    voxels at or below RELATIVE_TRUTH_FLOOR are excluded (compute_metrics
    counts them). variant="mae": mean absolute difference in dose units.
    """
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    p = _masked(pred, mask)
    t = _masked(truth, mask)
    if variant == "mae":
        return float(np.abs(p - t).mean())
    if variant == "relative":
        keep = t > RELATIVE_TRUTH_FLOOR
        if not keep.any():
            raise EmptyMaskError("no masked truth voxels above the relative-score floor")
        return float(((p[keep] - t[keep]) / t[keep]).mean())
    raise ValueError(f"unknown dose_score variant {variant!r}")


def dvh_curve(dose: np.ndarray, mask: np.ndarray, structure: str,
              bin_count: int = DVH_BINS, d_max: float = DOSE_MAX_SCALE) -> DvhCurve:
    """Cumulative DVH on a uniform threshold grid from 0 to d_max."""
    vals = _masked(dose, mask)
    thresholds = np.linspace(0.0, d_max, bin_count)
    volume = np.array([(vals >= d).sum() for d in thresholds], dtype=np.float64)
    return DvhCurve(structure=structure, dose=thresholds,
                    volume_pct=100.0 * volume / vals.size)


def d_stat(dose: np.ndarray, mask: np.ndarray, q_percent: float) -> float:
    """Dq: the dose received by at least q% of the structure volume."""
    if not (0.0 < q_percent <= 100.0):
        raise ValueError(f"q must be in (0, 100], got {q_percent}")
    vals = np.sort(_masked(dose, mask))[::-1]
    idx = math.ceil(q_percent / 100.0 * vals.size) - 1
    return float(vals[idx])


def _dq_table(dose: np.ndarray, structures: Dict) -> Dict:
    """{structure: {q: Dq}} for every structure and q in DVH_QS."""
    return {name: {q: d_stat(dose, mask, q) for q in DVH_QS} for name, mask in structures.items()}


def _mean_dq_gap(d_pred: Dict, d_truth: Dict) -> float:
    """Mean |Dq(pred) - Dq(truth)| over the tables' structures, in order, and DVH_QS."""
    return float(np.mean([abs(d_pred[name][q] - d_truth[name][q])
                          for name in d_pred for q in DVH_QS]))


def dvh_score(pred: np.ndarray, truth: np.ndarray,
              structures: Sequence[np.ndarray]) -> float:
    """Mean |Dq(pred) - Dq(truth)| over structures and q in {1, 95, 99}."""
    if len(structures) == 0:
        raise ValueError("empty structure list")
    named = dict(enumerate(structures))
    return _mean_dq_gap(_dq_table(pred, named), _dq_table(truth, named))


def homogeneity_index(dose: np.ndarray, region_mask: np.ndarray) -> float:
    """Population standard deviation divided by the mean over the region."""
    vals = _masked(dose, region_mask)
    mu = vals.mean()
    if mu <= 0.0:
        raise ValueError(f"region mean must be positive, got {mu}")
    return float(vals.std() / mu)


def dose_difference_map(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return np.asarray(pred, dtype=np.float64) - np.asarray(truth, dtype=np.float64)


def _nonzero(v: float) -> float:
    """v, or a tiny stand-in for a zero, which Lentz's method divides by."""
    return v if abs(v) > 1e-300 else 1e-300


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and
    0 <= x <= 1.

    Numerical Recipes' continued fraction (``betacf``) by Lentz's method,
    times the prefactor x^a (1 - x)^b / (a B(a, b)) taken in logs with
    ``math.lgamma``. Above x = (a + 1) / (a + b + 2), where the fraction
    converges slowly, it returns 1 - I_{1-x}(b, a). For the t-test's
    arguments the fraction converges in 25-35 terms up to df = 2e6; the
    1,000-term cap is a guard. The lgamma prefactor bounds the accuracy:
    about 1e-13 relative up to df = 1,000, 2e-11 at 1e5.
    """
    if x in (0.0, 1.0):
        return x
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> Tuple[float, int, float]:
    """Two-sided paired t-test; returns (t, degrees of freedom, p).

    The p-value is the Student-t two-sided tail I_x(df / 2, 1 / 2) at
    x = df / (df + t^2), from :func:`_betainc`; it agrees with SciPy's
    ``special.betainc`` to about 1e-13 relative for df up to 1,000.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be equal-length 1-D sequences")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise DegenerateVarianceError("differences have zero variance")
    t = d.mean() / (sd / np.sqrt(n))
    df = n - 1
    p = float(_betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), df, p


# ---------------------------------------------------------------------------
# full report


def check_truth(truth: np.ndarray, body_mask: np.ndarray, structures: Dict) -> None:
    """Raise EmptyMaskError unless ``compute_metrics`` can score against this
    truth dose: in order, a positive mean dose in a non-empty PTV, non-empty
    structure masks and body, and a body voxel above RELATIVE_TRUTH_FLOOR."""
    ptv = structures["ptv"]
    if ptv.any() and _masked(truth, ptv).mean() <= 0.0:
        raise EmptyMaskError("truth has no positive mean dose in the PTV")
    for mask in structures.values():
        _masked(truth, mask)
    if not (_masked(truth, body_mask) > RELATIVE_TRUTH_FLOOR).any():
        raise EmptyMaskError("no masked truth voxels above the relative-score floor")


def compute_metrics(pred: np.ndarray, truth: np.ndarray, body_mask: np.ndarray,
                    structures: Dict[str, np.ndarray]) -> MetricsReport:
    """Score a prediction: dose scores over the body, DVH score over the
    given structures, HI over the PTV, ``structures["ptv"]``."""
    ptv = structures["ptv"]
    d_pred, d_truth = _dq_table(pred, structures), _dq_table(truth, structures)
    diff = dose_difference_map(pred, truth)
    return MetricsReport(
        dose_score_relative=dose_score(pred, truth, body_mask, "relative"),
        dose_score_mae=dose_score(pred, truth, body_mask, "mae"),
        dvh_score=_mean_dq_gap(d_pred, d_truth),
        hi=homogeneity_index(pred, ptv),
        hi_truth=homogeneity_index(truth, ptv),
        d_stats_pred=d_pred,
        d_stats_truth=d_truth,
        max_abs_diff=float(np.abs(diff).max()),
        rel_excluded_voxels=int((_masked(truth, body_mask) <= RELATIVE_TRUTH_FLOOR).sum()),
    )


def dvh_csv(curves: Sequence[DvhCurve]) -> str:
    """CSV export: header structure,dose,volume_pct, one row per bin."""
    lines = ["structure,dose,volume_pct"]
    for c in curves:
        for d, v in zip(c.dose, c.volume_pct):
            lines.append(f"{c.structure},{float(d)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def summarize(values: Sequence[float]) -> Tuple[float, float, str]:
    """Aggregate presentation: mean, sample std, and 'm±s' 3-decimals text."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std, f"{mean:.3f}±{std:.3f}"
