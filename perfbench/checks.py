"""Output checks: what each command wrote, compared with a reference.

Every unit of work (a training step, a sampled case, a generated case,
an evaluated case) gets one status:

* ``bitwise``   - every field equals the reference bit for bit;
* ``tolerance`` - some field differs, but only within its tolerance
                  (reported separately, not a failure);
* ``fail``      - a field is missing, has another shape, or differs by
                  more than its tolerance.

Tolerances cover a reordered float sum and no more. Float32 fields
(dose maps, generated CT and dose) may move by one float32 rounding
step: |a - b| <= 2**-23 * max(|a|, |b|). Training losses are float64:
summing conv2d per kernel tap instead of in one einsum moved the
losses of a 20-step pass by at most 1.9e-15 relative, so they get
1e-12 relative, room for reordering many more ops. Metrics and
t-tests are statistics of float32 maps, which a one-step change of the
maps moves by at most ~1.5e-7 at the prescription dose: they get 1e-6
relative plus 1e-6 absolute. Masks and metadata must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

F32_RTOL = 2.0 ** -23
TOLERANCES = {           # field: (relative, absolute)
    "loss": (1e-12, 0.0),
    "dose": (F32_RTOL, 0.0),
    "ct": (F32_RTOL, 0.0),
    "ptv": (0.0, 0.0),
    "oars": (0.0, 0.0),
    "meta": (0.0, 0.0),
    "metrics": (1e-6, 1e-6),
    "ttest": (1e-6, 1e-6),
}
STATUS_RANK = {"bitwise": 0, "tolerance": 1, "fail": 2}


def compare_field(field: str, got, ref) -> str:
    a, b = np.asarray(got), np.asarray(ref)
    if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
        return "fail"
    if a.dtype.kind in "US":
        return "bitwise" if np.array_equal(a, b) else "fail"
    if a.tobytes() == b.tobytes():
        return "bitwise"
    rtol, atol = TOLERANCES[field]
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    same_nan = np.isnan(a64) == np.isnan(b64)
    a64, b64 = np.nan_to_num(a64), np.nan_to_num(b64)
    bound = atol + rtol * np.maximum(np.abs(a64), np.abs(b64))
    ok = same_nan.all() and bool((np.abs(a64 - b64) <= bound).all())
    return "tolerance" if ok else "fail"


def compare_unit(got: dict, ref: dict) -> str:
    if got is None or ref is None or set(got) != set(ref):
        return "fail"
    worst = "bitwise"
    for field in ref:
        status = compare_field(field, got[field], ref[field])
        if STATUS_RANK[status] > STATUS_RANK[worst]:
            worst = status
    return worst


def sane_unit(kind: str, payload: dict) -> bool:
    """Properties every correct output has, whatever its inputs."""
    if payload is None:
        return False
    if kind == "train":
        return bool(np.isfinite(payload["loss"]) and payload["loss"] > 0)
    if kind == "sample":
        d = payload["dose"]
        return bool(np.isfinite(d).all() and d.min() >= 0.0 and d.max() <= 1.25)
    if kind == "gen":
        ptv = payload["ptv"]
        masks_binary = all(np.isin(payload[k], (0.0, 1.0)).all() for k in ("ptv", "oars"))
        finite = all(np.isfinite(payload[k]).all() for k in ("ct", "dose"))
        ptv_mean = float(payload["dose"][ptv == 1.0].mean()) if ptv.any() else 0.0
        return bool(masks_binary and finite and abs(ptv_mean - 1.0) < 1e-4)
    if kind == "eval":
        return bool(np.isfinite(payload["metrics"]).all())
    raise ValueError(f"unknown command kind {kind!r}")


# ---------------------------------------------------------------------------
# reading what a command wrote


def _read_csv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]


def read_outputs(kind: str, cmd: dict, phantom) -> dict:
    """{unit id: {field: value}} for the units the command was to produce.

    ``phantom`` is the program's own ``dosediff.phantom`` module, whose
    readers decode the ``.spdp`` files. A unit whose file is missing or
    unreadable maps to None.
    """
    out = {}
    units = cmd["units"]
    if kind == "train":
        path = Path(cmd["out"]) / "loss_log.csv"
        rows = _read_csv_rows(path) if path.exists() else []
        for i, uid in enumerate(units):
            out[uid] = {"loss": np.float64(float(rows[i][1]))} if i < len(rows) else None
    elif kind == "sample":
        for uid in units:
            out[uid] = _guard(lambda: {"dose": phantom.read_dose_map(
                Path(cmd["out"]) / f"{uid}.spdp")})
    elif kind == "gen":
        for uid in units:
            out[uid] = _guard(lambda: _sample_fields(
                phantom.read_sample(Path(cmd["out"]) / f"{uid}.spdp")))
    elif kind == "eval":
        out = _eval_outputs(Path(cmd["out"]), units)
    else:
        raise ValueError(f"unknown command kind {kind!r}")
    return out


def _guard(read):
    try:
        return read()
    except (OSError, ValueError):
        return None


def _sample_fields(s) -> dict:
    return {"ct": s.ct, "ptv": s.ptv.astype(np.float32), "oars": s.oars.astype(np.float32),
            "dose": s.dose, "meta": np.array(json.dumps(s.meta, sort_keys=True))}


def _eval_outputs(out_dir: Path, units: list) -> dict:
    try:
        rows = {r[0]: [float(x) for x in r[1:]] for r in _read_csv_rows(out_dir / "metrics.csv")}
        ttest = [float(x) for r in _read_csv_rows(out_dir / "ttest.csv") for x in r[1:]]
    except (OSError, ValueError, IndexError):
        return {uid: None for uid in units}
    return {uid: ({"metrics": np.array(rows[uid]), "ttest": np.array(ttest)}
                  if uid in rows else None) for uid in units}


# ---------------------------------------------------------------------------
# reference files: one .npz per workload, keys "<kind>/<unit>/<field>"


def save_reference(path: Path, outputs: dict) -> None:
    flat = {}
    for kind, units in outputs.items():
        for uid, fields in units.items():
            for field, value in fields.items():
                flat[f"{kind}/{uid}/{field}"] = np.asarray(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.savez_compressed(f, **flat)


def load_reference(path: Path) -> dict:
    outputs: dict = {}
    with np.load(path, allow_pickle=False) as z:
        for key in z.files:
            kind, uid, field = key.split("/")
            outputs.setdefault(kind, {}).setdefault(uid, {})[field] = z[key]
    return outputs
