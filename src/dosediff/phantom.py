"""Deterministic synthetic 2-D thorax-like phantoms with analytic
beam-based ground-truth dose, plus bit-exact sample file I/O.

Each sample holds a CT-like image in [0, 1], a PTV mask, O organ-at-risk
masks, and a dose grid normalized so the PTV mean equals 1.0
prescription unit. Image channels are float32 (matching the on-disk
format) so write/read round trips are bitwise.

Sample file layout (little-endian):

    magic b"SPDP" | u16 version | u16 H | u16 W | u16 O
    channels as f32 row-major, fixed order: CT, PTV, OAR_1..OAR_O, dose
    u32 metadata length | UTF-8 "key=value" lines

Version 1 is the full sample; version 1 with the high bit set (0x8001)
is the dose-only variant used for predictions (single dose channel,
O field written as 0).
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .atomic import write_atomic

MAGIC = b"SPDP"
FORMAT_VERSION = 1
DOSE_ONLY_FLAG = 0x8000

GENERATOR_VERSION = 1
MU_PER_PIXEL = 0.02       # attenuation per traversed body pixel
SIGMA_FRACTION = 0.06     # lateral beam profile sigma as a fraction of H
MAX_PLACEMENT_RETRIES = 100

DOSE_MAX_SCALE = 1.25     # prescription units mapped to +1 in [-1, 1]


class SampleFormatError(ValueError):
    """Base class for malformed sample files."""


class BadMagicError(SampleFormatError):
    pass


class VersionError(SampleFormatError):
    pass


class TruncatedFileError(SampleFormatError):
    pass


class DoseClampWarning(UserWarning):
    """Dose values above DOSE_MAX_SCALE were capped during normalization."""


@dataclass
class PhantomSample:
    """One synthetic case: CT, PTV mask, OAR masks, ground-truth dose."""

    ct: np.ndarray                  # [H, W] float32 in [0, 1]
    ptv: np.ndarray                 # [H, W] bool
    oars: np.ndarray                # [O, H, W] bool
    dose: np.ndarray                # [H, W] float32, PTV mean = 1.0
    meta: Dict[str, str] = field(default_factory=dict)

    @property
    def oar_count(self) -> int:
        return self.oars.shape[0]

    @property
    def body(self) -> np.ndarray:
        return self.ct > 0

    def structures(self) -> Dict[str, np.ndarray]:
        out = {"ptv": self.ptv}
        for i in range(self.oar_count):
            out[f"oar{i + 1}"] = self.oars[i]
        return out


@dataclass
class DatasetSplit:
    """Disjoint, exhaustive partition of generated sample ids."""

    train: List[str]
    val: List[str]
    test: List[str]
    seed: int

    def all_ids(self) -> List[str]:
        return self.train + self.val + self.test


# ---------------------------------------------------------------------------
# geometry helpers


def _ellipse_mask(h: int, w: int, cy: float, cx: float, ry: float, rx: float,
                  angle: float) -> np.ndarray:
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = ys - cy, xs - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = dy * ca + dx * sa
    v = -dy * sa + dx * ca
    return (u / ry) ** 2 + (v / rx) ** 2 <= 1.0


def beam_dose(body: np.ndarray, center: Tuple[float, float], angle: float,
              sigma: float, mu: float) -> np.ndarray:
    """Dose deposited by one beam aimed through ``center`` at ``angle``.

    Gaussian lateral profile about the ray, attenuated by
    exp(-mu * depth) where depth is the body path length from the beam's
    entry point. mu=0 makes the dose along the axis constant in depth.

    Depth at pixel (y, x) is the sum over steps k = 1..ceil(hypot(h, w))
    of body[rint(y - k*uy), rint(x - k*ux)], counting only samples inside
    the frame. Samples outside the body are 0 and pixels outside it get
    no dose, so the march runs on the body's bounding box alone. It is
    separable: the sample row depends on y and k only and the sample
    column on x and k only, so each step needs two 1-D index vectors.
    Both are nondecreasing in y and x, so the pixels whose sample lies in
    the box form a rectangle and the step is one slice-add. Each index
    moves monotonically with k, so once a step's rectangle is empty every
    later one is too and the march stops there. Every step's row and
    column indices come from one ``rint`` over all k.

    This is exact, not an approximation. ``body`` is a 0/1 mask, so a
    depth is a count of body samples: the march gathers them from a uint8
    copy of the body and adds them in integers, and converts the counts
    to float64 once. Every body pixel counts the same samples, at the same
    float-computed indices, as a per-pixel march over the whole frame
    (the samples skipped, outside the box, are 0). A count is at most
    ceil(hypot(h, w)), far below 2^53, and a float sum of 0.0s and 1.0s
    starting at +0.0 is that same integer in any order, so the result is
    bitwise equal to marching every pixel in float64.
    """
    h, w = body.shape
    cy, cx = center
    uy, ux = np.cos(angle), np.sin(angle)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    d_perp = np.abs(-(ys - cy) * ux + (xs - cx) * uy)
    lateral = np.exp(-0.5 * (d_perp / sigma) ** 2)

    depth = np.zeros((h, w))
    if mu > 0.0 and body.any():
        rows, cols = np.flatnonzero(body.any(axis=1)), np.flatnonzero(body.any(axis=0))
        y0, y1, x0, x1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
        body_u8 = body.astype(np.uint8)
        count = np.zeros((y1 - y0, x1 - x0), dtype=np.int32)
        k = np.arange(1, int(np.ceil(np.hypot(h, w))) + 1, dtype=np.float64)[:, None]
        iys = np.rint(np.arange(y0, y1, dtype=np.float64) - k * uy).astype(np.int64)
        ixs = np.rint(np.arange(x0, x1, dtype=np.float64) - k * ux).astype(np.int64)
        for iy, ix in zip(iys, ixs):
            r0, r1 = np.searchsorted(iy, (y0, y1))
            c0, c1 = np.searchsorted(ix, (x0, x1))
            if r0 == r1 or c0 == c1:
                break
            count[r0:r1, c0:c1] += body_u8[iy[r0:r1]][:, ix[c0:c1]]   # rows, then columns
        depth[y0:y1, x0:x1] = count

    return lateral * np.exp(-mu * depth) * body


# ---------------------------------------------------------------------------
# generation


def _draw_inside(rng: np.random.Generator, region: np.ndarray) -> Tuple[int, int]:
    ys, xs = np.nonzero(region)
    i = int(rng.integers(0, len(ys)))
    return int(ys[i]), int(xs[i])


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian filter of a 2-D array, bitwise equal to SciPy's
    ``ndimage.gaussian_filter`` at its defaults (truncate 4, mode
    "reflect", which is numpy's "symmetric" pad).

    ndimage's symmetric 1-D correlation along axis 0, then axis 1: weights
    exp(-k^2 / (2 sigma^2)) / sum for |k| <= int(4 sigma + 0.5), and
    ``out = x[i] w_0``, then ``out += (x[i - j] + x[i + j]) w_j`` for j
    from the radius down to 1. Axis 1 is filtered as axis 0 of the
    transpose, so every pass reads whole contiguous rows.
    """
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w = w / w.sum()
    for _ in range(2):
        n = img.shape[0]
        pad = np.pad(img, ((r, r), (0, 0)), mode="symmetric")
        out = pad[r:r + n] * w[r]
        s = np.empty_like(out)   # one buffer: no fresh pages per tap
        for j in range(r, 0, -1):
            np.add(pad[r - j:r - j + n], pad[r + j:r + j + n], out=s)
            s *= w[r + j]
            out += s
        img = out.T
    return img


def generate_phantom(seed: int, size: int, oar_count: int, beam_count: int) -> PhantomSample:
    """Generate one phantom; a pure function of its arguments.

    The body is a random ellipse; CT is a smooth base plus low-amplitude
    texture (white noise through :func:`_gaussian_blur`, sigma = size / 16
    but at least 1); the PTV and OARs are ellipses inside the body, with
    OARs rejection-sampled away from the PTV (after 100 retries the overlap
    is allowed and recorded in meta). Dose sums beam contributions and
    is normalized so the PTV mean is 1.0.
    """
    if size < 16:
        raise ValueError(f"size must be >= 16, got {size}")
    if oar_count < 1 or beam_count < 1:
        raise ValueError("oar_count and beam_count must be >= 1")
    h = w = int(size)
    rng = np.random.default_rng(np.random.PCG64(seed))

    # body and CT texture
    cy = h / 2 + rng.uniform(-0.04, 0.04) * h
    cx = w / 2 + rng.uniform(-0.04, 0.04) * w
    ry = rng.uniform(0.30, 0.40) * h
    rx = rng.uniform(0.34, 0.44) * w
    body_angle = rng.uniform(-0.3, 0.3)
    body = _ellipse_mask(h, w, cy, cx, ry, rx, body_angle)

    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    r2 = (((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2)
    base = 0.35 + 0.45 * np.clip(1.0 - r2, 0.0, 1.0)
    texture = _gaussian_blur(rng.standard_normal((h, w)), max(size / 16.0, 1.0))
    ct = np.clip(base + 0.08 * texture, 0.05, 1.0) * body

    # PTV: an off-center ellipse fully clipped to the body
    for _ in range(MAX_PLACEMENT_RETRIES):
        py, px = _draw_inside(rng, body)
        pry = rng.uniform(0.05, 0.09) * h
        prx = rng.uniform(0.05, 0.09) * w
        ptv = _ellipse_mask(h, w, py, px, pry, prx, rng.uniform(0, np.pi)) & body
        if ptv.sum() >= 4:
            break
    else:
        raise RuntimeError(f"seed {seed}: could not place a PTV")

    oars = np.zeros((oar_count, h, w), dtype=bool)
    overlap_allowed = False
    for i in range(oar_count):
        for attempt in range(MAX_PLACEMENT_RETRIES + 1):
            oy, ox = _draw_inside(rng, body)
            ory = rng.uniform(0.06, 0.14) * h
            orx = rng.uniform(0.06, 0.14) * w
            cand = _ellipse_mask(h, w, oy, ox, ory, orx, rng.uniform(0, np.pi)) & body
            if cand.sum() < 4:
                continue
            overlap = bool((cand & ptv).any())
            if not overlap or attempt >= MAX_PLACEMENT_RETRIES - 1:
                oars[i] = cand
                overlap_allowed |= overlap
                break
        else:
            raise RuntimeError(f"seed {seed}: could not place OAR {i}")

    # beams aimed at the PTV centroid, uniform angles with jitter
    pys, pxs = np.nonzero(ptv)
    centroid = (float(pys.mean()), float(pxs.mean()))
    sigma = SIGMA_FRACTION * h
    angles = []
    dose = np.zeros((h, w))
    for b in range(beam_count):
        ang = 2.0 * np.pi * b / beam_count + rng.uniform(-0.3, 0.3) * np.pi / beam_count
        angles.append(ang)
        dose += beam_dose(body, centroid, ang, sigma, MU_PER_PIXEL)

    dose /= dose[ptv].mean()
    dose *= body

    meta = {
        "seed": str(seed),
        "size": str(size),
        "oar_count": str(oar_count),
        "beam_count": str(beam_count),
        "generator_version": str(GENERATOR_VERSION),
        "beam_angles": ",".join(repr(a) for a in angles),
        "oar_overlap_allowed": "1" if overlap_allowed else "0",
    }
    return PhantomSample(
        ct=ct.astype(np.float32),
        ptv=ptv,
        oars=oars,
        dose=dose.astype(np.float32),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# binary container (sample files, dose maps and checkpoints)


class Cursor:
    """Bounded reads from the body of one open container file.

    Every read is checked against the file's size before anything is read
    or allocated, so a length that runs past the end of the file raises
    TruncatedFileError whatever it claims.
    """

    def __init__(self, f, what: str):
        self.f, self.what = f, what
        self.off, self.size = 0, os.fstat(f.fileno()).st_size

    def _claim(self, n: int, part: str) -> None:
        if n < 0:
            raise SampleFormatError(f"negative length {n} for {self.what} {part}")
        if self.off + n > self.size:
            raise TruncatedFileError(f"truncated {self.what} while reading {part} "
                                     f"(need {n} bytes at offset {self.off}, "
                                     f"have {self.size})")
        self.off += n

    def _short_read(self, got: int, n: int, part: str) -> None:
        if got != n:   # the file shrank after it was opened
            raise TruncatedFileError(f"truncated {self.what} while reading {part} "
                                     f"(read {got} of {n} bytes)")

    def take(self, n: int, part: str) -> bytes:
        self._claim(n, part)
        data = self.f.read(n)
        self._short_read(len(data), n, part)
        return data

    def skip(self, n: int, part: str) -> None:
        """Step over ``n`` bytes without reading them."""
        self._claim(n, part)
        self.f.seek(n, os.SEEK_CUR)

    def unpack(self, fmt: str, part: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), part))

    def text(self, part: str) -> str:
        """A u32 length followed by that many bytes of UTF-8."""
        (n,) = self.unpack("<I", f"{part} length")
        return str(self.take(n, part), "utf-8")

    def array(self, shape: Sequence[int], dtype: str, part: str) -> np.ndarray:
        """The next row-major array of ``shape``, read straight into a new
        writable array."""
        n = math.prod(shape) * np.dtype(dtype).itemsize
        self._claim(n, part)
        out = np.empty(shape, dtype=dtype)
        self._short_read(self.f.readinto(memoryview(out.reshape(-1)).cast("B")), n, part)
        return out


def pack_text(text: str) -> bytes:
    blob = text.encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


@dataclass(frozen=True)
class Container:
    """One binary file layout: magic | u16 version | body.

    Reading checks the magic, the version and every length, rejects
    trailing bytes, and turns any failure to decode the body into a
    SampleFormatError. Every SampleFormatError out of a read, the
    caller's own included, starts with the file's path and keeps its
    subclass, so no caller adds the file's name. Writing goes to a
    temporary file in the target directory that replaces the target only
    once it is complete.
    """

    magic: bytes
    version: int
    what: str

    @contextmanager
    def read(self, path) -> Iterator[Cursor]:
        try:
            with open(path, "rb") as f:
                cur = Cursor(f, self.what)
                magic = cur.take(len(self.magic), "magic")
                if magic != self.magic:
                    raise BadMagicError(f"bad {self.what} magic {magic!r}, "
                                        f"expected {self.magic!r}")
                (version,) = cur.unpack("<H", "version")
                if version != self.version:
                    raise VersionError(f"unsupported {self.what} version {version:#x}")
                try:
                    yield cur
                except SampleFormatError:
                    raise
                except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
                        RecursionError, struct.error) as e:
                    raise SampleFormatError(f"malformed {self.what}: "
                                            f"{type(e).__name__}: {e}") from None
                if cur.off != cur.size:
                    raise SampleFormatError(f"{cur.size - cur.off} trailing bytes after "
                                            f"the {self.what}")
        except SampleFormatError as e:
            raise type(e)(f"{path}: {e}") from None

    def write(self, path, parts: Iterable[bytes]) -> None:
        write_atomic(path, itertools.chain(
            [self.magic + struct.pack("<H", self.version)], parts))


SAMPLE_FILE = Container(MAGIC, FORMAT_VERSION, "sample")
DOSE_MAP_FILE = Container(MAGIC, FORMAT_VERSION | DOSE_ONLY_FLAG, "dose map")


def _encode_meta(meta: Dict[str, str]) -> bytes:
    return pack_text("".join(f"{k}={v}\n" for k, v in sorted(meta.items())))


def _decode_meta(text: str) -> Dict[str, str]:
    meta = {}
    for line in text.splitlines():
        if line:
            k, _, v = line.partition("=")
            meta[k] = v
    return meta


def write_sample(path, s: PhantomSample) -> None:
    h, w = s.ct.shape
    chans = [s.ct, s.ptv] + [s.oars[i] for i in range(s.oar_count)] + [s.dose]
    SAMPLE_FILE.write(path, [
        struct.pack("<HHH", h, w, s.oar_count),
        b"".join(np.ascontiguousarray(c, dtype="<f4").tobytes() for c in chans),
        _encode_meta(s.meta),
    ])


def read_sample(path) -> PhantomSample:
    with SAMPLE_FILE.read(path) as cur:
        h, w, o = cur.unpack("<HHH", "header")
        data = cur.array((2 + o + 1, h, w), "<f4", "channel data")
        meta = _decode_meta(cur.text("metadata"))
        for what, channel in (("CT", data[0]), ("dose", data[2 + o])):
            bad = np.count_nonzero(~np.isfinite(channel))
            if bad:
                raise SampleFormatError(f"{bad} non-finite {what} voxels")
    return PhantomSample(ct=data[0], ptv=data[1] == 1.0, oars=data[2:2 + o] == 1.0,
                         dose=data[2 + o], meta=meta)


def write_dose_map(path, dose: np.ndarray, meta: Dict[str, str]) -> None:
    """Dose-only variant of the sample format (predictions)."""
    d = np.asarray(dose, dtype=np.float32)
    h, w = d.shape
    DOSE_MAP_FILE.write(path, [
        struct.pack("<HHH", h, w, 0),
        np.ascontiguousarray(d, dtype="<f4").tobytes(),
        _encode_meta(meta),
    ])


def read_dose_map(path) -> np.ndarray:
    with DOSE_MAP_FILE.read(path) as cur:
        h, w, _o = cur.unpack("<HHH", "header")
        dose = cur.array((h, w), "<f4", "dose channel")
        cur.text("metadata")
    return dose


# ---------------------------------------------------------------------------
# normalization

# Condition channel order is fixed: CT, PTV, OAR_1..OAR_O.


def condition_batch(samples: Sequence[PhantomSample]) -> np.ndarray:
    """Stack samples' anatomy into a [B, 2 + O, H, W] float64 condition batch."""
    if not samples:
        raise ValueError("empty sample list")
    if len({(s.ct.shape, s.oar_count) for s in samples}) > 1:
        raise ValueError("samples must share H, W and OAR count")
    return np.stack([
        np.concatenate([s.ct[None].astype(np.float64),
                        s.ptv[None].astype(np.float64),
                        s.oars.astype(np.float64)], axis=0)
        for s in samples
    ])


def normalize_batch(samples: Sequence[PhantomSample]):
    """Stack samples into a condition batch and a dose batch in [-1, 1].

    Doses are mapped by d -> d / DOSE_MAX_SCALE * 2 - 1; values above
    DOSE_MAX_SCALE are capped there (with a DoseClampWarning).
    """
    cond = condition_batch(samples)
    dose = np.stack([s.dose.astype(np.float64)[None] for s in samples])
    n_over = int((dose > DOSE_MAX_SCALE).sum())
    if n_over:
        warnings.warn(f"{n_over} dose voxels above {DOSE_MAX_SCALE} capped",
                      DoseClampWarning)
        dose = np.minimum(dose, DOSE_MAX_SCALE)
    return cond, normalize_dose(dose)


def normalize_dose(d: np.ndarray) -> np.ndarray:
    return d / DOSE_MAX_SCALE * 2.0 - 1.0


def denormalize_dose(n: np.ndarray) -> np.ndarray:
    return (n + 1.0) * (DOSE_MAX_SCALE / 2.0)


# ---------------------------------------------------------------------------
# splits


def make_split(ids: Sequence[str], seed: int,
               ratios: Tuple[float, float, float]) -> DatasetSplit:
    """Deterministic disjoint train/val/test partition by ``ratios``
    (``DataParams.split_ratios``).

    Counts use floor allocation with the remainder going to train, then
    val.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    ids = list(ids)
    rng = np.random.default_rng(np.random.PCG64(seed))
    order = list(rng.permutation(len(ids)))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    n_train = int(np.floor(ratios[0] * n))
    n_val = int(np.floor(ratios[1] * n))
    # each floor loses less than 1, so 0, 1 or 2 ids are left over
    leftover = n - (n_train + n_val + int(np.floor(ratios[2] * n)))
    n_train += int(leftover >= 1)
    n_val += int(leftover == 2)
    return DatasetSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
        seed=seed,
    )
