"""Named parameter store and the Adam update.

The store decides where every initial value comes from: a fresh store
draws each one from the generator it owns, and a restored store takes
each from its source and draws nothing. ``adam_step`` takes its betas
from the caller (``train.fit_step``, from the run config). Its first call
on a store packs the parameters and both moments into one flat buffer
each, so that every later update is one blocked pass over a few
contiguous runs instead of a dozen numpy calls per parameter.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from .tensor import ShapeError, Tensor


def trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with every entry beyond 2 std redrawn until inside.

    Each round redraws only the entries still out of range, in C order, so
    the values depend on nothing but rng's stream.
    """
    x = rng.normal(0.0, std, shape)
    flat = x.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while idx.size:
        redrawn = rng.normal(0.0, std, idx.size)
        flat[idx] = redrawn
        idx = idx[np.abs(redrawn) > 2.0 * std]
    return x


class ParamStore:
    """Flat map from parameter path to Tensor plus Adam moment buffers.

    Parameter names are unique; first/second moment buffers match the
    parameter shape. Each parameter carries its own step counter so bias
    correction stays consistent when a step skips some parameters.

    A fresh store owns its init stream: ``normal`` draws each value from
    the generator it was made with, in the order the parameters are
    added, and every moment starts at zero. A store made by
    ``from_source`` takes every value from ``source(name, shape)``
    instead, draws nothing and makes no moment buffers; whoever restores
    the store supplies those.

    ``adam_step`` packs the store before it updates it (``_packed``): the
    parameter arrays, then the first moments, then the second moments
    each move into one flat float64 buffer, in the order the parameters
    were added, and every per-parameter array becomes a view into it.
    Updates write through the views in place. A store that is never
    stepped (a load for sampling) is never packed.
    """

    def __init__(self, rng: Optional[np.random.Generator]):
        self._params: Dict[str, Tensor] = {}
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        self.steps: Dict[str, int] = {}
        self._rng = rng
        self._source: Optional[Callable[[str, tuple], np.ndarray]] = None
        self._flat: Optional[tuple] = None     # the (data, m, v) buffers once packed
        self._layout: list = []                # (name, shape, start, stop) in the buffers

    @classmethod
    def from_source(cls, source: Callable[[str, tuple], np.ndarray]) -> "ParamStore":
        store = cls(None)
        store._source = source
        return store

    def add(self, name: str, data: np.ndarray) -> Tensor:
        data = np.asarray(data, dtype=np.float64)
        return self._put(name, data.shape, lambda: data)

    def normal(self, name: str, shape: tuple, std: float = 0.02) -> Tensor:
        """A truncated-normal parameter (``trunc_normal``), drawn from the
        store's generator only when the store has no source."""
        return self._put(name, tuple(shape), lambda: trunc_normal(self._rng, shape, std))

    def _put(self, name: str, shape: tuple, make: Callable[[], np.ndarray]) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name!r}")
        if self._source is None:
            t = Tensor(make(), requires_grad=True, name=name)
            self.m[name] = np.zeros(shape)
            self.v[name] = np.zeros(shape)
        else:
            t = Tensor(self._source(name, shape), requires_grad=True, name=name)
        self._params[name] = t
        self.steps[name] = 0
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        return iter(self._params.items())

    def names(self):
        return list(self._params)

    def total_size(self) -> int:
        return sum(t.size for t in self._params.values())

    def _packed(self) -> tuple:
        """The flat (data, m, v) buffers and the layout, packing them first
        when some array is not a view of its buffer (the first call, a
        parameter added or an array rebound since)."""
        flat = self._flat
        if flat is None or len(self._layout) != len(self._params) or not all(
                self._params[n].data.base is flat[0] and self.m[n].base is flat[1]
                and self.v[n].base is flat[2] for n, _, _, _ in self._layout):
            self._pack()
        return self._flat, self._layout

    def _pack(self) -> None:
        layout, total = [], 0
        for name, t in self._params.items():
            layout.append((name, t.shape, total, total + t.size))
            total += t.size
        self._flat = None      # an old buffer is freed once its last view is replaced
        flat = []
        for moment in (None, self.m, self.v):    # one buffer at a time
            buf = np.empty(total)
            for name, _, start, stop in layout:
                t = self._params[name]
                a = t.data if moment is None else moment[name]
                view = buf[start:stop].reshape(a.shape)
                view[...] = a
                if moment is None:
                    t.data = view
                else:
                    moment[name] = view
            flat.append(buf)
        self._flat, self._layout = tuple(flat), layout


# elements per block of the flat Adam pass (128 KB of float64), so that a
# block's slices of the buffers and its temporary stay in cache
_ADAM_BLOCK = 16384


def _adam_run(data: np.ndarray, m: np.ndarray, v: np.ndarray, grads: list, lr: float,
              b1: float, b2: float, t: int) -> None:
    """Adam on one contiguous run of the flat buffers whose parameters all
    take their t-th step, in place, one cache-sized block at a time over
    the run's gradients gathered into one flat copy.

    Per element the same IEEE operations in the same order as
    ``m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * (g * g);
    p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + 1e-8)``.
    """
    flat_g = np.concatenate([g.reshape(-1) for g in grads])
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    tmp = np.empty(min(_ADAM_BLOCK, data.size))
    for r0 in range(0, data.size, _ADAM_BLOCK):
        blk = slice(r0, r0 + _ADAM_BLOCK)
        g, mb, vb = flat_g[blk], m[blk], v[blk]
        part = tmp[:g.size]
        mb *= b1
        np.multiply(g, 1.0 - b1, out=part)
        mb += part
        vb *= b2
        np.multiply(g, g, out=part)
        part *= 1.0 - b2
        vb += part
        np.divide(mb, c1, out=part)
        part *= lr
        np.divide(vb, c2, out=g)    # this block of the gathered copy is spent: reuse it
        np.sqrt(g, out=g)
        g += 1e-8
        part /= g
        data[blk] -= part


def adam_step(store: ParamStore, grads: Dict[str, np.ndarray], lr: float,
              betas: Tuple[float, float]) -> ParamStore:
    """In-place Adam update with bias correction and epsilon 1e-8.

    Parameters without an entry in ``grads`` are left untouched (moments
    and step counter included). Every maximal run of packed parameters
    that are in ``grads`` and take the same step runs as one blocked pass
    (``_adam_run``), bitwise the per-parameter formula. A gradient of an
    unknown parameter or of the wrong shape raises before anything changes.
    Returns the store for chaining.
    """
    (data, m, v), layout = store._packed()
    steps = store.steps
    runs = []     # [start, stop, step, gradients]
    for name, shape, start, stop in layout:
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape "
                             f"{shape} for {name!r}")
        t = steps[name] + 1
        run = runs[-1] if runs else None
        if run is not None and run[1] == start and run[2] == t:
            run[1] = stop
            run[3].append(g)
        else:
            runs.append([start, stop, t, [g]])
    if sum(len(run[3]) for run in runs) != len(grads):
        unknown = next(name for name in grads if name not in store)
        raise KeyError(f"gradient for unknown parameter {unknown!r}")
    for name in grads:
        steps[name] += 1
    b1, b2 = betas
    for start, stop, t, gs in runs:
        blk = slice(start, stop)
        _adam_run(data[blk], m[blk], v[blk], gs, lr, b1, b2, t)
    return store
