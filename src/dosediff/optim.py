"""Named parameter store and the Adam update.

The store decides where every initial value comes from: a fresh store
draws each one from the generator it owns, and a restored store takes
each from its source and draws nothing. ``adam_step`` takes its betas
from the caller (``train.fit_step``, from the run config) and one
gradient per parameter in store order, the list that
``backward(loss, store.tensors())`` returns. Its first call
on a store packs the parameters and both moments into one flat buffer
each, so that every later update is one blocked pass over them instead
of a dozen numpy calls per parameter.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

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
    parameter shape. The order the parameters were added is the store
    order of ``names``, ``tensors`` and ``adam_step``'s gradients.
    ``step`` is Adam's timestep: every update steps every parameter, so
    the whole store shares one count.

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
        self.step = 0
        self._rng = rng
        self._source: Optional[Callable[[str, tuple], np.ndarray]] = None
        self._flat: Optional[tuple] = None     # the (data, m, v) buffers once packed

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
            t = Tensor(make(), requires_grad=True)
            self.m[name] = np.zeros(shape)
            self.v[name] = np.zeros(shape)
        else:
            t = Tensor(self._source(name, shape), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterator[Tuple[str, Tensor]]:
        return iter(self._params.items())

    def names(self):
        return list(self._params)

    def tensors(self) -> list:
        """The parameters in the order they were added, as ``backward``
        takes its leaves and ``adam_step`` its gradients."""
        return list(self._params.values())

    def _packed(self) -> tuple:
        """The flat (data, m, v) buffers, packing them first when some
        array is not a view of its buffer (the first call, a parameter
        added, whose moments start as arrays of their own, or an array
        rebound since)."""
        flat = self._flat
        if flat is None or not all(
                t.data.base is flat[0] and self.m[n].base is flat[1]
                and self.v[n].base is flat[2] for n, t in self._params.items()):
            self._pack()
        return self._flat

    def _pack(self) -> None:
        total = sum(t.size for t in self._params.values())
        self._flat = None      # an old buffer is freed once its last view is replaced
        flat = []
        for moment in (None, self.m, self.v):    # one buffer at a time
            buf, start = np.empty(total), 0
            for name, t in self._params.items():
                a = t.data if moment is None else moment[name]
                view = buf[start:start + t.size].reshape(a.shape)
                start += t.size
                view[...] = a
                if moment is None:
                    t.data = view
                else:
                    moment[name] = view
            flat.append(buf)
        self._flat = tuple(flat)


# elements per block of the flat Adam pass (128 KB of float64), so that a
# block's slices of the buffers and its temporary stay in cache
_ADAM_BLOCK = 16384


def _adam_run(data: np.ndarray, m: np.ndarray, v: np.ndarray, grads: list, lr: float,
              b1: float, b2: float, t: int) -> None:
    """Adam's t-th step on the flat buffers, in place, one cache-sized
    block at a time over the gradients gathered into one flat copy.

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


def adam_step(store: ParamStore, grads: Sequence[np.ndarray], lr: float,
              betas: Tuple[float, float]) -> ParamStore:
    """In-place Adam update with bias correction and epsilon 1e-8.

    ``grads`` holds one gradient per parameter in store order, as
    ``backward(loss, store.tensors())`` returns them. A wrong count or a
    gradient of the wrong shape raises ShapeError before anything
    changes. The update steps ``store.step`` and runs as one blocked pass
    over the packed buffers (``_adam_run``), bitwise the per-parameter
    formula. Returns the store for chaining.
    """
    if len(grads) != len(store._params):
        raise ShapeError(f"adam_step: {len(grads)} gradients for "
                         f"{len(store._params)} parameters")
    for (name, p), g in zip(store.items(), grads):
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape "
                             f"{p.shape} for {name!r}")
    data, m, v = store._packed()
    store.step += 1
    _adam_run(data, m, v, grads, lr, *betas, store.step)
    return store
