"""Named parameter store and the Adam update.

The store decides where every initial value comes from: a fresh store
draws each one from the generator it owns, and a restored store takes
each from its source and draws nothing. ``adam_step`` takes its betas
from the caller (``train.fit_step``, from the run config).
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
    """

    def __init__(self, rng: Optional[np.random.Generator]):
        self._params: Dict[str, Tensor] = {}
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}
        self.steps: Dict[str, int] = {}
        self._rng = rng
        self._source: Optional[Callable[[str, tuple], np.ndarray]] = None

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


def adam_step(store: ParamStore, grads: Dict[str, np.ndarray], lr: float,
              betas: Tuple[float, float]) -> ParamStore:
    """In-place Adam update with bias correction and epsilon 1e-8.

    Parameters without an entry in ``grads`` are left untouched (moments
    and step counter included). Returns the store for chaining.
    """
    b1, b2 = betas
    for name, g in grads.items():
        if name not in store:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        p = store[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape "
                             f"{p.data.shape} for {name!r}")
        store.steps[name] += 1
        t = store.steps[name]
        store.m[name] = b1 * store.m[name] + (1.0 - b1) * g
        store.v[name] = b2 * store.v[name] + (1.0 - b2) * (g * g)
        m_hat = store.m[name] / (1.0 - b1 ** t)
        v_hat = store.v[name] / (1.0 - b2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return store
