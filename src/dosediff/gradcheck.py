"""Finite-difference verification of analytic gradients.

One central-difference loop, ``finite_diff_scalar_fn``, compares the
analytic gradient of a scalar closure, which ``backward`` returns for
the leaves named in its coordinates, with (f(x + eps) - f(x - eps)) /
2 eps at those coordinates, calling the forward twice per coordinate
under ``no_grad``. ``finite_diff_check`` feeds it one engine
op, its output projected onto a fixed random array, at every input
coordinate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, backward, forward_op, no_grad


def finite_diff_check(kind: str, inputs: Sequence[np.ndarray], attrs: dict,
                      projection_seed: int = 0) -> float:
    """Max relative error between analytic and central-difference grads.

    The op output is projected onto a fixed random array drawn once from
    ``projection_seed`` (a scalar with nonzero sensitivity to every output
    entry), and ``finite_diff_scalar_fn`` checks every coordinate of every
    input. Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, 1e-8); the caller asserts on
    the returned maximum.
    """
    leaves = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in inputs]
    with no_grad():
        shape = forward_op(kind, leaves, attrs).shape
    rng = np.random.default_rng(projection_seed)
    proj = Tensor(rng.standard_normal(shape) if shape else np.asarray(1.0))
    coords = [(t, j) for t in leaves for j in range(t.data.size)]
    return finite_diff_scalar_fn(lambda: (forward_op(kind, leaves, attrs) * proj).sum(),
                                 coords)


def finite_diff_scalar_fn(fn: Callable[[], Tensor], coords: Sequence[tuple],
                          eps: float = 1e-5) -> float:
    """Finite-difference check of an arbitrary scalar-valued closure.

    ``fn`` rebuilds the graph from current leaf values on every call;
    ``coords`` is a list of (leaf Tensor, flat_index) pairs naming which
    coordinates to perturb, in place. Model checks pass a few coordinates
    per parameter, where a full Jacobian sweep would be too slow.
    """
    grads = backward(fn(), [t for t, _ in coords])
    worst = 0.0
    for (t, idx), g in zip(coords, grads):
        ana = g.reshape(-1)[idx]
        flat = t.data.reshape(-1)
        orig = flat[idx]
        with no_grad():
            flat[idx] = orig + eps
            fp = float(fn().data)
            flat[idx] = orig - eps
            fm = float(fn().data)
            flat[idx] = orig
        num = (fp - fm) / (2.0 * eps)
        err = abs(ana - num) / max(abs(ana), 1e-8)
        worst = max(worst, err)
    return worst
