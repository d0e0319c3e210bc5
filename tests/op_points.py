"""Shared table of random evaluation points for every catalog op.

Used by both the unit gradient checks and the acceptance suite. Points
avoid the relu kink by pushing inputs away from zero.
"""

import numpy as np


def _away_from_zero(x, margin=0.1):
    return np.where(np.abs(x) < margin, np.sign(x) * margin + x, x)


def op_point(kind: str, rng: np.random.Generator):
    """Return (inputs, attrs) suitable for finite_diff_check(kind, ...)."""
    n = rng.standard_normal
    if kind == "add":
        return [n((3, 4)), n((3, 4))], {}
    if kind == "elementwise-mul":
        return [n((3, 4)), n((3, 4))], {}
    if kind == "scalar-mul":
        return [n((3, 4))], {"value": float(rng.uniform(0.5, 2.0))}
    if kind == "matmul":
        return [n((4, 4)), n((4, 4))], {}
    if kind == "linear":
        return [n((2, 1, 2, 4)), n((4, 3)), n(3)], {}
    if kind == "conv2d":
        return [n((1, 6, 6, 3)), n((2, 3, 3, 3)), n(2)], {"stride": 1, "padding": 1}
    if kind == "upsample-nearest2":
        return [n((1, 3, 3, 2))], {}
    if kind == "reshape":
        return [n((3, 4))], {"shape": (2, 6)}
    if kind == "permute":
        return [n((2, 3, 4))], {"axes": (2, 0, 1)}
    if kind == "concat":
        return [n((2, 3)), n((2, 2))], {"axis": 1}
    if kind == "roll":
        return [n((3, 4))], {"shifts": (1, -2), "axes": (0, 1)}
    if kind == "softmax":
        return [n(8)], {"axis": -1}
    if kind == "relu":
        return [_away_from_zero(n(10))], {}
    if kind == "gelu":
        return [n(10)], {}
    if kind == "layer-norm":
        return [n((4, 6)), 1.0 + 0.1 * n(6), 0.1 * n(6)], {}
    if kind == "conv-block":
        # B = 2 on a non-square map, with a [B, 1, 1, C] time bias
        return ([n((2, 4, 3, 3)), 1.0 + 0.1 * n(3), 0.1 * n(3), 0.5 * n((3, 3, 3, 3)), n(3),
                 n((2, 1, 1, 3))], {})
    if kind == "sum":
        return [n((3, 4))], {"axis": 0}
    if kind == "mse-loss":
        return [n((3, 4)), n((3, 4))], {}
    if kind == "window-attention":
        # shifted 2x2 windows on a 4x4 map, two heads of width 2
        return ([n((1, 4, 4, 4))] + [0.5 * n((4, 4)) for _ in range(4)],
                {"heads": 2, "window": 2, "shift": 1})
    if kind == "swin-block":
        # B = 2, shifted 2x2 windows on a 4x4 map, two heads, an MLP of width 6
        # and a [B, 1, 1, C] time bias; the MLP input is pushed off the relu kink
        return ([n((2, 4, 4, 3)), 1.0 + 0.1 * n(3), 0.1 * n(3)]
                + [0.5 * n((3, 4)), 0.5 * n((3, 4)), 0.5 * n((3, 4)), 0.5 * n((4, 3))]
                + [n((2, 1, 1, 3)), 1.0 + 0.1 * n(3), 0.1 * n(3), 0.5 * n((3, 6)),
                   _away_from_zero(n(6), 0.5), 0.5 * n((6, 3)), n(3)],
                {"heads": 2, "window": 2, "shift": 1})
    raise KeyError(kind)
