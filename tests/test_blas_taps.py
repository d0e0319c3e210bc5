"""The conv tap sums accumulate inside BLAS, bitwise numpy's loop.

``_tap_sum`` calls OpenBLAS's ``cblas_dgemm`` (``tensor._DGEMM``) with
beta = 0 for the first tap and beta = 1 for every later one, written into
the block's output rows. Each GEMM's product is formed as numpy's is and
then added into the output once, so the sum is bitwise numpy's matmul
into a scratch block followed by ``+=``. Where the binding would round
otherwise (one row or one column: numpy calls gemv; K above
``_GEMM_K``) or would cost more than it saves, numpy's loop runs.
"""

import numpy as np
import pytest

from dosediff import tensor as T

needs_binding = pytest.mark.skipif(T._DGEMM is None, reason="no OpenBLAS cblas_dgemm found")


def reference_tap_sum(src, offsets, mats, out, rows):
    """The numpy tap sum that the binding replaced, kept verbatim."""
    r0, r1 = rows.start, rows.stop
    acc, part = out[rows], np.empty((r1 - r0, out.shape[1]))
    np.matmul(src[r0 + offsets[0]:r1 + offsets[0]], mats[0], out=acc)
    for off, m in zip(offsets[1:], mats[1:]):
        np.matmul(src[r0 + off:r1 + off], m, out=part)
        acc += part


@pytest.fixture
def dgemm_calls(monkeypatch):
    """The shapes (M, N, K) of every call of the binding."""
    calls, real = [], T._DGEMM

    def spy(*args):
        calls.append(tuple(int(getattr(a, "value", a)) for a in args[3:6]))
        return real(*args)

    spy.argtypes = real.argtypes
    monkeypatch.setattr(T, "_DGEMM", spy)
    return calls


def tap_case(seed, n, K, N):
    """A 3x3 conv's flat source over a grid 7 rows wide, its tap offsets and
    [9, K, N] tap matrices. About 3 in 10 source values are +0.0 or -0.0,
    as the zero border of a padded map is, so the signs of zero sums count."""
    rng = np.random.default_rng(seed)
    offsets = [ki * 7 + kj for ki in range(3) for kj in range(3)]
    src = rng.standard_normal((n + offsets[-1], K))
    src[rng.random(src.shape) < 0.2] = 0.0
    src[rng.random(src.shape) < 0.1] = -0.0
    mats = rng.standard_normal((9, K, N))
    mats[rng.random(mats.shape) < 0.05] = -0.0
    return src, offsets, mats


def tap_sums(tap_sum, src, offsets, mats, blocks):
    out = np.full((blocks[-1].stop, mats.shape[2]), np.nan)
    for rows in blocks:
        tap_sum(src, offsets, mats, out, rows)
    return out


@needs_binding
@pytest.mark.parametrize("N", [2, 8, 32, 256])
@pytest.mark.parametrize("K", [1, 5, 8, 32, 64, 128, 256])
def test_binding_is_numpy_matmul_then_add_bitwise(K, N, dgemm_calls, monkeypatch):
    # every block of two or more rows through the binding, whatever its size
    monkeypatch.setattr(T, "_GEMM_MIN_OUT", 0)
    step = T._tap_rows(K, N)
    for n in (2 * step + step // 3, step + 2):       # short last blocks
        src, offsets, mats = tap_case(K * 1000 + N + n, n, K, N)
        blocks = T._rows(n, step)
        got = tap_sums(T._tap_sum, src, offsets, mats, blocks)
        want = tap_sums(reference_tap_sum, src, offsets, mats, blocks)
        assert got.tobytes() == want.tobytes()
    assert dgemm_calls and {k for _, _, k in dgemm_calls} == {K}


@needs_binding
@pytest.mark.parametrize("M, K, N, why", [
    (5000, 16, 1, "one output column: numpy calls gemv"),
    (1, 16, 4096, "one row: numpy calls gemv"),
    (300, 257, 16, "K above _GEMM_K"),
    (255, 16, 16, "fewer than _GEMM_MIN_OUT outputs"),
])
def test_products_the_binding_would_change_take_numpy(M, K, N, why, dgemm_calls):
    src, offsets, mats = tap_case(M + K + N, M, K, N)
    got = tap_sums(T._tap_sum, src, offsets, mats, [slice(0, M)])
    want = tap_sums(reference_tap_sum, src, offsets, mats, [slice(0, M)])
    assert got.tobytes() == want.tobytes()
    assert dgemm_calls == [], why


@needs_binding
def test_operands_the_pointers_cannot_reach_take_numpy(dgemm_calls):
    src, offsets, mats = tap_case(0, 600, 16, 16)
    wide = np.zeros((len(src), 32))
    wide[:, ::2] = src
    strided = wide[:, ::2]                  # rows of 16 values 16 bytes apart
    got = tap_sums(T._tap_sum, strided, offsets, mats, [slice(0, 600)])
    want = tap_sums(reference_tap_sum, src, offsets, mats, [slice(0, 600)])
    assert got.tobytes() == want.tobytes()
    assert dgemm_calls == []
    # a block that would read past the source's last row
    with pytest.raises(ValueError):
        T._tap_sum(src, offsets, mats, np.empty((601, 16)), slice(0, 601))
    assert dgemm_calls == []


def leaves(rng, *shapes):
    return [T.Tensor(rng.standard_normal(s) * 0.3, requires_grad=True) for s in shapes]


def conv2d_case(shape, cout, k, p, stride):
    def make(rng):
        x, w, b = leaves(rng, shape, (cout, shape[3], k, k), (cout,))
        return lambda: T.conv2d(x, w, b, stride, p), [x, w, b]
    return make


def conv_block_case(rng):
    x, g, be, w, b, tb = leaves(rng, (2, 24, 24, 16), (16,), (16,), (16, 16, 3, 3), (16,),
                                (2, 1, 1, 16))
    return lambda: T.conv_block(x, g, be, w, b, tb), [x, g, be, w, b, tb]


CASES = {
    "conv2d-stem-K1": conv2d_case((1, 40, 40, 1), 32, 3, 1, 1),
    "conv2d-3x3": conv2d_case((2, 24, 24, 16), 32, 3, 1, 1),
    "conv2d-1x1": conv2d_case((1, 48, 48, 16), 8, 1, 0, 1),
    # a 66x66 phase grid, 4,289 rows: two tap-sum blocks of 4,096
    "conv2d-stride-2-phase": conv2d_case((1, 130, 130, 16), 16, 3, 1, 2),
    "conv-block": conv_block_case,
}


def forward_and_grads(make):
    op, inputs = make(np.random.default_rng(0))
    with T.no_grad():
        plain = op().data
    out = op()
    target = np.random.default_rng(1).standard_normal(out.shape)
    return [plain, out.data] + T.backward(T.mse_loss(out, T.Tensor(target)), inputs)


@needs_binding
@pytest.mark.parametrize("name", list(CASES))
def test_ops_and_gradients_match_the_numpy_fallback_bitwise(name, dgemm_calls, monkeypatch):
    through_blas = forward_and_grads(CASES[name])
    assert dgemm_calls                       # the forward or the input gradient used it
    monkeypatch.setattr(T, "_DGEMM", None)   # as where no OpenBLAS is found
    fallback = forward_and_grads(CASES[name])
    for a, b in zip(through_blas, fallback):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
