import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from dosediff import tensor as T
from dosediff.tensor import (GraphConsumedError, ShapeError, Tensor,
                             UnknownOpError, backward, forward_op, no_grad)


def t(x):
    return Tensor(np.asarray(x, dtype=np.float64))


class TestForwardExamples:
    def test_add(self):
        assert np.array_equal(forward_op("add", [t([1, 2]), t([3, 4])], {}).data, [4, 6])

    def test_softmax_uniform(self):
        out = forward_op("softmax", [t([0.0, 0, 0, 0])], {"axis": 0})
        assert np.allclose(out.data, 0.25, atol=0)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        out = forward_op("matmul", [t(np.eye(3)), t(a)], {})
        assert np.allclose(out.data, a)

    def test_relu_gelu_values(self):
        assert np.array_equal(T.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
        # exact Gaussian-CDF form: gelu(0) = 0, gelu(x) -> x for large x
        g = T.gelu(t([0.0, 10.0])).data
        assert g[0] == 0.0
        assert abs(g[1] - 10.0) < 1e-12

    def test_concat_slice_roll(self):
        c = T.concat([t([[1.0, 2]]), t([[3.0, 4]])], axis=0)
        assert c.shape == (2, 2)
        r = T.roll(c, (1,), (0,))
        assert np.array_equal(r.data, [[3, 4], [1, 2]])

    def test_mse(self):
        assert forward_op("mse-loss", [t([1.0, 2]), t([1.0, 4])], {}).item() == 2.0

    def test_upsample_nearest(self):
        x = t(np.arange(4.0).reshape(1, 2, 2, 1))
        u = T.upsample2(x)
        assert u.shape == (1, 4, 4, 1)
        # each source pixel becomes a constant 2x2 block
        assert np.array_equal(u.data[0, :2, :2, 0], np.zeros((2, 2)))
        assert np.array_equal(u.data[0, 2:, 2:, 0], np.full((2, 2), 3.0))

    def test_conv2d_known(self):
        # 1x1 kernel of value 2 is elementwise doubling
        x = t(np.arange(9.0).reshape(1, 3, 3, 1))
        w = t(np.full((1, 1, 1, 1), 2.0))
        out = T.conv2d(x, w, None, stride=1, padding=0)
        assert np.array_equal(out.data, 2.0 * x.data)

    def test_conv2d_matches_direct_sum(self):
        # per-output-pixel sum over the zero-padded window, strided and padded
        rng = np.random.default_rng(3)
        x, w = rng.standard_normal((2, 5, 6, 3)), rng.standard_normal((4, 3, 3, 2))
        out = T.conv2d(t(x), t(w), None, stride=2, padding=1).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        ref = np.zeros((2, 3, 4, 4))
        for i in range(3):
            for j in range(4):
                patch = xp[:, 2 * i:2 * i + 3, 2 * j:2 * j + 2]      # [B, kh, kw, Cin]
                ref[:, i, j] = (patch[:, None] * w.transpose(0, 2, 3, 1)).sum(axis=(2, 3, 4))
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)


def _value_and_grads(fn, arrays):
    """Output of fn on fresh leaves, and every leaf's gradient of a fixed
    random projection of that output."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    proj = np.random.default_rng(0).standard_normal(out.shape)
    return [out.data] + backward(T.mul(out, t(proj)).sum(), leaves)


class TestFoldedBiasParity:
    """One-node affine ops are bitwise the product followed by a bias add."""

    @pytest.mark.parametrize("x_shape,c_out", [((3, 1, 1, 8), 6), ((2, 4, 4, 5), 20)])
    def test_linear_matches_matmul_add(self, x_shape, c_out):
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal((x_shape[-1], c_out)),
                  rng.standard_normal(c_out)]
        fused = _value_and_grads(T.linear, arrays)
        split = _value_and_grads(lambda x, w, b: T.add(T.matmul(x, w), b), arrays)
        for got, want in zip(fused, split):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((2, 8, 8, 4), (6, 4, 3, 3), 1, 1),
        ((2, 8, 8, 4), (6, 4, 3, 3), 2, 1),
        ((2, 8, 8, 8), (4, 8, 1, 1), 1, 0),
    ])
    def test_biased_conv2d_matches_conv2d_add(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape),
                  rng.standard_normal(w_shape[0])]
        fused = _value_and_grads(lambda x, w, b: T.conv2d(x, w, b, stride, padding), arrays)
        split = _value_and_grads(
            lambda x, w, b: T.add(T.conv2d(x, w, None, stride=stride, padding=padding), b), arrays)
        for got, want in zip(fused, split):
            assert np.array_equal(got, want)


def reference_conv2d(x, w, b=None, stride=1, padding=0):
    """The strided per-tap loop that ``conv2d``'s stride-1 path replaced,
    kept verbatim as the reference its flat-buffer tap sum must match."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D x and w, got {x.shape}, {w.shape}")
    if x.shape[3] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch, x has {x.shape[3]}, w expects {w.shape[1]}")
    B, H, W, Cin = x.shape
    Cout, _, kh, kw = w.shape
    if b is not None:
        T._check_bias("conv2d", b, Cout)
    s, p = int(stride), int(padding)
    Ho, Wo = T._conv_out_side(H, kh, s, p), T._conv_out_side(W, kw, s, p)
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: output would be empty for x {x.shape}, kernel {w.shape}, "
                         f"stride {s}, padding {p}")
    if p:
        xp = np.zeros((B, H + 2 * p, W + 2 * p, Cin))
        xp[:, p:p + H, p:p + W] = x.data
    else:
        xp = x.data
    wd = w.data
    # tap (ki, kj) reads the [B, Ho, Wo, Cin] strided view of the padded input
    taps = [(ki, kj, (slice(None), slice(ki, ki + s * Ho, s), slice(kj, kj + s * Wo, s)))
            for ki in range(kh) for kj in range(kw)]
    out = np.zeros((B * Ho * Wo, Cout))
    for ki, kj, tap in taps:
        out += xp[tap].reshape(-1, Cin) @ wd[:, :, ki, kj].T
    if b is not None:
        out += b.data

    def bwd(g):
        g2 = g.reshape(-1, Cout)
        gw = np.empty_like(wd)
        gxp = np.zeros_like(xp)
        for ki, kj, tap in taps:
            gw[:, :, ki, kj] = g2.T @ xp[tap].reshape(-1, Cin)
            gxp[tap] += (g2 @ wd[:, :, ki, kj]).reshape(B, Ho, Wo, Cin)
        gx = gxp[:, p:p + H, p:p + W] if p else gxp
        if b is None:
            return gx, gw
        return gx, gw, T._unbroadcast(g, b.shape)

    parents = (x, w) if b is None else (x, w, b)
    return T._make("conv2d", out.reshape(B, Ho, Wo, Cout), parents, bwd)


def _assert_close(got, want, rtol):
    """|got - want| <= rtol * max|want| elementwise, the scale set by the
    largest entry so that entries near zero are not held to a tighter bound."""
    assert got.shape == want.shape
    scale = float(np.abs(want).max()) or 1.0
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * scale)


class TestConv2dParity:
    """The stride-1 flat-buffer conv against the per-tap loop it replaced:
    the forward within 1e-13 and every gradient within 1e-12 (the tap sums
    can take a different GEMM size, and the weight gradient's sum runs
    over the zeros of the padded grid's junk positions too)."""

    @pytest.mark.parametrize("x_shape,w_shape,padding,biased", [
        ((1, 8, 8, 3), (5, 3, 3, 3), 1, True),       # B = 1
        ((3, 5, 7, 4), (6, 4, 3, 3), 1, True),       # B = 3, non-square map
        ((2, 6, 9, 3), (4, 3, 3, 3), 0, False),      # 3x3 without padding
        ((2, 6, 6, 8), (4, 8, 1, 1), 0, True),       # 1x1 merge conv
        ((2, 8, 8, 4), (1, 4, 3, 3), 1, True),       # Cout = 1, the head
        ((2, 8, 8, 1), (4, 1, 3, 3), 1, True),       # Cin = 1, the stem
        ((1, 6, 5, 2), (3, 2, 3, 3), 2, False),      # padding wider than the kernel reach
        # 256 channels make 256-row blocks: 2*22*22 padded rows span four
        # blocks forward and backward
        ((2, 20, 20, 16), (256, 16, 3, 3), 1, True),
        ((2, 20, 20, 256), (16, 256, 3, 3), 1, False),
    ])
    def test_matches_reference_loop(self, x_shape, w_shape, padding, biased):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(x_shape), rng.standard_normal(w_shape)]
        if biased:
            arrays.append(rng.standard_normal(w_shape[0]))
        got = _value_and_grads(lambda x, w, b=None: T.conv2d(x, w, b, stride=1, padding=padding),
                               arrays)
        want = _value_and_grads(lambda *a: reference_conv2d(*a, stride=1, padding=padding),
                                arrays)
        _assert_close(got[0], want[0], 1e-13)
        for g, w in zip(got[1:], want[1:]):
            _assert_close(g, w, 1e-12)

    def test_strided_path_is_the_reference_loop(self):
        rng = np.random.default_rng(6)
        arrays = [rng.standard_normal((2, 9, 8, 3)), rng.standard_normal((4, 3, 3, 3)),
                  rng.standard_normal(4)]
        got = _value_and_grads(lambda *a: T.conv2d(*a, stride=2, padding=1), arrays)
        want = _value_and_grads(lambda *a: reference_conv2d(*a, stride=2, padding=1), arrays)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_layer_norm_forward_is_the_composed_formula_bitwise():
    rng = np.random.default_rng(7)
    x, gamma, beta = rng.standard_normal((2, 5, 6, 8)), rng.standard_normal(8), rng.standard_normal(8)
    avg = np.full(8, 1.0 / 8)
    xc = x - (x @ avg)[..., None]
    xhat = xc * (1.0 / np.sqrt(((xc * xc) @ avg)[..., None] + 1e-5))
    want = xhat * gamma + beta
    assert np.array_equal(T.layer_norm(t(x), t(gamma), t(beta)).data, want)


def test_layer_norm_blocks_are_the_composed_formula_bitwise():
    """Forward and gradients of a map that spans several blocks: 40x32 rows
    make 51-matrix blocks, so 2*60 matrices span three, the last one
    partial."""
    rng = np.random.default_rng(8)
    x, gamma, beta = rng.standard_normal((2, 60, 40, 32)), rng.standard_normal(32), rng.standard_normal(32)
    avg = np.full(32, 1.0 / 32)
    xc = x - (x @ avg)[..., None]
    inv = 1.0 / np.sqrt(((xc * xc) @ avg)[..., None] + 1e-5)
    xhat = xc * inv
    want = xhat * gamma + beta
    out, gx, g_gamma, g_beta = _value_and_grads(T.layer_norm, [x, gamma, beta])
    g = np.random.default_rng(0).standard_normal(want.shape)   # the projection taken
    gx_hat = g * gamma
    assert np.array_equal(out, want)
    assert np.array_equal(gx, inv * (gx_hat - (gx_hat @ avg)[..., None]
                                     - xhat * ((gx_hat * xhat) @ avg)[..., None]))
    assert np.array_equal(g_gamma, (g * xhat).sum(axis=(0, 1, 2)))
    assert np.array_equal(g_beta, g.sum(axis=(0, 1, 2)))
    with no_grad():
        assert np.array_equal(T.layer_norm(t(x), t(gamma), t(beta)).data, want)


def composed_conv_block(x, gamma, beta, w, b, t_bias=None):
    """The chain of catalog ops that ``conv_block`` fuses."""
    y = T.conv2d(T.relu(T.layer_norm(x, gamma, beta)), w, b, stride=1, padding=1)
    if t_bias is not None:
        y = T.add(y, t_bias)
    return T.add(x, y)


class TestConvBlockParity:
    """The fused pre-norm conv residual block is bitwise the composed
    chain: forward and the gradients of x, gamma, beta, w, b and t_bias."""

    @pytest.mark.parametrize("x_shape,time_bias", [
        ((1, 8, 8, 4), True),        # B = 1
        ((3, 8, 8, 4), False),       # B = 3, no time bias
        ((3, 5, 7, 6), True),        # non-square map
        # 40x32 image rows make 51-row layer-norm blocks, so 72 rows span
        # two blocks with a partial last one; the tap sum spans several too
        ((1, 72, 40, 32), True),
    ])
    def test_matches_composed_chain(self, x_shape, time_bias):
        rng = np.random.default_rng(9)
        c = x_shape[-1]
        arrays = [rng.standard_normal(x_shape), 1.0 + 0.1 * rng.standard_normal(c),
                  0.1 * rng.standard_normal(c), rng.standard_normal((c, c, 3, 3)) / (3 * c ** 0.5),
                  rng.standard_normal(c)]
        if time_bias:
            arrays.append(rng.standard_normal((x_shape[0], 1, 1, c)))
        no_t = [] if time_bias else [None]   # conv_block's t_bias when there is none
        fused = _value_and_grads(lambda *a: T.conv_block(*a, *no_t), arrays)
        split = _value_and_grads(composed_conv_block, arrays)
        for got, want in zip(fused, split):
            assert np.array_equal(got, want)
        with no_grad():
            out = T.conv_block(*[t(a) for a in arrays], *no_t)
        assert np.array_equal(out.data, split[0])

    def test_single_graph_node(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((1, 4, 4, 2)), requires_grad=True)
        out = T.conv_block(x, t(np.ones(2)), t(np.zeros(2)), t(rng.standard_normal((2, 2, 3, 3))),
                           t(np.zeros(2)), None)
        assert out.node.kind == "conv-block"
        assert out.node.parents[0] is x

    @pytest.mark.parametrize("x_shape,w_shape,t_shape", [
        ((4, 4, 2), (2, 2, 3, 3), None),            # not a 4-D map
        ((1, 4, 4, 2), (3, 2, 3, 3), None),         # Cout != C
        ((1, 4, 4, 2), (2, 2, 1, 1), None),         # not 3x3
        ((1, 4, 4, 2), (2, 2, 3, 3), (2, 1, 1, 2)),  # time bias of another batch
        ((1, 4, 4, 2), (2, 2, 3, 3), (1, 1, 1, 3)),  # time bias of other channels
    ])
    def test_bad_shapes_rejected(self, x_shape, w_shape, t_shape):
        c = x_shape[-1]
        args = [t(np.ones(x_shape)), t(np.ones(c)), t(np.zeros(c)), t(np.ones(w_shape)),
                t(np.zeros(c))]
        args.append(None if t_shape is None else t(np.ones(t_shape)))
        with pytest.raises(ShapeError, match="conv-block"):
            T.conv_block(*args)


def composed_swin_block(x, ln1_g, ln1_b, wq, wk, wv, wo, t_bias, ln2_g, ln2_b, w1, b1, w2, b2,
                        heads, window, shift):
    """The chain of catalog ops that ``swin_block`` fuses."""
    x = T.add(x, T.window_attention(T.layer_norm(x, ln1_g, ln1_b), wq, wk, wv, wo,
                                    heads, window, shift))
    if t_bias is not None:
        x = T.add(x, t_bias)
    y = T.linear(T.relu(T.linear(T.layer_norm(x, ln2_g, ln2_b), w1, b1)), w2, b2)
    return T.add(x, y)


def swin_arrays(rng, x_shape, time_bias, hidden):
    c = x_shape[-1]
    n = rng.standard_normal
    return [n(x_shape), 1.0 + 0.1 * n(c), 0.1 * n(c), *(0.5 * n((c, c)) for _ in range(4)),
            n((x_shape[0], 1, 1, c)) if time_bias else None, 1.0 + 0.1 * n(c), 0.1 * n(c),
            n((c, hidden)) / c ** 0.5, 0.1 * n(hidden), n((hidden, c)) / hidden ** 0.5,
            0.1 * n(c)]


class TestSwinBlockParity:
    """The fused Swin block is bitwise the composed chain: forward and the
    gradients of x, both layer norms, the attention and MLP weights and
    biases, and t_bias."""

    @pytest.mark.parametrize("x_shape,heads,window,shift,time_bias", [
        ((1, 4, 4, 4), 2, 2, 0, True),       # B = 1, unshifted
        ((3, 8, 8, 8), 2, 4, 2, False),      # B = 3, shifted, no time bias
        ((2, 6, 4, 6), 3, 2, 1, True),       # non-square map, three heads
        # 64 image rows of 32 x 64 make two 32-row layer-norm blocks, and
        # the attention scores make eight blocks of four windows
        ((2, 32, 32, 64), 4, 8, 4, True),
    ])
    def test_matches_composed_chain(self, x_shape, heads, window, shift, time_bias):
        rng = np.random.default_rng(11)
        arrays = swin_arrays(rng, x_shape, time_bias, 2 * x_shape[-1])
        tensors = [a for a in arrays if a is not None]

        def with_t(fn):
            def call(*ts):
                args = list(ts)
                if not time_bias:
                    args.insert(7, None)
                return fn(*args, heads, window, shift)
            return call

        fused = _value_and_grads(with_t(T.swin_block), tensors)
        split = _value_and_grads(with_t(composed_swin_block), tensors)
        for got, want in zip(fused, split):
            assert np.array_equal(got, want)
        with no_grad():
            out = with_t(T.swin_block)(*[t(a) for a in tensors])
        assert np.array_equal(out.data, split[0])

    def test_single_graph_node(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        args = [t(a) if a is not None else None for a in swin_arrays(rng, x.shape, True, 8)[1:]]
        out = T.swin_block(x, *args, 2, 2, 1)
        assert out.node.kind == "swin-block"
        assert out.node.parents[:2] == (x, x)

    @pytest.mark.parametrize("field,shape", [
        (0, (4, 4, 4)),           # not a 4-D map
        (1, (3,)),                # ln1 gamma of other channels
        (6, (4, 3)),              # wo projects to other channels
        (7, (2, 1, 1, 4)),        # time bias of another batch
        (10, (3, 8)),             # w1 of other channels
        (11, (7,)),               # b1 of another width
    ])
    def test_bad_shapes_rejected(self, field, shape):
        arrays = swin_arrays(np.random.default_rng(13), (1, 4, 4, 4), True, 8)
        arrays[field] = np.ones(shape)
        with pytest.raises(ShapeError, match="swin-block|window-attention"):
            T.swin_block(*[t(a) for a in arrays], 2, 2, 0)


# table: (kind, input shapes, attrs, expected output shape)
SHAPE_TABLE = [
    ("add", [(3, 4), (3, 4)], {}, (3, 4)),
    ("add", [(2, 3, 1, 1), (2, 3, 4, 4)], {}, (2, 3, 4, 4)),
    ("linear", [(2, 1, 1, 6), (6, 4), (4,)], {}, (2, 1, 1, 4)),
    ("elementwise-mul", [(2, 2), (2, 2)], {}, (2, 2)),
    ("scalar-mul", [(7,)], {"value": 3.0}, (7,)),
    ("matmul", [(3, 4), (4, 5)], {}, (3, 5)),
    ("matmul", [(2, 6, 3, 4), (2, 6, 4, 5)], {}, (2, 6, 3, 5)),
    ("conv2d", [(2, 8, 8, 3), (5, 3, 3, 3)], {"b": None, "stride": 1, "padding": 1}, (2, 8, 8, 5)),
    ("conv2d", [(1, 8, 8, 2), (4, 2, 3, 3)], {"b": None, "stride": 2, "padding": 1}, (1, 4, 4, 4)),
    ("conv2d", [(1, 1, 1, 2), (4, 2, 3, 3)], {"b": None, "stride": 2, "padding": 1}, (1, 1, 1, 4)),
    ("upsample-nearest2", [(1, 4, 4, 3)], {}, (1, 8, 8, 3)),
    ("reshape", [(3, 4)], {"shape": (2, 6)}, (2, 6)),
    ("permute", [(2, 3, 4)], {"axes": (2, 0, 1)}, (4, 2, 3)),
    ("concat", [(2, 3), (2, 5)], {"axis": 1}, (2, 8)),
    ("conv2d", [(2, 8, 8, 3), (5, 3, 1, 1), (5,)], {"stride": 2, "padding": 0}, (2, 4, 4, 5)),
    ("roll", [(4, 6)], {"shifts": (1, 2), "axes": (0, 1)}, (4, 6)),
    ("softmax", [(3, 5)], {"axis": -1}, (3, 5)),
    ("relu", [(2, 2)], {}, (2, 2)),
    ("gelu", [(9,)], {}, (9,)),
    ("layer-norm", [(4, 6), (6,), (6,)], {}, (4, 6)),
    ("linear", [(2, 4, 4, 3), (3, 7), (7,)], {}, (2, 4, 4, 7)),
    ("sum", [(3, 4)], {"axis": None}, ()),
    ("sum", [(3, 4)], {"axis": 0}, (4,)),
    ("mse-loss", [(3, 4), (3, 4)], {}, ()),
    ("conv-block", [(2, 5, 4, 3), (3,), (3,), (3, 3, 3, 3), (3,), (2, 1, 1, 3)], {}, (2, 5, 4, 3)),
    ("swin-block", [(2, 4, 4, 3), (3,), (3,), (3, 4), (3, 4), (3, 4), (4, 3), (2, 1, 1, 3), (3,),
                    (3,), (3, 6), (6,), (6, 3), (3,)], {"heads": 2, "window": 2, "shift": 1},
     (2, 4, 4, 3)),
]


@pytest.mark.parametrize("kind,shapes,attrs,expected", SHAPE_TABLE)
def test_output_shape_is_pure_function_of_input_shapes(kind, shapes, attrs, expected):
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        inputs = [t(rng.standard_normal(s)) for s in shapes]
        assert forward_op(kind, inputs, attrs).shape == expected


class TestErrors:
    def test_unknown_op(self):
        with pytest.raises(UnknownOpError, match="no-such-op"):
            forward_op("no-such-op", [t([1.0])], {})

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(t(np.ones((3, 4))), t(np.ones((3, 4))))
        with pytest.raises(ShapeError, match="add"):
            T.add(t(np.ones((2, 3))), t(np.ones((4, 5))))
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(t(np.ones((1, 4, 4, 3))), t(np.ones((2, 5, 3, 3))), None, 1, 0)
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(t(np.ones((1, 4, 4, 3))), t(np.ones((2, 3, 3, 3))), t(np.ones(3)), 1, 0)
        with pytest.raises(ShapeError, match="linear"):
            T.linear(t(np.ones((2, 4))), t(np.ones((3, 5))), t(np.ones(5)))
        with pytest.raises(ShapeError, match="linear"):
            T.linear(t(np.ones((2, 4))), t(np.ones((4, 5))), t(np.ones(4)))
        with pytest.raises(ShapeError):
            T.mse_loss(t(np.ones(3)), t(np.ones(4)))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            t(np.ones((3, 4))).reshape((5, 5))

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError, match="concat"):
            T.concat([t(np.ones((2, 3))), t(np.ones((4, 3)))], axis=1)

    def test_layer_norm_param_shape(self):
        with pytest.raises(ShapeError, match="layer-norm"):
            T.layer_norm(t(np.ones((2, 6))), t(np.ones(5)), t(np.zeros(6)))


def test_forward_determinism_bitwise():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = t(rng.standard_normal((4, 4)))
        w = t(rng.standard_normal((4, 4)))
        y = T.softmax(T.matmul(x, w), axis=-1)
        return T.gelu(y).data

    assert np.array_equal(run(11), run(11))


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x).sum()
    assert y.node is None
    with pytest.raises(GraphConsumedError):
        backward(y, [x])


# ---------------------------------------------------------------------------
# the numpy erf behind gelu, with SciPy's Cephes erf as the oracle

ERF_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
             6.0, -6.0, 8.0, -8.0, 27.0, -27.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1e300, -1e300, np.inf, -np.inf]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def scipy_gelu(x, g):
    """gelu's forward and backward formulas with SciPy's erf."""
    phi = 0.5 * (1.0 + sp_special.erf(x * T._INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * T._INV_SQRT_2PI
    return x * phi, g * (phi + x * pdf)


def test_erf_edges_bitwise():
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(T._erf(np.array(ERF_EDGES)), sp_special.erf(np.array(ERF_EDGES)))
    assert np.isnan(T._erf(np.array([np.nan, 0.5]))[0])
    assert _same_bits(T._erf(np.array(2.0)), sp_special.erf(2.0))


@pytest.mark.parametrize("scale", [0.3, 1.0, 2.0, 5.0, 20.0])
def test_erf_random_draws_bitwise(scale):
    x = np.random.default_rng(int(scale * 10)).standard_normal((400, 500)) * scale
    assert _same_bits(T._erf(x), sp_special.erf(x))


@given(st.lists(st.one_of(st.floats(-40.0, 40.0), st.floats(allow_nan=False)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_erf_hypothesis_bitwise(values):
    x = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(T._erf(x), sp_special.erf(x))


@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40), st.integers(0, 2 ** 31))
@settings(max_examples=200, deadline=None)
def test_gelu_forward_and_backward_bitwise(values, seed):
    x = np.array(values + [v for v in ERF_EDGES if abs(v) < 1e3])
    g = np.random.default_rng(seed).standard_normal(x.shape)
    y = T.gelu(Tensor(x, requires_grad=True))
    (gx,) = y.node.bwd(g)
    want_y, want_gx = scipy_gelu(x, g)
    assert _same_bits(y.data, want_y) and _same_bits(gx, want_gx)
