import numpy as np
import pytest

from dosediff import tensor as T
from dosediff.tensor import (GraphConsumedError, ShapeError, Tensor,
                             UnknownOpError, backward, forward_op, no_grad)


def t(x):
    return Tensor(np.asarray(x, dtype=np.float64))


class TestForwardExamples:
    def test_add(self):
        assert np.array_equal(forward_op("add", [t([1, 2]), t([3, 4])]).data, [4, 6])

    def test_softmax_uniform(self):
        out = forward_op("softmax", [t([0.0, 0, 0, 0])], {"axis": 0})
        assert np.allclose(out.data, 0.25, atol=0)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        out = forward_op("matmul", [t(np.eye(3)), t(a)])
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
        assert forward_op("mse-loss", [t([1.0, 2]), t([1.0, 4])]).item() == 2.0

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
        out = T.conv2d(x, w, stride=1, padding=0)
        assert np.array_equal(out.data, 2.0 * x.data)

    def test_conv2d_matches_direct_sum(self):
        # per-output-pixel sum over the zero-padded window, strided and padded
        rng = np.random.default_rng(3)
        x, w = rng.standard_normal((2, 5, 6, 3)), rng.standard_normal((4, 3, 3, 2))
        out = T.conv2d(t(x), t(w), stride=2, padding=1).data
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
    backward(T.mul(out, t(proj)).sum())
    return [out.data] + [leaf.grad for leaf in leaves]


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
            lambda x, w, b: T.add(T.conv2d(x, w, stride=stride, padding=padding), b), arrays)
        for got, want in zip(fused, split):
            assert np.array_equal(got, want)


# table: (kind, input shapes, attrs, expected output shape)
SHAPE_TABLE = [
    ("add", [(3, 4), (3, 4)], {}, (3, 4)),
    ("add", [(2, 3, 1, 1), (2, 3, 4, 4)], {}, (2, 3, 4, 4)),
    ("linear", [(2, 1, 1, 6), (6, 4), (4,)], {}, (2, 1, 1, 4)),
    ("elementwise-mul", [(2, 2), (2, 2)], {}, (2, 2)),
    ("scalar-mul", [(7,)], {"value": 3.0}, (7,)),
    ("matmul", [(3, 4), (4, 5)], {}, (3, 5)),
    ("matmul", [(2, 6, 3, 4), (2, 6, 4, 5)], {}, (2, 6, 3, 5)),
    ("conv2d", [(2, 8, 8, 3), (5, 3, 3, 3)], {"stride": 1, "padding": 1}, (2, 8, 8, 5)),
    ("conv2d", [(1, 8, 8, 2), (4, 2, 3, 3)], {"stride": 2, "padding": 1}, (1, 4, 4, 4)),
    ("conv2d", [(1, 1, 1, 2), (4, 2, 3, 3)], {"stride": 2, "padding": 1}, (1, 1, 1, 4)),
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
            forward_op("no-such-op", [t([1.0])])

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(t(np.ones((3, 4))), t(np.ones((3, 4))))
        with pytest.raises(ShapeError, match="add"):
            T.add(t(np.ones((2, 3))), t(np.ones((4, 5))))
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(t(np.ones((1, 4, 4, 3))), t(np.ones((2, 5, 3, 3))))
        with pytest.raises(ShapeError, match="conv2d"):
            T.conv2d(t(np.ones((1, 4, 4, 3))), t(np.ones((2, 3, 3, 3))), t(np.ones(3)))
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
        backward(y)
