import numpy as np
import pytest

from dosediff import tensor as T
from dosediff.gradcheck import finite_diff_check
from dosediff.optim import ParamStore
from dosediff.tensor import GraphConsumedError, OP_NAMES, ShapeError, Tensor, backward

from op_points import op_point

GRAD_TOL = 1e-4


class TestBackwardExamples:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        gx, = backward(T.mul(x, x).sum(), [x])
        assert np.array_equal(gx, [2.0, 4.0, 6.0])

    def test_mse_at_minimum(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        gx, = backward(T.mse_loss(x, Tensor(x.data.copy())), [x])
        assert np.array_equal(gx, np.zeros(3))

    def test_relu_subgradient_zero_at_negative(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        gx, = backward(T.relu(x).sum(), [x])
        assert np.array_equal(gx, [0.0, 1.0])

    def test_relu_derivative_at_exact_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        gx, = backward(T.relu(x).sum(), [x])
        assert gx[0] == 0.0

    def test_nonscalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.mul(x, x), [x])

    def test_graph_is_single_use(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.mul(x, x).sum()
        backward(loss, [x])
        with pytest.raises(GraphConsumedError):
            backward(loss, [x])

    def test_shared_subgraph_consumed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        backward(y.sum(), [x])
        with pytest.raises(GraphConsumedError):
            backward(y.sum(), [x])

    def test_unreachable_leaves_get_zero(self):
        store = ParamStore(None)
        a = store.add("a", np.ones(3))
        store.add("b", np.ones(2))  # never used in the graph
        grads = backward(T.mul(a, a).sum(), store.tensors())
        assert len(grads) == 2
        assert np.array_equal(grads[0], [2.0, 2.0, 2.0])
        assert np.array_equal(grads[1], np.zeros(2))

    def test_leaf_used_twice_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        gx, = backward(T.add(T.mul(x, x), x).sum(), [x])  # d/dx (x^2 + x) = 2x + 1
        assert np.allclose(gx, [5.0])

    def test_grad_reset_between_passes(self):
        x = Tensor([3.0], requires_grad=True)
        first, = backward(T.mul(x, x).sum(), [x])
        second, = backward(T.mul(x, x).sum(), [x])
        assert np.array_equal(second, first)

    def test_leaf_missed_by_a_later_pass_gets_zero(self):
        x = Tensor([3.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        _, gy = backward(T.mul(x, y).sum(), [x, y])
        assert np.array_equal(gy, [3.0])
        gx, gy = backward(T.mul(x, x).sum(), [x, y])
        assert np.array_equal(gx, [6.0])
        assert np.array_equal(gy, [0.0])

    def test_leaves_keep_the_order_given(self):
        x = Tensor([3.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        gy, gx = backward(T.mul(x, y).sum(), [y, x])
        assert np.array_equal(gy, [3.0]) and np.array_equal(gx, [5.0])


@pytest.mark.parametrize("kind", OP_NAMES)
def test_gradcheck_every_catalog_op(kind):
    """Analytic gradients match central differences at 5 seeded points."""
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        inputs, attrs = op_point(kind, rng)
        err = finite_diff_check(kind, inputs, attrs, projection_seed=seed)
        assert err < GRAD_TOL, f"{kind} seed {seed}: rel err {err}"


def test_gradcheck_strided_conv():
    rng = np.random.default_rng(5)
    err = finite_diff_check(
        "conv2d", [rng.standard_normal((1, 8, 8, 2)), rng.standard_normal((3, 2, 3, 3))],
        {"b": None, "stride": 2, "padding": 1})
    assert err < GRAD_TOL


def test_backward_linearity():
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) within 1e-10."""
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(6)
    a, b = 1.7, -0.4

    def grad_of(fn):
        x = Tensor(x0.copy(), requires_grad=True)
        return backward(fn(x), [x])[0]

    f = lambda x: T.mul(x, x).sum()
    g = lambda x: T.gelu(x).sum()
    combined = lambda x: T.add(T.smul(f(x), a), T.smul(g(x), b))
    assert np.allclose(grad_of(combined), a * grad_of(f) + b * grad_of(g), atol=1e-10)


def test_backward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        loss = T.mse_loss(T.softmax(T.matmul(x, w), axis=-1),
                          Tensor(rng.standard_normal((4, 4))))
        return backward(loss, [x, w])

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_broadcast_add_gradient():
    bias = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x = Tensor(np.ones((3, 2, 4, 4)))
    gb, = backward(T.add(x, bias.reshape((1, 2, 1, 1))).sum(), [bias])
    assert np.array_equal(gb, [48.0, 48.0])


@pytest.mark.parametrize("kind", OP_NAMES)
def test_op_node_kind_is_its_catalog_name(kind):
    """One name per op: the node an op records is named as in the catalog."""
    inputs, attrs = op_point(kind, np.random.default_rng(7))
    out = T.forward_op(kind, [Tensor(a, requires_grad=True) for a in inputs], attrs)
    assert out.node.kind == kind


@pytest.mark.parametrize("kind", OP_NAMES)
def test_op_backward_leaves_its_gradient_unwritten(kind):
    """``backward`` hands leaves their gradients without a copy, so a
    returned gradient may share memory with another; that holds only while
    no op's backward writes into the gradient it receives."""
    inputs, attrs = op_point(kind, np.random.default_rng(7))
    out = T.forward_op(kind, [Tensor(a, requires_grad=True) for a in inputs], attrs)
    g = np.random.default_rng(8).standard_normal(out.shape)
    g.flags.writeable = False
    out.node.bwd(g)
