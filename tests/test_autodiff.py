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
        backward(T.mul(x, x).sum())
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_mse_at_minimum(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        backward(T.mse_loss(x, Tensor(x.data.copy())))
        assert np.array_equal(x.grad, np.zeros(3))

    def test_relu_subgradient_zero_at_negative(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        backward(T.relu(x).sum())
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_relu_derivative_at_exact_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(T.relu(x).sum())
        assert x.grad[0] == 0.0

    def test_nonscalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.mul(x, x))

    def test_graph_is_single_use(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.mul(x, x).sum()
        backward(loss)
        with pytest.raises(GraphConsumedError):
            backward(loss)

    def test_shared_subgraph_consumed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        backward(y.sum())
        with pytest.raises(GraphConsumedError):
            backward(y.sum())

    def test_unreachable_leaves_get_zero(self):
        store = ParamStore(None)
        a = store.add("a", np.ones(3))
        store.add("b", np.ones(2))  # never used in the graph
        grads = backward(T.mul(a, a).sum(), store)
        assert set(grads) == {"a", "b"}
        assert np.array_equal(grads["b"], np.zeros(2))
        assert np.array_equal(store["b"].grad, np.zeros(2))

    def test_leaf_used_twice_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        backward(T.add(T.mul(x, x), x).sum())  # d/dx (x^2 + x) = 2x + 1
        assert np.allclose(x.grad, [5.0])

    def test_grad_reset_between_passes(self):
        x = Tensor([3.0], requires_grad=True)
        backward(T.mul(x, x).sum())
        first = x.grad.copy()
        backward(T.mul(x, x).sum())
        assert np.array_equal(x.grad, first)


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
        backward(fn(x))
        return x.grad

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
        backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_broadcast_add_gradient():
    bias = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x = Tensor(np.ones((3, 2, 4, 4)))
    backward(T.add(x, bias.reshape((1, 2, 1, 1))).sum())
    assert np.array_equal(bias.grad, [48.0, 48.0])
