import numpy as np
import pytest

from dosediff.optim import ParamStore, adam_step, trunc_normal
from dosediff.tensor import ShapeError


def make_store():
    store = ParamStore(None)
    store.add("w", np.array([1.0, 2.0]))
    store.add("b", np.array([0.5]))
    return store


def test_zero_gradient_leaves_parameters_unchanged():
    store = make_store()
    adam_step(store, [np.zeros(2), np.zeros(1)], lr=0.1, betas=(0.9, 0.999))
    assert np.array_equal(store["w"].data, [1.0, 2.0])
    assert np.array_equal(store["b"].data, [0.5])


def test_single_step_matches_hand_derived_update():
    # step 1 with g=1: m_hat = v_hat = 1, so p <- p - lr / (1 + eps)
    store = ParamStore(None)
    store.add("p", np.array([1.0]))
    adam_step(store, [np.array([1.0])], lr=0.1, betas=(0.9, 0.999))
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert abs(store["p"].data[0] - expected) < 1e-15
    assert abs(store["p"].data[0] - 0.9) < 1e-8


def test_two_identical_runs_bit_identical():
    def run():
        store = make_store()
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = [rng.standard_normal(2), rng.standard_normal(1)]
            adam_step(store, g, lr=0.05, betas=(0.9, 0.999))
        return store["w"].data.copy(), store["b"].data.copy()

    w1, b1 = run()
    w2, b2 = run()
    assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def store_state(store):
    """The bytes of every parameter and moment, and the step count."""
    return ([(n, p.data.tobytes(), store.m[n].tobytes(), store.v[n].tobytes())
             for n, p in store.items()], store.step)


def stepped_store():
    store = make_store()
    adam_step(store, [np.array([0.3, -0.2]), np.array([0.1])], lr=0.1, betas=(0.9, 0.999))
    return store


@pytest.mark.parametrize("grads", [[np.ones(2)], [np.ones(2), np.ones(1), np.ones(1)]],
                         ids=["one-short", "one-too-many"])
def test_a_wrong_gradient_count_changes_nothing(grads):
    store = stepped_store()
    before = store_state(store)
    with pytest.raises(ShapeError, match="gradients for 2 parameters"):
        adam_step(store, grads, lr=0.1, betas=(0.9, 0.999))
    assert store_state(store) == before


def test_shape_mismatch_rejected():
    store = stepped_store()
    before = store_state(store)
    with pytest.raises(ShapeError):
        adam_step(store, [np.zeros(3), np.zeros(1)], lr=0.1, betas=(0.9, 0.999))
    assert store_state(store) == before


def test_duplicate_name_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.add("w", np.zeros(2))


def test_moments_match_parameter_shapes():
    store = make_store()
    adam_step(store, [np.ones(2), np.ones(1)], lr=0.01, betas=(0.9, 0.999))
    assert store.m["w"].shape == store["w"].shape
    assert store.v["w"].shape == store["w"].shape


def reference_adam_step(params, m, v, t, grads, lr, betas):
    """Adam's t-th step by the per-parameter formula, one parameter at a
    time, on dicts."""
    b1, b2 = betas
    for name, g in grads.items():
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat = m[name] / (1.0 - b1 ** t)
        v_hat = v[name] / (1.0 - b2 ** t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def test_flat_adam_is_the_per_parameter_formula_bitwise():
    # shapes that straddle the 16k-element blocks, a scalar and an empty one
    shapes = {"a": (3, 4), "big": (150, 130), "s": (), "e": (0, 3), "c": (7,),
              "d": (200, 90), "f": (5, 5)}
    rng = np.random.default_rng(7)
    store = ParamStore(rng)
    for name, shape in shapes.items():
        store.normal(name, shape, std=0.5)
    params = {n: p.data.copy() for n, p in store.items()}
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    for step in range(6):
        grads = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
        adam_step(store, list(grads.values()), lr=0.01, betas=(0.9, 0.999))
        reference_adam_step(params, m, v, step + 1, grads, lr=0.01, betas=(0.9, 0.999))
        for n in shapes:
            assert store[n].data.tobytes() == params[n].tobytes(), (step, n)
            assert store.m[n].tobytes() == m[n].tobytes(), (step, n)
            assert store.v[n].tobytes() == v[n].tobytes(), (step, n)
        assert store.step == step + 1
    assert store.step == 6
    # packed: one buffer per kind, every array a view into it
    for arrays in ([p.data for _, p in store.items()], list(store.m.values()),
                   list(store.v.values())):
        assert arrays[0].base is not None and all(a.base is arrays[0].base for a in arrays)


def test_a_rebound_array_is_packed_again():
    store = make_store()
    adam_step(store, [np.ones(2), np.ones(1)], lr=0.1, betas=(0.9, 0.999))
    store["w"].data = np.array([5.0, 6.0])
    adam_step(store, [np.zeros(2), np.zeros(1)], lr=0.1, betas=(0.9, 0.999))
    assert store["w"].data.base is store["b"].data.base
    assert store["w"].data[0] < 5.0    # the step-1 moment still moves it


def trunc_normal_whole_array(rng, shape, std):
    """Reference: every round re-tests every entry of the array."""
    x = rng.normal(0.0, std, shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


@pytest.mark.parametrize("shape,std", [((7,), 0.02), ((32, 48), 0.02), ((16, 8, 3, 3), 0.3),
                                       ((1, 4, 3, 3), 1e-3), ((0, 3), 0.02)])
def test_trunc_normal_matches_the_whole_array_redraw(shape, std):
    a_rng, b_rng = np.random.default_rng(5), np.random.default_rng(5)
    a = trunc_normal(a_rng, shape, std)
    b = trunc_normal_whole_array(b_rng, shape, std)
    assert a.shape == b.shape == shape
    assert a.tobytes() == b.tobytes()
    assert (np.abs(a) <= 2.0 * std).all()
    assert a_rng.random() == b_rng.random()   # the same number of draws
