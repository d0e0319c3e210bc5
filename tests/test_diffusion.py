import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosediff import diffusion as D
from dosediff.tensor import Tensor

# cumulative product of (1 - beta) for T=10, beta linear 0.1 -> 0.2,
# computed with a 50-digit extended-precision oracle
ALPHA_BAR_10_ORACLE = [
    0.9, 0.8, 0.7022222222222222, 0.6085925925925926, 0.5206847736625514,
    0.4396893644261545, 0.3664078036884621, 0.30126863858829106,
    0.24436234018828054, 0.19548987215062444,
]


class TestMakeSchedule:
    def test_single_step(self):
        s = D.make_schedule(1, 0.1, 0.1)
        assert s.T == 1
        assert np.allclose(s.alpha_bar, [0.9])

    def test_linear_matches_extended_precision_product(self):
        s = D.make_schedule(10, 0.1, 0.2)
        assert np.allclose(s.alpha_bar, ALPHA_BAR_10_ORACLE, rtol=1e-14, atol=0)

    @given(st.integers(2, 200), st.floats(1e-5, 0.05), st.floats(0.05, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_alpha_bar_strictly_decreasing(self, T, b0, b1):
        s = D.make_schedule(T, b0, b1)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all(s.beta > 0) and np.all(s.beta < 1)
        assert s.alpha_bar[0] == s.alpha[0]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            D.make_schedule(0, 0.1, 0.2)
        with pytest.raises(ValueError):
            D.make_schedule(10, 0.0, 0.2)
        with pytest.raises(ValueError):
            D.make_schedule(10, 0.3, 0.2)
        with pytest.raises(ValueError):
            D.make_schedule(10, 0.1, 1.0)


class TestQSample:
    def test_zero_noise(self):
        # alpha_bar = 0.25 at t=1 via beta = 0.75
        s = D.make_schedule(1, 0.75, 0.75)
        x = D.q_sample(np.array([1.0]), 1, np.array([0.0]), s)
        assert np.allclose(x, [0.5], atol=1e-15)

    def test_zero_signal(self):
        # beta = 0.81 gives alpha_bar = 0.19, so the noise coefficient is 0.9
        s = D.make_schedule(1, 0.81, 0.81)
        x = D.q_sample(np.array([0.0]), 1, np.array([1.0]), s)
        assert np.allclose(x, [0.9], atol=1e-15)

    def test_shape_and_range_errors(self):
        s = D.make_schedule(5, 0.01, 0.1)
        with pytest.raises(ValueError):
            D.q_sample(np.zeros(3), 1, np.zeros(4), s)
        with pytest.raises(ValueError):
            D.q_sample(np.zeros(3), 6, np.zeros(3), s)
        with pytest.raises(ValueError):
            D.q_sample(np.zeros(3), 0, np.zeros(3), s)

    @given(st.integers(1, 40), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_identity(self, t, seed):
        s = D.make_schedule(40, 1e-4, 0.3)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, (2, 3))
        eps = rng.standard_normal((2, 3))
        x_t = D.q_sample(x0, t, eps, s)
        assert np.abs(D.predict_x0(x_t, eps, t, s) - x0).max() <= 1e-9

    def test_per_sample_timesteps(self):
        s = D.make_schedule(10, 0.1, 0.2)
        x0 = np.ones((3, 2))
        eps = np.zeros((3, 2))
        x = D.q_sample(x0, np.array([1, 5, 10]), eps, s)
        expect = np.sqrt(s.alpha_bar[[0, 4, 9]])[:, None] * np.ones((3, 2))
        assert np.allclose(x, expect, atol=1e-15)


class TestPredictX0:
    def test_scaled_signal_recovered(self):
        s = D.make_schedule(4, 0.05, 0.2)
        c = 0.37
        x_t = np.sqrt(s.alpha_bar_at(3)) * np.full((2, 2), c)
        assert np.allclose(D.predict_x0(x_t, np.zeros((2, 2)), 3, s), c)


class TestPSampleStep:
    def test_zero_noise_prediction_is_pure_rescale(self):
        s = D.make_schedule(1, 0.01, 0.01)  # alpha = 0.99
        x = np.array([1.0, -2.0])
        out = D.p_sample_step(x, 1, np.zeros(2), s, 0.0)
        assert np.allclose(out, x / np.sqrt(0.99), atol=1e-15)

    def test_nonzero_z_at_t1_rejected(self):
        s = D.make_schedule(3, 0.01, 0.1)
        with pytest.raises(ValueError):
            D.p_sample_step(np.zeros(2), 1, np.zeros(2), s, np.ones(2))

    def test_exact_noise_oracle_recovers_x0_at_T10(self):
        s = D.make_schedule(10, 1e-4, 0.3)
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-1, 1, (4, 4))
        eps0 = rng.standard_normal((4, 4))
        x = D.q_sample(x0, s.T, eps0, s)
        for t in range(s.T, 0, -1):
            eps_hat = (x - np.sqrt(s.alpha_bar_at(t)) * x0) / np.sqrt(1 - s.alpha_bar_at(t))
            x = D.p_sample_step(x, t, eps_hat, s, 0.0)
        assert np.abs(x - x0).max() < 1e-6

    def test_sigma_is_sqrt_beta(self):
        s = D.make_schedule(5, 0.04, 0.04)
        z = np.ones(2)
        base = D.p_sample_step(np.zeros(2), 3, np.zeros(2), s, 0.0)
        out = D.p_sample_step(np.zeros(2), 3, np.zeros(2), s, z)
        assert np.allclose(out - base, np.sqrt(0.04), atol=1e-15)


class StubModel:
    """Noise predictor stub returning a fixed function of its inputs."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x_t, t, cond):
        return Tensor(self.fn(np.asarray(x_t), t, cond))


def test_corrupt_batch_satisfies_forward_equation():
    s = D.make_schedule(12, 1e-3, 0.3)
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-1, 1, (5, 1, 4, 4))
    db = D.corrupt_batch(x0, s, rng)
    assert np.array_equal(db.x_t, D.q_sample(db.x0, db.t, db.eps, s))
    assert np.all((1 <= db.t) & (db.t <= 12))


class TestTrainingStep:
    def setup_method(self):
        self.s = D.make_schedule(20, 1e-3, 0.2)
        self.x0 = np.random.default_rng(0).uniform(-1, 1, (8, 1, 4, 4))

    def test_perfect_model_gives_zero_loss(self):
        captured = {}

        def remember(x_t, t, cond):
            return captured["eps"]

        rng = np.random.default_rng(5)
        # replицate the draws: t then eps, as training_step does
        probe = np.random.default_rng(5)
        probe.integers(1, 21, size=8)
        captured["eps"] = probe.standard_normal(self.x0.shape)
        loss = D.training_step(StubModel(remember), (self.x0, None), self.s, rng)
        assert float(loss.data) == 0.0

    def test_zero_model_loss_near_one(self):
        rng = np.random.default_rng(1)
        x0 = np.zeros((64, 1, 8, 8))
        loss = D.training_step(StubModel(lambda x, t, c: np.zeros_like(x)),
                               (x0, None), self.s, rng)
        # with x0 = 0 the loss is exactly mean(eps^2) over 4096 draws
        assert abs(float(loss.data) - 1.0) < 0.1

    def test_fixed_seed_reproduces_loss(self):
        stub = StubModel(lambda x, t, c: np.zeros_like(x))
        l1 = D.training_step(stub, (self.x0, None), self.s, np.random.default_rng(7))
        l2 = D.training_step(stub, (self.x0, None), self.s, np.random.default_rng(7))
        assert float(l1.data) == float(l2.data)


class TestSampleLoop:
    def test_single_step_stub(self):
        s = D.make_schedule(1, 0.05, 0.05)
        stub = StubModel(lambda x, t, c: np.zeros_like(x))
        out = D.sample_loop(stub, None, s, seed=np.random.default_rng(3), shape=(1, 1, 2, 2))
        x1 = np.random.default_rng(3).standard_normal((1, 1, 2, 2))
        assert np.allclose(out, x1 / np.sqrt(0.95), atol=1e-14)

    def test_same_seed_bit_identical(self):
        s = D.make_schedule(6, 1e-3, 0.3)
        stub = StubModel(lambda x, t, c: np.tanh(x))
        a = D.sample_loop(stub, None, s, seed=np.random.default_rng(11), shape=(2, 1, 3, 3))
        b = D.sample_loop(stub, None, s, seed=np.random.default_rng(11), shape=(2, 1, 3, 3))
        assert np.array_equal(a, b)

    def test_exact_noise_oracle_stub_recovers_target(self):
        s = D.make_schedule(10, 1e-4, 0.3)
        target = np.random.default_rng(2).uniform(-1, 1, (1, 1, 4, 4))

        class Oracle:
            def __call__(self, x_t, t, cond):
                tt = int(np.asarray(t).reshape(-1)[0])
                ab = s.alpha_bar_at(tt)
                return Tensor((np.asarray(x_t) - np.sqrt(ab) * target) / np.sqrt(1 - ab))

        # drive p_sample_step directly with z = 0 (deterministic recursion)
        rng = np.random.default_rng(4)
        x = D.q_sample(target, s.T, rng.standard_normal(target.shape), s)
        oracle = Oracle()
        for t in range(s.T, 0, -1):
            x = D.p_sample_step(x, t, oracle(x, t, None).data, s, 0.0)
        assert np.abs(x - target).max() < 1e-6


def test_marginal_statistics():
    """Over 1e5 scalar draws, q_sample matches its analytic moments."""
    s = D.make_schedule(30, 1e-3, 0.25)
    n = 100_000
    rng = np.random.default_rng(123)
    x0 = np.full(n, 0.4)
    for t in (1, 15, 30):
        eps = rng.standard_normal(n)
        x_t = D.q_sample(x0, t, eps, s)
        ab = s.alpha_bar_at(t)
        want_mean = np.sqrt(ab) * 0.4
        want_var = 1.0 - ab
        se = np.sqrt(want_var / n)
        assert abs(x_t.mean() - want_mean) < 3 * se
        assert abs(x_t.var() - want_var) / want_var < 0.05
