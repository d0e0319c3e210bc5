"""Conditional denoising-diffusion machinery.

Forward corruption, the noise-prediction training objective, and the
ancestral reverse sampler. Timesteps are 1-based: t runs over [1..T],
with alpha_bar[0] conceptually equal to 1 (no corruption).

All schedule math runs on plain numpy; only the model forward inside
training_step participates in the autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_schedule
from .tensor import Tensor, mse_loss, no_grad


@dataclass
class NoiseSchedule:
    """Per-step variances and their cumulative products over horizon T."""

    T: int
    beta: np.ndarray        # beta[t-1] is the step-t variance
    alpha: np.ndarray       # 1 - beta
    alpha_bar: np.ndarray   # cumulative product of alpha

    def _check_t(self, t):
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > self.T):
            raise ValueError(f"timestep {t} out of range [1..{self.T}]")
        return t

    def beta_at(self, t):
        return self.beta[self._check_t(t) - 1]

    def alpha_at(self, t):
        return self.alpha[self._check_t(t) - 1]

    def alpha_bar_at(self, t):
        return self.alpha_bar[self._check_t(t) - 1]


@dataclass
class DiffusionBatch:
    """One corrupted training batch: x_t = sqrt(abar_t) x0 + sqrt(1-abar_t) eps."""

    x0: np.ndarray
    t: np.ndarray
    eps: np.ndarray
    x_t: np.ndarray


def make_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Build the beta/alpha/alpha_bar tables.

    Beta is interpolated linearly from beta_start to beta_end (a single
    step uses beta_start alone). Out-of-range arguments raise ConfigError
    (config.check_schedule).
    """
    check_schedule(T, beta_start, beta_end)
    if T == 1:
        beta = np.array([beta_start], dtype=np.float64)
    else:
        beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def _per_sample(coef: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Reshape a per-sample coefficient vector (or a scalar) to broadcast over like."""
    return coef.reshape(coef.shape + (1,) * (like.ndim - 1))


def q_sample(x0: np.ndarray, t, eps: np.ndarray, s: NoiseSchedule) -> np.ndarray:
    """Corrupt x0 to timestep t: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps.

    ``t`` is a scalar or a per-sample vector indexing the batch axis 0.
    """
    if eps.shape != x0.shape:
        raise ValueError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    ab = s.alpha_bar_at(t)
    return _per_sample(np.sqrt(ab), x0) * x0 + _per_sample(np.sqrt(1.0 - ab), x0) * eps


def predict_x0(x_t: np.ndarray, eps_hat: np.ndarray, t, s: NoiseSchedule) -> np.ndarray:
    """Invert the corruption given a noise estimate (a small alpha_bar is
    ill-conditioned in float64, but not an error)."""
    if eps_hat.shape != x_t.shape:
        raise ValueError(f"eps_hat shape {eps_hat.shape} != x_t shape {x_t.shape}")
    ab = s.alpha_bar_at(t)
    return (x_t - _per_sample(np.sqrt(1.0 - ab), x_t) * eps_hat) / _per_sample(np.sqrt(ab), x_t)


def p_sample_step(x_t: np.ndarray, t: int, eps_hat: np.ndarray, s: NoiseSchedule,
                  z) -> np.ndarray:
    """One ancestral reverse step from x_t to x_{t-1}.

    Posterior mean uses the predicted noise; the stochastic term is
    sigma_t * z with sigma_t = sqrt(beta_t). The final step (t=1) must be
    deterministic: z must be 0 there.
    """
    t = int(t)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    a = float(s.alpha_at(t))
    ab = float(s.alpha_bar_at(t))
    z_arr = np.asarray(z, dtype=np.float64)
    if t == 1 and np.any(z_arr != 0.0):
        raise ValueError("stochastic term z must be 0 at t=1")
    mean = (x_t - ((1.0 - a) / np.sqrt(1.0 - ab)) * eps_hat) / np.sqrt(a)
    sigma = np.sqrt(float(s.beta_at(t)))
    return mean + sigma * z_arr


def corrupt_batch(x0: np.ndarray, s: NoiseSchedule,
                  rng: np.random.Generator) -> DiffusionBatch:
    """Draw per-sample uniform timesteps and noise, then corrupt x0."""
    t = rng.integers(1, s.T + 1, size=x0.shape[0])
    eps = rng.standard_normal(x0.shape)
    return DiffusionBatch(x0=x0, t=t, eps=eps, x_t=q_sample(x0, t, eps, s))


def training_step(model, batch, s: NoiseSchedule, rng: np.random.Generator) -> Tensor:
    """Noise-prediction objective on one batch.

    ``batch`` is (x0, condition) with x0 normalized to [-1, 1]; ``model``
    must accept (x_t, t, condition) and return a Tensor eps_hat of x0's
    shape. Draws per-sample uniform timesteps and standard-normal noise
    from ``rng`` and returns the scalar MSE(eps_hat, eps); gradients are
    available through backward on the returned Tensor.
    """
    x0, cond = batch
    db = corrupt_batch(x0, s, rng)
    eps_hat = model(db.x_t, db.t, cond)
    return mse_loss(eps_hat, Tensor(db.eps))


def sample_loop(model, condition, s: NoiseSchedule, seed, shape) -> np.ndarray:
    """Full reverse pass from pure noise of ``shape`` to a normalized dose map.

    ``model`` returns a Tensor eps_hat; every draw comes from the
    Generator ``seed``, so outputs are deterministic given its state.
    """
    x = seed.standard_normal(shape)
    with no_grad():
        for t in range(s.T, 0, -1):
            t_vec = np.full(shape[0], t, dtype=np.int64)
            eps_hat = model(x, t_vec, condition).data
            z = seed.standard_normal(shape) if t > 1 else np.zeros(shape)
            x = p_sample_step(x, t, eps_hat, s, z)
    return x
