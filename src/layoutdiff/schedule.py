"""Noise schedules, the closed-form forward process and the reverse steps.

All schedule math is done in float64 regardless of the dtype the model uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Per-step beta/alpha arrays; immutable and shareable across threads."""

    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def abar(self, t) -> np.ndarray:
        """alpha_bar at timestep t with the boundary convention abar(-1) = 1."""
        t = np.asarray(t)
        out = np.where(t < 0, 1.0, self.alpha_bar[np.maximum(t, 0)])
        return out if out.shape else float(out)


def build_schedule(T: int) -> Schedule:
    """Linear beta schedule rescaled so T=100 mirrors the usual T=1000 range."""
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ConfigError(f"diffusion step count must be a positive integer, got {T}")
    scale = 1000.0 / T
    beta = np.linspace(1e-4 * scale, 0.02 * scale, T, dtype=np.float64)
    beta = np.clip(beta, 1e-8, 0.999)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return Schedule(T=int(T), beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def _gather(arr, t, ndim):
    """Index a per-step array with scalar or per-sample t, broadcastable to ndim."""
    t = np.asarray(t)
    v = arr[t]
    if t.ndim == 0:
        return float(v)
    return v.reshape(v.shape + (1,) * (ndim - v.ndim))


def q_sample(x0, t, eps, sched: Schedule):
    """Forward process: x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    ab = _gather(sched.alpha_bar, t, x0.ndim)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def predict_x0(xt, eps_hat, t, sched: Schedule):
    """Invert q_sample given a noise estimate."""
    xt = np.asarray(xt, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    ab = _gather(sched.alpha_bar, t, xt.ndim)
    return (xt - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)


def posterior_moments(x0, xt, t, sched: Schedule):
    """Mean and variance beta_tilde_t of q(x_{t-1} | x_t, x_0), a diagonal
    Gaussian. The variance is one value per step, broadcastable to the mean."""
    x0 = np.asarray(x0, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    ab_t = _gather(sched.alpha_bar, t, x0.ndim)
    ab_prev = np.asarray(sched.abar(np.asarray(t) - 1))
    ab_prev = ab_prev.reshape(ab_prev.shape + (1,) * (x0.ndim - ab_prev.ndim))
    beta_t = _gather(sched.beta, t, x0.ndim)
    alpha_t = _gather(sched.alpha, t, x0.ndim)
    denom = 1.0 - ab_t
    mu = (np.sqrt(ab_prev) * beta_t / denom) * x0 + (
        np.sqrt(alpha_t) * (1.0 - ab_prev) / denom
    ) * xt
    return mu, (1.0 - ab_prev) / denom * beta_t


def learned_log_variance(v, beta_tilde, t, sched: Schedule):
    """v log(beta_t) + (1 - v) log(beta_tilde_t) per entry of v (Nichol &
    Dhariwal, arXiv:2102.09672, eq. 15), and its lower end. Where beta_tilde_t
    = 0, at t = 0, the range collapses to beta_t: both ends are log(beta_t)."""
    beta_t = _gather(sched.beta, t, np.ndim(beta_tilde))
    lower = np.where(beta_tilde > 0, beta_tilde, beta_t)
    return v * np.log(beta_t) + (1.0 - v) * np.log(lower), lower


def ddim_step(xt, eps_hat, t, t_prev, eta, sched: Schedule, rng=None):
    """One deterministic-by-default reverse step; t_prev = -1 emits x0_pred."""
    if not (t > t_prev >= -1):
        raise ValueError(f"ddim_step requires t > t_prev >= -1, got t={t}, t_prev={t_prev}")
    if not (0.0 <= eta <= 1.0):
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    xt = np.asarray(xt, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    ab_t = float(sched.alpha_bar[t])
    ab_prev = float(sched.abar(t_prev))
    x0_pred = predict_x0(xt, eps_hat, t, sched)
    sigma = (
        eta
        * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t))
        * np.sqrt(1.0 - ab_t / ab_prev)
    )
    x = np.sqrt(ab_prev) * x0_pred + np.sqrt(
        np.maximum(1.0 - ab_prev - sigma**2, 0.0)
    ) * eps_hat
    if t_prev >= 0 and sigma > 0:
        if rng is None:
            raise ValueError("eta > 0 requires an rng")
        x = x + sigma * rng.standard_normal(x.shape)
    return x


def ddpm_step(xt, eps_hat, t, sched: Schedule, rng, var_pred=None):
    """One stochastic reverse step; no noise is added at t = 0.

    var_pred, when given, is an interpolation coefficient in [0, 1] between
    log(beta_t) (1.0) and log(beta_tilde_t) (0.0) per entry.
    """
    if not (0 <= t < sched.T):
        raise ValueError(f"t={t} outside [0, {sched.T})")
    xt = np.asarray(xt, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if xt.shape != eps_hat.shape:
        raise ValueError(f"xt shape {xt.shape} != eps_hat shape {eps_hat.shape}")
    x0_pred = predict_x0(xt, eps_hat, t, sched)
    mu, var = posterior_moments(x0_pred, xt, t, sched)
    if t == 0:
        return mu
    if var_pred is None:
        return mu + np.sqrt(var) * rng.standard_normal(mu.shape)
    log_var, _ = learned_log_variance(var_pred, var, t, sched)
    return mu + np.exp(0.5 * log_var) * rng.standard_normal(mu.shape)
