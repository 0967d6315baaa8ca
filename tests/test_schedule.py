import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layoutdiff.schedule import (
    ConfigError,
    build_schedule,
    ddim_step,
    ddpm_step,
    kl_loss,
    mse_loss,
    posterior_moments,
    predict_x0,
    q_sample,
)


class TestBuildSchedule:
    def test_endpoints_t100(self):
        s = build_schedule(100)
        assert s.beta[0] == pytest.approx(1e-3)
        assert s.beta[-1] == pytest.approx(0.2)

    def test_endpoints_t1000(self):
        s = build_schedule(1000)
        assert s.beta[0] == pytest.approx(1e-4)
        assert s.beta[-1] == pytest.approx(0.02)

    def test_alpha_bar_is_product_oracle(self):
        s = build_schedule(100)
        # independent oracle: running product via plain python floats
        prod = 1.0
        for t in range(100):
            prod *= 1.0 - s.beta[t]
            assert s.alpha_bar[t] == pytest.approx(prod, rel=1e-12)

    def test_monotone_and_bounded(self):
        s = build_schedule(250)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all(s.alpha_bar > 0) and np.all(s.alpha_bar < 1)
        assert np.all(s.beta > 0) and np.all(s.beta <= 0.999)

    def test_boundary_convention(self):
        s = build_schedule(100)
        assert s.abar(-1) == 1.0
        assert np.array_equal(s.abar(np.array([-1, 0, 99])),
                              [1.0, s.alpha_bar[0], s.alpha_bar[99]])

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            build_schedule(0)
        with pytest.raises(ConfigError):
            build_schedule(100, kind="cosine")


class TestQSample:
    def test_frozen_value(self):
        # abar = 0.25 exactly: sqrt(.25)*1 + sqrt(.75)*2 = 0.5 + sqrt(3)
        from layoutdiff.schedule import Schedule
        s = Schedule(T=1, kind="linear", beta=np.array([0.75]),
                     alpha=np.array([0.25]), alpha_bar=np.array([0.25]))
        got = q_sample(np.array([1.0]), 0, np.array([2.0]), s)
        assert got[0] == pytest.approx(2.2320508075688772, abs=1e-12)

    def test_t0_nearly_identity(self):
        s = build_schedule(100)
        x0 = np.ones((4, 16))
        out = q_sample(x0, 0, np.zeros_like(x0), s)
        assert np.allclose(out, np.sqrt(1 - 1e-3))

    def test_per_sample_t(self):
        s = build_schedule(100)
        x0 = np.ones((3, 2, 16))
        eps = np.zeros_like(x0)
        out = q_sample(x0, np.array([0, 50, 99]), eps, s)
        for i, t in enumerate([0, 50, 99]):
            assert np.allclose(out[i], np.sqrt(s.alpha_bar[t]))

    def test_shape_mismatch(self):
        s = build_schedule(100)
        with pytest.raises(ValueError):
            q_sample(np.zeros(3), 0, np.zeros(4), s)

    def test_marginal_statistics(self):
        """Empirical mean/var of x_t match the closed form at several t."""
        s = build_schedule(100)
        rng = np.random.default_rng(0)
        x0 = rng.uniform(-1, 1, 16)
        n = 100_000
        for t in [0, 10, 42, 77, 99]:
            eps = rng.standard_normal((n, 16))
            xt = q_sample(np.broadcast_to(x0, (n, 16)), t, eps, s)
            ab = s.alpha_bar[t]
            se_mean = np.sqrt((1 - ab) / n)
            assert np.all(np.abs(xt.mean(axis=0) - np.sqrt(ab) * x0) < 4 * se_mean)
            v = xt.var(axis=0)
            assert np.all(np.abs(v - (1 - ab)) < 0.05 * (1 - ab))

    @given(st.integers(0, 99), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_predict_x0_inverts(self, t, seed):
        s = build_schedule(100)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, (2, 16))
        eps = rng.standard_normal((2, 16))
        assert np.allclose(predict_x0(q_sample(x0, t, eps, s), eps, t, s), x0,
                           atol=1e-9)


class TestPosterior:
    def test_t0_collapses_to_x0(self):
        # abar(-1) = 1 makes the posterior mean equal x0 with tiny variance
        s = build_schedule(100)
        x0 = np.array([0.3, -0.7])
        xt = np.array([1.0, 2.0])
        mu, sigma = posterior_moments(x0, xt, 0, s)
        assert np.allclose(mu, x0)
        assert np.allclose(sigma, 0.0)

    def test_matches_scalar_formula(self):
        s = build_schedule(100)
        rng = np.random.default_rng(1)
        x0, xt = rng.standard_normal((2, 5))
        for t in [1, 17, 99]:
            mu, sigma = posterior_moments(x0, xt, t, s)
            ab_t, ab_p = s.alpha_bar[t], s.alpha_bar[t - 1]
            mu_ref = (np.sqrt(ab_p) * s.beta[t] * x0
                      + np.sqrt(s.alpha[t]) * (1 - ab_p) * xt) / (1 - ab_t)
            var_ref = (1 - ab_p) / (1 - ab_t) * s.beta[t]
            assert np.allclose(mu, mu_ref)
            assert np.allclose(sigma**2, var_ref)


class TestReverseSteps:
    def test_ddim_final_step_emits_x0_pred(self):
        s = build_schedule(100)
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-1, 1, (3, 16))
        eps = rng.standard_normal((3, 16))
        xt = q_sample(x0, 0, eps, s)
        assert np.allclose(ddim_step(xt, eps, 0, -1, 0.0, s), x0, atol=1e-9)

    def test_ddim_eta0_deterministic_exact_inversion(self):
        """With the true eps at every step, eta=0 DDIM retraces q_sample."""
        s = build_schedule(100)
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-1, 1, (2, 16))
        eps = rng.standard_normal((2, 16))
        x = q_sample(x0, 99, eps, s)
        for t in range(99, -1, -1):
            x = ddim_step(x, eps, t, t - 1, 0.0, s)
        assert np.max(np.abs(x - x0)) < 1e-9

    def test_ddim_eta1_needs_rng(self):
        s = build_schedule(100)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(4), np.zeros(4), 5, 4, 1.0, s)

    def test_ddim_eta1_matches_ddpm_moments(self):
        # at eta=1 with adjacent steps, the DDIM update has the DDPM posterior
        s = build_schedule(100)
        rng = np.random.default_rng(4)
        xt = rng.standard_normal(6)
        eps_hat = rng.standard_normal(6)
        t = 40
        x0_pred = predict_x0(xt, eps_hat, t, s)
        mu, sigma = posterior_moments(x0_pred, xt, t, s)
        draws_ddim = np.stack([
            ddim_step(xt, eps_hat, t, t - 1, 1.0, s, np.random.default_rng(i))
            for i in range(4000)
        ])
        assert np.allclose(draws_ddim.mean(axis=0), mu, atol=6 * sigma.max() / np.sqrt(4000))
        assert np.allclose(draws_ddim.std(axis=0), sigma, rtol=0.1)

    def test_ddim_bad_args(self):
        s = build_schedule(100)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), np.zeros(2), 5, 5, 0.0, s)
        with pytest.raises(ValueError):
            ddim_step(np.zeros(2), np.zeros(2), 5, 4, 1.5, s)

    def test_ddpm_t0_is_posterior_mean(self):
        s = build_schedule(100)
        rng = np.random.default_rng(5)
        xt = rng.standard_normal(8)
        eps_hat = rng.standard_normal(8)
        out = ddpm_step(xt, eps_hat, 0, s, rng)
        mu, _ = posterior_moments(predict_x0(xt, eps_hat, 0, s), xt, 0, s)
        assert np.array_equal(out, mu)

    def test_ddpm_t0_with_var_pred_is_posterior_mean(self):
        s = build_schedule(100)
        rng = np.random.default_rng(6)
        xt = rng.standard_normal(8)
        eps_hat = rng.standard_normal(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ddpm_step(xt, eps_hat, 0, s, rng, var_pred=np.full(8, 0.5))
        mu, _ = posterior_moments(predict_x0(xt, eps_hat, 0, s), xt, 0, s)
        assert np.array_equal(out, mu)

    def test_ddpm_seeded_determinism(self):
        s = build_schedule(100)
        xt = np.linspace(-1, 1, 8)
        eps_hat = np.zeros(8)
        a = ddpm_step(xt, eps_hat, 50, s, np.random.default_rng(7))
        b = ddpm_step(xt, eps_hat, 50, s, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_ddpm_var_pred_interpolates(self):
        s = build_schedule(100)
        xt = np.zeros(4)
        eps_hat = np.zeros(4)
        t = 30
        mu, sigma_tilde = posterior_moments(predict_x0(xt, eps_hat, t, s), xt, t, s)
        for v, expect_var in [(0.0, sigma_tilde.flat[0] ** 2), (1.0, s.beta[t])]:
            draws = np.stack([
                ddpm_step(xt, eps_hat, t, s, np.random.default_rng(i), var_pred=v)
                for i in range(4000)
            ])
            assert np.allclose(draws.var(axis=0), expect_var, rtol=0.12)

    def test_ddpm_range_check(self):
        s = build_schedule(100)
        with pytest.raises(ValueError):
            ddpm_step(np.zeros(2), np.zeros(2), 100, s, np.random.default_rng(0))


class TestLosses:
    def test_mse_frozen(self):
        assert mse_loss([0.0, 0.0], [1.0, 3.0]) == 5.0

    def test_mse_zero_on_equal(self):
        x = np.random.default_rng(0).standard_normal((3, 16))
        assert mse_loss(x, x) == 0.0

    def test_kl_zero_on_matched(self):
        assert kl_loss([0.5], [2.0], [0.5], [2.0]) == 0.0

    def test_kl_frozen_value(self):
        # KL(N(0,1) || N(1,1)) = 0.5
        assert kl_loss([0.0], [1.0], [1.0], [1.0]) == pytest.approx(0.5)

    def test_kl_positive_and_asymmetric(self):
        a = kl_loss([0.0], [1.0], [0.0], [2.0])
        b = kl_loss([0.0], [2.0], [0.0], [1.0])
        assert a > 0 and b > 0 and a != b

    def test_kl_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            kl_loss([0.0], [0.0], [0.0], [1.0])
