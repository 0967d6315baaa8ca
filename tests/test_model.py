import math

import numpy as np
import pytest

from layoutdiff.model import (
    ARStepCache,
    ModelConfig,
    UnsupportedModeError,
    _backward_core,
    _forward_core,
    _gelu,
    _gelu_grad,
    _layernorm,
    _layernorm_grad,
    adapter_decode,
    adapter_encode,
    ar_loss_and_grads,
    forward_ar,
    forward_ar_all,
    forward_nonar,
    init_adapter,
    init_params,
    modulation_row,
    nonar_loss_and_grads,
    param_count,
    param_shapes,
    timestep_modulations,
    train_adapter,
)
from layoutdiff.schedule import ConfigError

TINY = ModelConfig(layers=2, heads=2, hidden=8, n_max=3)
TINY_AR = ModelConfig(layers=2, heads=2, hidden=8, n_max=3, ar_mode=True)


def random_params(cfg, seed, scale=0.05, dtype=np.float64):
    """All-nonzero parameters so every gradient path is exercised."""
    rng = np.random.default_rng(seed)
    return {
        name: (rng.standard_normal(shape) * scale).astype(dtype)
        for name, shape in param_shapes(cfg).items()
    }


def relative_errors(loss_fn, params, grads, seed, n_coords=500, h=1e-5):
    """Central finite differences at randomly sampled coordinates."""
    rng = np.random.default_rng(seed)
    names = sorted(params)
    sizes = np.array([params[k].size for k in names])
    picks = rng.integers(0, sizes.sum(), size=n_coords)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    errs = []
    for pick in picks:
        which = int(np.searchsorted(offsets, pick, side="right") - 1)
        name = names[which]
        idx = int(pick - offsets[which])
        flat = params[name].reshape(-1)
        keep = flat[idx]
        flat[idx] = keep + h
        up = loss_fn(params)
        flat[idx] = keep - h
        down = loss_fn(params)
        flat[idx] = keep
        num = (up - down) / (2.0 * h)
        ana = grads[name].reshape(-1)[idx]
        errs.append(abs(num - ana) / max(1e-6, abs(num), abs(ana)))
    return np.array(errs)


class TestConfig:
    def test_param_count_closed_form(self):
        cfg = TINY
        h, td, n, L = cfg.hidden, cfg.token_dim, cfg.n_max, cfg.layers
        expect = (
            td * h + h                     # input projection
            + 2 * (h * h + h)              # timestep MLP
            + L * (h * 6 * h + 6 * h       # per-block modulation
                   + h * 3 * h + 3 * h     # qkv
                   + h * h + h             # attn out
                   + h * 4 * h + 4 * h + 4 * h * h + h)  # mlp
            + h * 2 * h + 2 * h            # final modulation
            + h * td + td                  # head
            + n * h                        # positions
        )
        assert param_count(cfg) == expect

    def test_ar_adds_start_seg_and_positions(self):
        base = param_count(TINY)
        h, n = TINY.hidden, TINY.n_max
        assert param_count(TINY_AR) == base + (n + 1) * h + h + 3 * h

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=0, heads=2, hidden=8, n_max=2)
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, heads=3, hidden=8, n_max=2)
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, heads=2, hidden=8, n_max=0)
        for field, value, message in (
                ("hidden", 0, "must be >= 1, got 0"), ("token_dim", -3, "must be >= 1, got -3"),
                ("adapter_latent", -2, "must be >= 1, got -2"),
                ("adapter_latent", 0, "must be >= 1, got 0"),
                ("hidden", 8.0, "must be an integer, got 8.0"),
                ("layers", True, "must be an integer, got True")):
            with pytest.raises(ConfigError, match=f"^{field} {message}$"):
                ModelConfig(**{"layers": 1, "heads": 2, "hidden": 8, "n_max": 2, field: value})


class TestForwardNonAR:
    def test_untrained_model_outputs_exact_zero(self):
        params = init_params(TINY, seed=0)
        x = np.random.default_rng(0).standard_normal((2, 3, 16)).astype(np.float32)
        pred = forward_nonar(params, TINY, x, np.array([5, 9]))
        assert np.array_equal(pred.eps_hat, np.zeros_like(x))

    def test_batch_rows_independent(self):
        params = random_params(TINY, 1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 3, 16))
        t = np.array([1, 7, 7])
        batch = forward_nonar(params, TINY, x, t).eps_hat
        for i in range(3):
            single = forward_nonar(params, TINY, x[i], t[i]).eps_hat
            assert np.allclose(batch[i], single, atol=1e-12)

    def test_timestep_changes_output(self):
        params = random_params(TINY, 3)
        x = np.random.default_rng(4).standard_normal((1, 3, 16))
        a = forward_nonar(params, TINY, x, np.array([0])).eps_hat
        b = forward_nonar(params, TINY, x, np.array([50])).eps_hat
        assert not np.allclose(a, b)

    def test_shape_check(self):
        params = random_params(TINY, 5)
        with pytest.raises(ValueError):
            forward_nonar(params, TINY, np.zeros((2, 4, 16)), np.array([0, 0]))

    def test_rejects_ar_mode(self):
        """An AR model's params also hold the first n_max positions, so the
        one-pass wiring would otherwise run on them silently."""
        params = random_params(TINY_AR, 19)
        with pytest.raises(UnsupportedModeError, match="ar_mode"):
            forward_nonar(params, TINY_AR, np.zeros((3, 16)), 0)
        with pytest.raises(UnsupportedModeError, match="ar_mode"):
            nonar_loss_and_grads(params, TINY_AR, np.zeros((1, 3, 16)), np.array([0]),
                                 np.zeros((1, 3, 16)))


class TestGradients:
    """64-bit finite-difference checks of the hand-written backward pass."""

    def test_nonar_mse_gradcheck(self):
        cfg = TINY
        params = random_params(cfg, 10)
        rng = np.random.default_rng(11)
        xt = rng.standard_normal((2, 3, 16))
        eps = rng.standard_normal((2, 3, 16))
        t = np.array([5, 60])
        _, grads = nonar_loss_and_grads(params, cfg, xt, t, eps)
        errs = relative_errors(
            lambda p: nonar_loss_and_grads(p, cfg, xt, t, eps)[0],
            params, grads, seed=12)
        assert errs.max() < 1e-3

    def test_ar_gradcheck(self):
        cfg = TINY_AR
        params = random_params(cfg, 13)
        rng = np.random.default_rng(14)
        xt = rng.standard_normal((2, 3, 16))
        eps = rng.standard_normal((2, 3, 16))
        t = np.array([20, 80])
        _, grads = ar_loss_and_grads(params, cfg, xt, t, eps)
        errs = relative_errors(
            lambda p: ar_loss_and_grads(p, cfg, xt, t, eps)[0],
            params, grads, seed=15)
        assert errs.max() < 1e-3


class TestGradDict:
    @pytest.mark.parametrize("cfg", [TINY, TINY_AR], ids=["nonar", "ar"])
    def test_one_grad_per_param(self, cfg):
        """The core and embedding grads together cover every parameter once."""
        params = random_params(cfg, 30, dtype=np.float32)
        rng = np.random.default_rng(31)
        xt = rng.standard_normal((2, 3, 16))
        eps = rng.standard_normal((2, 3, 16))
        t = np.array([5, 60])
        if cfg.ar_mode:
            _, grads = ar_loss_and_grads(params, cfg, xt, t, eps)
        else:
            _, grads = nonar_loss_and_grads(params, cfg, xt, t, eps)
        assert sorted(grads) == sorted(param_shapes(cfg))
        for name, shape in param_shapes(cfg).items():
            assert grads[name].shape == shape and grads[name].dtype == np.float32, name


def reference_gelu(x):
    """GELU and its derivative of one float, in Python float arithmetic."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    th = math.tanh(c * (x + a * x**3))
    return (0.5 * x * (1.0 + th),
            0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * c * (1.0 + 3.0 * a * x * x))


class TestGelu:
    X = np.concatenate([np.linspace(-10.0, 10.0, 2001), [-1e3, -40.0, 0.0, 40.0, 1e3]])

    # in float32 the tanh derivative loses digits in 1 - tanh^2 near |x| = 5
    # (worst 1.2e-6 on a 2e5-point grid over [-12, 12])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-14), (np.float32, 3e-6)])
    def test_matches_float64_reference(self, dtype, tol):
        ref = np.array([reference_gelu(float(x)) for x in self.X.astype(dtype)])
        x = self.X.astype(dtype)
        y, aux = _gelu(x)
        dy = _gelu_grad(x, aux)
        assert y.dtype == dy.dtype == dtype
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(dy))
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(y - ref[:, 0]) / scale[:, 0]) < tol
        assert np.max(np.abs(dy - ref[:, 1]) / scale[:, 1]) < tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_may_take_x_as_its_temporary(self, dtype):
        """Backward hands _gelu_grad the block's spent um as tmp."""
        x = self.X.astype(dtype)
        _, aux = _gelu(x)
        expected = _gelu_grad(x, aux)
        spent = x.copy()
        out = np.empty_like(x)
        assert _gelu_grad(spent, aux, out=out, tmp=spent) is out
        assert out.tobytes() == expected.tobytes()


def expression_layernorm_grad(dy, y, inv):
    """The layer norm's input grad as one expression, with fresh arrays."""
    n = dy.shape[-1]
    m1 = np.add.reduce(dy, axis=-1, keepdims=True)
    m1 /= n
    m2 = np.add.reduce(dy * y, axis=-1, keepdims=True)
    m2 /= n
    return inv * (dy - m1 - y * m2)


class TestLayernormGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_and_tmp_keep_the_expressions_bytes(self, dtype):
        rng = np.random.default_rng(48)
        y, inv = _layernorm(rng.standard_normal((3, 5, 40)).astype(dtype))
        dy = rng.standard_normal(y.shape).astype(dtype)
        expected = expression_layernorm_grad(dy, y, inv)
        assert expected.dtype == dtype
        out, tmp = np.empty_like(dy), np.empty_like(dy)
        assert _layernorm_grad(dy, y, inv, out=out, tmp=tmp) is out
        assert out.tobytes() == expected.tobytes()
        assert _layernorm_grad(dy, y, inv).tobytes() == expected.tobytes()


class TestForwardAR:
    def test_requires_ar_mode(self):
        params = random_params(TINY, 20)
        with pytest.raises(UnsupportedModeError):
            forward_ar(params, TINY, np.zeros((3, 16)), np.zeros((0, 16)), 0)

    def test_prefix_length_bounds(self):
        params = random_params(TINY_AR, 21)
        with pytest.raises(ValueError):
            forward_ar(params, TINY_AR, np.zeros((3, 16)), np.zeros((3, 16)), 0)

    def test_masked_pass_matches_incremental(self):
        params = random_params(TINY_AR, 22)
        rng = np.random.default_rng(23)
        xt = rng.standard_normal((2, 3, 16))
        noise = rng.standard_normal((2, 3, 16))
        t = np.array([10, 90])
        all_preds, _ = forward_ar_all(params, TINY_AR, xt, noise, t)
        for i in range(3):
            step = forward_ar(params, TINY_AR, xt, noise[:, :i, :], t)
            assert np.allclose(all_preds[:, i], step, atol=1e-12)

    def test_causality_under_prefix_perturbation(self):
        """Prediction for token i ignores noise entries at indices >= i."""
        params = random_params(TINY_AR, 24)
        rng = np.random.default_rng(25)
        xt = rng.standard_normal((1, 3, 16))
        noise = rng.standard_normal((1, 3, 16))
        t = np.array([40])
        base, _ = forward_ar_all(params, TINY_AR, xt, noise, t)
        for j in range(3):
            bent = noise.copy()
            bent[:, j, :] += rng.standard_normal(16)
            pred, _ = forward_ar_all(params, TINY_AR, xt, bent, t)
            assert np.array_equal(pred[:, : j + 1], base[:, : j + 1])
            if j < 2:
                assert not np.allclose(pred[:, j + 1], base[:, j + 1])


class TestModulationTable:
    """A sampler's table of timestep modulations stands in for the per-call path."""

    T = 100
    TS = (0, T // 2, T - 1)
    TOL = [(np.float32, 1e-6), (np.float64, 1e-12)]

    @pytest.mark.parametrize("dtype, tol", TOL)
    @pytest.mark.parametrize("shape", [(2, 3, 16), (3, 16)], ids=["plain", "single"])
    def test_forward_nonar_with_row_matches_without(self, shape, dtype, tol):
        """A batch, or one unbatched sample."""
        params = random_params(TINY, 40, dtype=dtype)
        table, cache = timestep_modulations(params, TINY, np.arange(self.T))
        assert table.shape == (self.T, 6 * TINY.layers + 2, TINY.hidden)
        assert table.dtype == dtype and cache is None
        x = np.random.default_rng(41).standard_normal(shape)
        for t in self.TS:
            want = forward_nonar(params, TINY, x, t)
            got = forward_nonar(params, TINY, x, t, mods=modulation_row(table, t))
            assert got.eps_hat.shape == shape
            np.testing.assert_allclose(got.eps_hat, want.eps_hat, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype, tol", TOL)
    def test_cached_forward_ar_with_row_matches_without(self, dtype, tol):
        params = random_params(TINY_AR, 42, dtype=dtype)
        table, _ = timestep_modulations(params, TINY_AR, np.arange(self.T))
        rng = np.random.default_rng(43)
        x = rng.standard_normal((2, 3, 16))
        noise = rng.standard_normal((2, 3, 16))
        for t in self.TS:
            plain, with_row = ARStepCache(), ARStepCache()
            for i in range(TINY_AR.n_max):
                want = forward_ar(params, TINY_AR, x, noise[:, :i], t, cache=plain)
                got = forward_ar(params, TINY_AR, x, noise[:, :i], t, cache=with_row,
                                 mods=modulation_row(table, t))
                np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("t", [-1, T, T + 7])
    def test_row_outside_table_rejected(self, t):
        """numpy would wrap t = -1 around to row T - 1 without a word."""
        params = random_params(TINY, 44)
        table, _ = timestep_modulations(params, TINY, np.arange(self.T))
        with pytest.raises(ValueError, match=rf"timestep {t} outside .*\[0, {self.T}\)"):
            modulation_row(table, t)

    @pytest.mark.parametrize("cfg", [TINY, TINY_AR], ids=["nonar", "ar"])
    def test_forward_and_backward_leave_inputs_unchanged(self, cfg):
        """The block stack works in place on its own buffers only."""
        params = random_params(cfg, 45, dtype=np.float32)
        before = {k: v.tobytes() for k, v in params.items()}
        rng = np.random.default_rng(46)
        xt = rng.standard_normal((2, 3, 16)).astype(np.float32)
        eps = rng.standard_normal((2, 3, 16)).astype(np.float32)
        t = np.array([3, 70])
        inputs = (xt.tobytes(), eps.tobytes())
        if cfg.ar_mode:
            ar_loss_and_grads(params, cfg, xt, t, eps)
            step = ARStepCache()
            for i in range(cfg.n_max):
                forward_ar(params, cfg, xt, eps[:, :i], t, cache=step)
        else:
            nonar_loss_and_grads(params, cfg, xt, t, eps)
            forward_nonar(params, cfg, xt, t)
        h0 = rng.standard_normal((2, cfg.n_positions, cfg.hidden)).astype(np.float32)
        h0_bytes = h0.tobytes()
        mods, tcache = timestep_modulations(params, cfg, t, for_backward=True)
        mods_bytes = mods.tobytes()
        out, cache = _forward_core(params, cfg, h0, mods)
        cache["timestep"] = tcache
        _backward_core(params, cfg, cache, np.ones_like(out))
        assert (xt.tobytes(), eps.tobytes()) == inputs
        assert h0.tobytes() == h0_bytes and mods.tobytes() == mods_bytes
        assert all(params[k].tobytes() == b for k, b in before.items())

    @pytest.mark.parametrize("ws", [None, {}], ids=["fresh", "workspace"])
    def test_second_backward_on_one_cache_refused(self, ws):
        """Backward overwrites the cache's qkv and um, so a second backward
        on one cache would return wrong grads; it raises instead."""
        params = random_params(TINY, 47, dtype=np.float32)
        rng = np.random.default_rng(48)
        h0 = rng.standard_normal((2, TINY.n_positions, TINY.hidden)).astype(np.float32)
        mods, tcache = timestep_modulations(params, TINY, np.array([3, 70]),
                                            for_backward=True, ws=ws)
        out, cache = _forward_core(params, TINY, h0, mods, ws=ws)
        cache["timestep"] = tcache
        _backward_core(params, TINY, cache, np.ones_like(out), ws=ws)
        with pytest.raises(ValueError, match="consumed by an earlier backward.*run the "
                                             "forward again"):
            _backward_core(params, TINY, cache, np.ones_like(out), ws=ws)


class TestAdapter:
    CFG = ModelConfig(layers=1, heads=2, hidden=8, n_max=2, adapter_latent=16)

    def test_requires_latent_config(self):
        with pytest.raises(UnsupportedModeError):
            init_adapter(TINY, seed=0)

    def test_full_rank_training_reaches_near_zero(self):
        ad = init_adapter(self.CFG, seed=1)
        x = np.random.default_rng(1).uniform(-1, 1, (64, 16))
        losses = train_adapter(ad, self.CFG, x, steps=2000, lr=1e-2)
        assert losses[-1] < 1e-3
        roundtrip = adapter_decode(ad, self.CFG, adapter_encode(ad, self.CFG, x))
        assert np.mean((roundtrip - x) ** 2) < 1e-3

    def test_bottleneck_is_lossy(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=2, adapter_latent=4)
        ad = init_adapter(cfg, seed=2)
        x = np.random.default_rng(2).uniform(-1, 1, (64, 16))
        losses = train_adapter(ad, cfg, x, steps=1500, lr=1e-2)
        # rank-4 linear autoencoder cannot reconstruct rank-16 data
        assert losses[-1] > 1e-2
