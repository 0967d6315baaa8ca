import math
import re

import numpy as np
import pytest

from layoutdiff import model as M
from layoutdiff.core import BoundingBox, DatasetConfig, Layout, decode_category
from layoutdiff.model import ARStepCache, ModelConfig, forward_ar, init_params, param_shapes
from layoutdiff.sampling import (
    ConditionMask,
    apply_condition,
    ar_predictor,
    mask_from_layout,
    sample_ar,
    sample_nonar,
    sample_tokens,
)
from layoutdiff.schedule import build_schedule, q_sample

SCHED = build_schedule(100)
DCFG = DatasetConfig(n_max=4, num_categories=5, h_max=256.0, w_max=256.0)


def zero_predictor(x, t):
    return np.zeros_like(x)


def random_params(cfg, seed, dtype=np.float64, scale=0.3):
    """Every weight random, so no zero-initialized head hides the network."""
    rng = np.random.default_rng(seed)
    return {name: (rng.standard_normal(shape) * scale).astype(dtype)
            for name, shape in param_shapes(cfg).items()}


def make_layout():
    return Layout(H=256.0, W=256.0, boxes=(
        BoundingBox(x=32.0, y=32.0, h=64.0, w=64.0, c=1),
        BoundingBox(x=128.0, y=32.0, h=64.0, w=96.0, c=3),
    ))


class TestConditionMask:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConditionMask(mask=np.zeros((2, 16), dtype=bool), values=np.zeros((3, 16)))

    def test_partial_category_mask_rejected(self):
        m = np.zeros((1, 16), dtype=bool)
        m[0, 9] = True  # one category bit without the others
        with pytest.raises(ValueError):
            ConditionMask(mask=m, values=np.zeros((1, 16)))

    def test_empty_property(self):
        m = ConditionMask(mask=np.zeros((1, 16), dtype=bool), values=np.zeros((1, 16)))
        assert m.empty

    def test_mask_kinds(self):
        cate = mask_from_layout(make_layout(), DCFG, "cate")
        both = mask_from_layout(make_layout(), DCFG, "cate_size")
        assert cate.mask[:, 8:].all() and not cate.mask[:, :8].any()
        assert both.mask[:, 2:4].all() and both.mask[:, 8:].all()
        assert not both.mask[:, 0:2].any()
        with pytest.raises(ValueError):
            mask_from_layout(make_layout(), DCFG, "everything")


class TestApplyCondition:
    def test_none_passthrough(self):
        x = np.ones((4, 16))
        assert np.array_equal(apply_condition(x, None, 5, SCHED, None), x)

    def test_clean_boundary_copies_exactly(self):
        cond = mask_from_layout(make_layout(), DCFG, "cate")
        x = np.random.default_rng(0).standard_normal((4, 16))
        out = apply_condition(x, cond, -1, SCHED, np.random.default_rng(1))
        assert np.array_equal(out[cond.mask], cond.values[cond.mask])
        assert np.array_equal(out[~cond.mask], x[~cond.mask])

    def test_noised_entries_have_forward_marginals(self):
        cond = mask_from_layout(make_layout(), DCFG, "cate")
        rng = np.random.default_rng(2)
        t = 30
        draws = np.stack([
            apply_condition(np.zeros((4, 16)), cond, t, SCHED, rng)[cond.mask]
            for _ in range(20000)
        ])
        ab = SCHED.alpha_bar[t]
        expect_mean = np.sqrt(ab) * cond.values[cond.mask]
        se = np.sqrt((1 - ab) / 20000)
        assert np.all(np.abs(draws.mean(axis=0) - expect_mean) < 4.5 * se)
        assert np.allclose(draws.var(axis=0), 1 - ab, rtol=0.08)


class TestSampleTokens:
    def test_forward_trace_oracle_inversion(self):
        """A predictor that replays the true noise makes eta=0 DDIM return x0.

        The x_T the sampler draws from its rng defines eps implicitly via the
        forward closed form; replaying that eps at every step must invert the
        whole chain to machine precision.
        """
        rng = np.random.default_rng(3)
        for _ in range(100):
            x0 = rng.uniform(-1, 1, (4, 16))
            seed_rng = np.random.default_rng(rng.integers(2**32))
            eps = seed_rng.standard_normal((4, 16))
            # the trace oracle recovers eps from (x, t) on the noising line
            def oracle(x, t):
                return (x - np.sqrt(SCHED.alpha_bar[t]) * x0) / np.sqrt(1 - SCHED.alpha_bar[t])
            class FixedStart:
                def __init__(self, eps):
                    self.eps = eps
                def standard_normal(self, shape):
                    return self.eps

            xT = q_sample(x0, SCHED.T - 1, eps, SCHED)
            start = FixedStart(xT)
            out, _ = sample_tokens(oracle, SCHED, (4, 16), start, method="ddim")
            assert np.max(np.abs(out - x0)) < 1e-4

    def test_zero_predictor_ddim_is_contraction_to_zero(self):
        out, _ = sample_tokens(zero_predictor, SCHED, (4, 16),
                               np.random.default_rng(4), method="ddim")
        # x0_pred = x_T / sqrt(abar_T) once, then stays; bounded, not exploded
        assert np.all(np.isfinite(out))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sample_tokens(zero_predictor, SCHED, (1, 16),
                          np.random.default_rng(0), method="euler")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(method="euler"), "method must be 'ddpm' or 'ddim', got 'euler'"),
        (dict(method="ddim", eta=1.5), "eta must be in [0, 1], got 1.5"),
        (dict(eta=-0.5), "eta must be in [0, 1], got -0.5"),
        (dict(eta=float("nan")), "eta must be in [0, 1], got nan"),
        (dict(eta=0.7), "eta 0.7 sets DDIM's noise; method 'ddpm' takes no eta"),
        (dict(capture_stride=0), "capture_stride must be >= 1, got 0"),
        (dict(capture_stride=-3), "capture_stride must be >= 1, got -3"),
        (dict(n_samples=0), "n_samples must be >= 1, got 0"),
        (dict(n_samples=-1), "n_samples must be >= 1, got -1"),
    ], ids=["method", "eta-1.5", "eta-neg", "eta-nan", "eta-ddpm", "stride-0", "stride-neg",
            "n-0", "n-neg"])
    def test_bad_argument_fails_before_x_T(self, kwargs, message):
        """One ValueError naming the argument, before any draw or model call."""
        class NoDraws:
            def standard_normal(self, shape):
                raise AssertionError("x_T was drawn")

        def no_model(x, t):
            raise AssertionError("the model was called")

        with pytest.raises(ValueError, match=re.escape(message)):
            if "n_samples" in kwargs:
                cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
                sample_nonar(init_params(cfg, seed=0), cfg, SCHED, DCFG,
                             kwargs["n_samples"], seed=0)
            else:
                sample_tokens(no_model, SCHED, (1, 16), NoDraws(), **kwargs)

    def test_trajectory_capture_counts(self):
        for stride in (1, 7, 25, 100):
            _, traj = sample_tokens(zero_predictor, SCHED, (2, 16),
                                    np.random.default_rng(5), method="ddim",
                                    capture_stride=stride)
            assert len(traj) == int(np.ceil(SCHED.T / stride)) + 1
            ts = [t for t, _ in traj]
            assert ts[0] == SCHED.T - 1 and ts[-1] == -1
            assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_non_finite_step_names_sample_and_t(self):
        def diverging(x, t):
            eps = np.zeros_like(x)
            if t == 37:
                eps[1, 2, 5] = np.nan
            return eps

        with pytest.raises(FloatingPointError, match=r"^sample 1 .* at t=37$"):
            sample_tokens(diverging, SCHED, (3, 4, 16),
                          np.random.default_rng(7), method="ddim")

    def test_no_capture_by_default(self):
        _, traj = sample_tokens(zero_predictor, SCHED, (2, 16),
                                np.random.default_rng(6), method="ddim")
        assert traj is None


class TestModelSamplers:
    def test_nonar_seeded_determinism(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
        params = init_params(cfg, seed=0)
        _, tok_a, _ = sample_nonar(params, cfg, SCHED, DCFG, 3, seed=11)
        _, tok_b, _ = sample_nonar(params, cfg, SCHED, DCFG, 3, seed=11)
        assert np.array_equal(tok_a, tok_b)

    def test_nonar_samples_differ_across_indices(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
        params = init_params(cfg, seed=0)
        _, toks, _ = sample_nonar(params, cfg, SCHED, DCFG, 2, seed=12)
        assert not np.array_equal(toks[0], toks[1])

    def test_incompatible_config_rejected(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=8)
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError):
            sample_nonar(params, cfg, SCHED, DCFG, 1, seed=0)

    def test_conditioning_is_exact_at_output(self):
        """Every sampled layout carries the conditioned categories verbatim."""
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
        params = init_params(cfg, seed=0)
        ref = make_layout()
        cond = mask_from_layout(ref, DCFG, "cate")
        layouts, toks, _ = sample_nonar(params, cfg, SCHED, DCFG, 8, seed=13,
                                        mask=cond)
        ref_cats = [b.c for b in ref.boxes]
        for lay, tok in zip(layouts, toks):
            assert [b.c for b in lay.boxes] == ref_cats
            assert np.array_equal(tok[cond.mask], cond.values[cond.mask])

    def test_cate_size_fixes_h_and_w(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
        params = init_params(cfg, seed=0)
        ref = make_layout()
        cond = mask_from_layout(ref, DCFG, "cate_size")
        layouts, _, _ = sample_nonar(params, cfg, SCHED, DCFG, 4, seed=14,
                                     mask=cond)
        # scene dims are not conditioned, so compare in scene-relative units
        for lay in layouts:
            for got, want in zip(lay.boxes, ref.boxes):
                assert got.c == want.c
                assert got.h / lay.H == pytest.approx(want.h / ref.H, abs=1e-12)
                assert got.w / lay.W == pytest.approx(want.w / ref.W, abs=1e-12)

    def test_ar_requires_ar_mode(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
        params = init_params(cfg, seed=0)
        from layoutdiff.model import UnsupportedModeError
        with pytest.raises(UnsupportedModeError):
            sample_ar(params, cfg, SCHED, DCFG, 1, seed=0)

    def test_nonar_rejects_ar_mode(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4, ar_mode=True)
        params = random_params(cfg, seed=0)
        from layoutdiff.model import UnsupportedModeError
        with pytest.raises(UnsupportedModeError, match="ar_mode"):
            sample_nonar(params, cfg, SCHED, DCFG, 1, seed=0)

    def test_ar_seeded_determinism(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=2, ar_mode=True)
        dcfg = DatasetConfig(n_max=2, num_categories=5, h_max=256.0, w_max=256.0)
        params = init_params(cfg, seed=1)
        _, a, _ = sample_ar(params, cfg, SCHED, dcfg, 2, seed=15)
        _, b, _ = sample_ar(params, cfg, SCHED, dcfg, 2, seed=15)
        assert np.array_equal(a, b)

    def test_ar_default_is_ddpm(self):
        """Both samplers default to DDPM; DDIM at eta 0 needs method="ddim"."""
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=2, ar_mode=True)
        dcfg = DatasetConfig(n_max=2, num_categories=5, h_max=256.0, w_max=256.0)
        params = random_params(cfg, seed=21, scale=0.05)
        _, default, _ = sample_ar(params, cfg, SCHED, dcfg, 2, seed=22)
        _, ddpm, _ = sample_ar(params, cfg, SCHED, dcfg, 2, seed=22, method="ddpm")
        _, ddim, _ = sample_ar(params, cfg, SCHED, dcfg, 2, seed=22, method="ddim")
        assert default.tobytes() == ddpm.tobytes()
        assert default.tobytes() != ddim.tobytes()

    def test_n_max_1_ar_equals_nonar_sampling_loop(self):
        """With one token there is no prefix, so the AR predictor degenerates
        to a single full pass; driving both through the same DDIM loop with
        the same rng must agree bit for bit."""
        cfg = ModelConfig(layers=2, heads=2, hidden=16, n_max=1, ar_mode=True)
        params = init_params(cfg, seed=2)
        # make the network non-trivial
        rng = np.random.default_rng(3)
        for k, v in params.items():
            params[k] = (v + rng.standard_normal(v.shape) * 0.05).astype(v.dtype)

        from layoutdiff import model as M

        pred_ar = ar_predictor(params, cfg)

        def pred_single_pass(x, t):
            return np.asarray(
                M.forward_ar(params, cfg, x, np.zeros((0, 16)), t), dtype=np.float64)

        out_a, _ = sample_tokens(pred_ar, SCHED, (1, 16),
                                 np.random.default_rng(16), method="ddim")
        out_b, _ = sample_tokens(pred_single_pass, SCHED, (1, 16),
                                 np.random.default_rng(16), method="ddim")
        assert np.array_equal(out_a, out_b)

    def test_sample_streams_differ_across_seeds(self):
        """Sample 1 of seed 0 and sample 0 of seed 1 draw different noise."""
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=4)
        params = init_params(cfg, seed=0)
        _, a, _ = sample_nonar(params, cfg, SCHED, DCFG, 2, seed=0)
        _, b, _ = sample_nonar(params, cfg, SCHED, DCFG, 1, seed=1)
        assert not np.allclose(a[1], b[0])

    @pytest.mark.parametrize("ar", [False, True])
    def test_first_sample_does_not_depend_on_batch_size(self, ar):
        cfg = ModelConfig(layers=2, heads=2, hidden=16, n_max=4, ar_mode=ar)
        params = random_params(cfg, seed=17, scale=0.05)
        sampler = sample_ar if ar else sample_nonar
        cond = mask_from_layout(make_layout(), DCFG, "cate")
        _, three, _ = sampler(params, cfg, SCHED, DCFG, 3, seed=18, mask=cond)
        _, one, _ = sampler(params, cfg, SCHED, DCFG, 1, seed=18, mask=cond)
        np.testing.assert_allclose(three[0], one[0], rtol=0, atol=1e-9)
        assert not np.allclose(three[0], three[1])

    @pytest.mark.parametrize("ar", [False, True])
    def test_ddpm_samples_as_ddim_at_eta_1(self, ar):
        cfg = ModelConfig(layers=2, heads=2, hidden=16, n_max=4, ar_mode=ar)
        params = random_params(cfg, seed=19, scale=0.05)
        sampler = sample_ar if ar else sample_nonar
        cond = mask_from_layout(make_layout(), DCFG, "cate")
        _, ddpm, _ = sampler(params, cfg, SCHED, DCFG, 3, seed=20, mask=cond, method="ddpm")
        _, ddim, _ = sampler(params, cfg, SCHED, DCFG, 3, seed=20, mask=cond,
                             method="ddim", eta=1.0)
        assert ddpm.tobytes() == ddim.tobytes()

    def test_batched_ar_trajectories_split_per_sample(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=2, ar_mode=True)
        dcfg = DatasetConfig(n_max=2, num_categories=5, h_max=256.0, w_max=256.0)
        params = random_params(cfg, seed=19, scale=0.05)
        _, toks, trajs = sample_ar(params, cfg, SCHED, dcfg, 3, seed=20,
                                   capture_stride=25)
        assert len(trajs) == 3
        for i, traj in enumerate(trajs):
            assert [t for t, _ in traj] == [99, 74, 49, 24, -1]
            assert all(m.shape == (2, 16) for _, m in traj)
            assert np.array_equal(traj[-1][1], toks[i])
        assert not np.array_equal(trajs[0][0][1], trajs[1][0][1])


class TestARCache:
    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("batch", [(), (1,), (3,)])
    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_cached_predictor_matches_uncached_calls(self, n_max, batch, dtype, atol):
        cfg = ModelConfig(layers=2, heads=2, hidden=16, n_max=n_max, ar_mode=True)
        params = random_params(cfg, seed=21, dtype=dtype)
        x = np.random.default_rng(22).standard_normal(batch + (n_max, 16))
        for t in (0, 57, 99):
            want = np.zeros_like(x)
            for i in range(n_max):
                want[..., i, :] = forward_ar(params, cfg, x, want[..., :i, :], t)
            got = ar_predictor(params, cfg)(x, t)
            assert got.shape == x.shape and got.dtype == np.float64
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    def test_calls_out_of_order_rejected(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=3, ar_mode=True)
        params = random_params(cfg, seed=23)
        x = np.zeros((3, 16))
        cache = ARStepCache()
        with pytest.raises(ValueError, match="holds 0 positions"):
            forward_ar(params, cfg, x, np.zeros((1, 16)), 5, cache=cache)
        forward_ar(params, cfg, x, np.zeros((0, 16)), 5, cache=cache)
        with pytest.raises(ValueError, match="holds 4 positions"):
            forward_ar(params, cfg, x, np.zeros((2, 16)), 5, cache=cache)

    def test_batch_change_refused(self):
        """numpy would fail deep in the attention with a broadcast error."""
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=3, ar_mode=True)
        params = random_params(cfg, seed=23)
        cache = ARStepCache()
        forward_ar(params, cfg, np.zeros((2, 3, 16)), np.zeros((2, 0, 16)), 5, cache=cache)
        with pytest.raises(ValueError, match=r"^the step cache holds batch 2 with room for 6 "
                           r"positions, but this call has batch 3 and would fill positions 4 to 5$"):
            forward_ar(params, cfg, np.zeros((3, 3, 16)), np.zeros((3, 1, 16)), 5, cache=cache)

    def test_rows_past_capacity_refused(self):
        cfg = ModelConfig(layers=1, heads=2, hidden=8, n_max=3, ar_mode=True)
        params = random_params(cfg, seed=23)
        cache = ARStepCache()
        forward_ar(params, cfg, np.zeros((2, 3, 16)), np.zeros((2, 0, 16)), 5, cache=cache)
        mods, _ = M.timestep_modulations(params, cfg, 5)
        with pytest.raises(ValueError, match=r"^the step cache holds batch 2 with room for 6 "
                           r"positions, but this call has batch 2 and would fill positions 4 to 7$"):
            M._forward_core(params, cfg, np.zeros((2, 3, 8)), mods, step=cache)


def concat_core(params, cfg, h0, mods, held, bias):
    """A cached AR call as the step cache first ran it: each layer
    concatenates its held K/V with the new rows' and attends over the
    result, with bias added on the prefix call."""
    nh, dh = cfg.heads, cfg.hidden // cfg.heads
    B, S, H = h0.shape
    mods = mods.transpose(1, 0, 2)[:, :, None, :]
    x = h0
    for i in range(cfg.layers):
        w = {name: params[f"blocks.{i}.{name}"] for name in M._BLOCK_WEIGHTS}
        sh1, sc1, g1, sh2, sc2, g2 = mods[6 * i : 6 * i + 6]
        qkv = M._matmul_rows(M._layernorm(x)[0] * sc1 + sh1, w["attn.wqkv"]) + w["attn.bqkv"]
        q, k, v = qkv.reshape(B, S, 3, nh, dh).transpose(2, 0, 3, 1, 4)
        if i in held:
            k = np.concatenate([held[i][0], k], axis=2)
            v = np.concatenate([held[i][1], v], axis=2)
        held[i] = (k, v)
        probs = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(dh))
        if bias is not None:
            probs += bias
        probs = np.exp(probs - probs.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B, S, H)
        x2 = g1 * (M._matmul_rows(ctx, w["attn.wo"]) + w["attn.bo"]) + x
        um = M._matmul_rows(M._layernorm(x2)[0] * sc2 + sh2, w["mlp.w1"]) + w["mlp.b1"]
        x = g2 * (M._matmul_rows(M._gelu(um)[0], w["mlp.w2"]) + w["mlp.b2"]) + x2
    sh_f, sc_f = mods[-2:]
    return M._matmul_rows(M._layernorm(x)[0] * sc_f + sh_f, params["head.w"]) + params["head.b"]


def concat_predictor(params, cfg, table=None):
    """ar_predictor over concat_core."""
    n, dtype = cfg.n_max, params["in_proj.w"].dtype

    def predictor(x, t):
        mods = (M.timestep_modulations(params, cfg, t)[0] if table is None
                else M.modulation_row(table, t))
        held = {}
        eps = np.zeros(x.shape)
        for i in range(n):
            if i == 0:
                h0, bias = M._embed_ar(params, cfg, x, eps[:, :0]), M._ar_bias(n, 0, dtype)
            else:
                h0, bias = M._embed_noise(params, eps[:, i - 1 : i].astype(dtype), n + i), None
            eps[:, i] = concat_core(params, cfg, h0, mods, held, bias)[:, -1]
        return eps

    return predictor


class TestDecodeEqualsConcat:
    """The step cache's preallocated buffers and bias-free decode give the
    bytes of concatenating the K/V on every call."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_table", [False, True], ids=["no_table", "table"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n_max", [1, 5])
    def test_ar_predictor_bytes(self, n_max, batch, with_table, dtype):
        cfg = ModelConfig(layers=3, heads=4, hidden=32, n_max=n_max, ar_mode=True)
        params = random_params(cfg, seed=24, dtype=dtype, scale=0.1)
        table = M.timestep_modulations(params, cfg, np.arange(50))[0] if with_table else None
        x = np.random.default_rng(25).standard_normal((batch, n_max, 16))
        got, want = ar_predictor(params, cfg, table), concat_predictor(params, cfg, table)
        for t in (0, 17, 49):
            assert got(x, t).tobytes() == want(x, t).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_modulation_row_per_sample(self, dtype):
        """A t per sample gives each sample its own modulation row, which the
        prefix call repeats over the sample's n_max + 1 rows."""
        cfg = ModelConfig(layers=3, heads=4, hidden=32, n_max=5, ar_mode=True)
        params = random_params(cfg, seed=26, dtype=dtype, scale=0.1)
        x = np.random.default_rng(27).standard_normal((3, 5, 16))
        t = np.array([3, 40, 7])
        got = ar_predictor(params, cfg)(x, t)
        assert got.tobytes() == concat_predictor(params, cfg)(x, t).tobytes()
        assert not np.array_equal(got[0], ar_predictor(params, cfg)(x, 40)[0])
