import dataclasses
import errno
import io
import json
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from layoutdiff import model as M
from layoutdiff import training
from layoutdiff.core import DatasetConfig, tokenize_layout
from layoutdiff.data import synth_layout_corpus
from layoutdiff.model import ModelConfig, forward_nonar, nonar_loss_and_grads
from layoutdiff.schedule import ConfigError, build_schedule
from layoutdiff.training import (
    CKPT_MAGIC,
    ENTRY_KEYS,
    MANIFEST_KEYS,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    adamw_update,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train_loop,
    train_step_ar,
    train_step_nonar,
)

TINY = ModelConfig(layers=2, heads=2, hidden=16, n_max=4)
TINY_AR = ModelConfig(layers=2, heads=2, hidden=16, n_max=4, ar_mode=True)
DCFG = DatasetConfig(n_max=4, num_categories=5, h_max=256.0, w_max=256.0)


def corpus_tokens(n_max=4, n=16):
    dcfg, layouts = synth_layout_corpus(0, n, style="grid", n_max=n_max)
    return np.stack([tokenize_layout(l, dcfg) for l in layouts]).astype(np.float32)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-4 and cfg.weight_decay == 0.01
        assert (training.BETA1, training.BETA2, training.GRAD_CLIP) == (0.9, 0.999, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="both")


    @pytest.mark.parametrize("field,value", [
        ("weight_decay", -0.01), ("total_steps", -3), ("checkpoint_every", -1),
    ])
    def test_optimizer_fields_validated(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})


    @pytest.mark.parametrize("variant,model_cfg", [("nonar", TINY_AR), ("ar", TINY)])
    def test_variant_must_match_ar_mode(self, variant, model_cfg):
        with pytest.raises(ConfigError, match=r"variant .* ModelConfig\.ar_mode"):
            init_state(TrainConfig(variant=variant), model_cfg, DCFG)

    def test_train_loop_rejects_mismatch_before_a_step(self):
        """One-pass training of an AR config fails at once, not with a bare
        KeyError after a full forward and backward."""
        with pytest.raises(ConfigError, match="TrainConfig.variant 'nonar'"):
            train_loop(TrainConfig(variant="nonar", total_steps=1), TINY_AR, DCFG,
                       corpus_tokens())


class TestTrainSteps:
    def test_step0_loss_near_one(self):
        """Zero-init head predicts 0, so the loss is E[eps^2] = 1 per entry."""
        state = init_state(TrainConfig(seed=0, batch_size=128), TINY, DCFG)
        batch = corpus_tokens()[np.zeros(128, dtype=int)]
        loss = train_step_nonar(state, batch)
        # 128 * 4 * 16 = 8192 entries of squared standard normals
        assert abs(loss - 1.0) < 0.05

    def test_loss_decreases_over_short_run(self):
        tokens = corpus_tokens()
        state = init_state(
            TrainConfig(seed=1, lr=1e-3, batch_size=16, weight_decay=0.0), TINY, DCFG)
        first = np.mean([train_step_nonar(state, tokens) for _ in range(20)])
        for _ in range(160):
            train_step_nonar(state, tokens)
        last = np.mean([train_step_nonar(state, tokens) for _ in range(20)])
        assert last < first

    def test_ar_step_runs_and_is_finite(self):
        tokens = corpus_tokens()
        state = init_state(TrainConfig(seed=2, variant="ar"), TINY_AR, DCFG)
        loss = train_step_ar(state, tokens)
        assert np.isfinite(loss)
        # sum of 4 per-token means of squared standard normals, so about 4
        assert 2.0 < loss < 6.0

    def test_seeded_runs_identical(self):
        tokens = corpus_tokens()
        losses = []
        for _ in range(2):
            state = init_state(TrainConfig(seed=3), TINY, DCFG)
            losses.append([train_step_nonar(state, tokens) for _ in range(5)])
        assert losses[0] == losses[1]

    def test_nonfinite_loss_raises(self):
        tokens = corpus_tokens()
        state = init_state(TrainConfig(seed=4), TINY, DCFG)
        state.params["head.b"][:] = np.nan
        with pytest.raises(TrainingDiverged):
            train_step_nonar(state, tokens)


class TestAdamW:
    def test_decoupled_weight_decay_direction(self):
        # zero gradients: parameters shrink toward zero at rate lr*wd
        state = init_state(TrainConfig(lr=0.1, weight_decay=0.5), TINY, DCFG)
        name = "in_proj.w"
        before = state.params[name].copy()
        adamw_update(state, {k: np.zeros_like(v) for k, v in state.params.items()})
        assert np.allclose(state.params[name], before * (1 - 0.1 * 0.5), atol=1e-7)

    def test_grad_clip_rescales_global_norm(self):
        results = []
        for grad_clip in (1.0, None):
            state = init_state(TrainConfig(), TINY, DCFG)
            params, m, v = state.params, state.adam_m, state.adam_v
            grads = {k: np.full_like(p, 100.0) for k, p in params.items()}
            adamw_step(params, m, v, grads, 1, 1e-2, grad_clip=grad_clip)
            results.append({k: p.copy() for k, p in params.items()})
        # adam normalizes by sqrt(v), so one huge uniform step lands in the
        # same place with or without clipping
        for k in results[0]:
            assert np.allclose(results[0][k], results[1][k], atol=1e-6)

    def test_cosine_schedule_decays_to_zero(self):
        cfg = TrainConfig(lr=1.0, weight_decay=0.0, lr_schedule="cosine", total_steps=4)
        state = init_state(cfg, TINY, DCFG)
        grads = {k: np.ones_like(v) for k, v in state.params.items()}
        deltas = []
        k = "in_proj.w"
        for _ in range(4):
            before = state.params[k].copy()
            adamw_update(state, grads)
            deltas.append(float(np.abs(state.params[k] - before).max()))
        # lr follows 0.5*(1 + cos(pi * step/total)): monotone to ~0
        assert deltas[0] > deltas[1] > deltas[2] > deltas[3]
        assert deltas[3] < 0.2 * deltas[0]

    def test_bad_lr_schedule_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr_schedule="linear")

    @staticmethod
    def textbook_adamw(params, m, v, grads, t, cfg, grad_clip):
        """AdamW as written before the in-place update, one tensor at a time,
        with the published betas: clip, moments, bias corrections, then
        decoupled weight decay."""
        beta1, beta2 = 0.9, 0.999
        if grad_clip is not None:
            norm = np.sqrt(sum(np.sum(grads[k] ** 2) for k in params))
            if norm > grad_clip:
                grads = {k: g * (grad_clip / norm) for k, g in grads.items()}
        lr = cfg.lr
        if cfg.lr_schedule == "cosine":
            frac = min((t - 1) / max(cfg.total_steps, 1), 1.0)
            lr = cfg.lr * 0.5 * (1.0 + np.cos(np.pi * frac))
        for k in params:
            m[k] = beta1 * m[k] + (1.0 - beta1) * grads[k]
            v[k] = beta2 * v[k] + (1.0 - beta2) * grads[k] ** 2
            mhat = m[k] / (1.0 - beta1**t)
            vhat = v[k] / (1.0 - beta2**t)
            params[k] = params[k] - lr * (
                mhat / (np.sqrt(vhat) + 1e-8) + cfg.weight_decay * params[k])

    # random unit-normal grads over TINY's ~6k parameters have a global norm
    # near 80: the GRAD_CLIP of 1 always fires; in place of it, a clip of 1e4
    # never does, and None is the unclipped path that train_adapter takes
    @pytest.mark.parametrize("grad_clip,fires", [(1.0, True), (1e4, False), (None, False)])
    @pytest.mark.parametrize("lr_schedule", ["constant", "cosine"])
    def test_matches_textbook_adamw_in_float64(self, monkeypatch, grad_clip, fires,
                                               lr_schedule):
        monkeypatch.setattr(training, "GRAD_CLIP", grad_clip)
        cfg = TrainConfig(lr=1e-2, weight_decay=0.1, lr_schedule=lr_schedule, total_steps=5)
        state = init_state(cfg, TINY, DCFG, dtype=np.float64)
        rng = np.random.default_rng(18)
        state.params = {k: rng.standard_normal(p.shape) * 0.1 for k, p in state.params.items()}
        params = {k: p.copy() for k, p in state.params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t in range(1, 6):
            grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            norm = np.sqrt(sum(np.sum(g**2) for g in grads.values()))
            assert fires == (grad_clip is not None and norm > grad_clip)
            adamw_update(state, grads)
            self.textbook_adamw(params, m, v, grads, t, cfg, grad_clip)
        for got, want in ((state.params, params), (state.adam_m, m), (state.adam_v, v)):
            for k in want:
                np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-12, err_msg=k)

    def test_grads_left_unchanged_when_clipping_fires(self):
        state = init_state(TrainConfig(), TINY, DCFG)
        grads = {k: np.full_like(v, 100.0) for k, v in state.params.items()}
        arrays = dict(grads)
        before = {k: g.copy() for k, g in grads.items()}
        adamw_update(state, grads)
        assert grads.keys() == arrays.keys()
        assert all(grads[k] is arrays[k] for k in arrays)
        for k in before:
            assert np.array_equal(grads[k], before[k]), k


class TestTrainLoop:
    def test_log_format_and_length(self, tmp_path):
        tokens = corpus_tokens()
        log = tmp_path / "loss.log"
        train_loop(
            TrainConfig(seed=0, total_steps=7, batch_size=4), TINY, DCFG, tokens,
            log_path=str(log))
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 7
        for i, line in enumerate(lines):
            step, loss, millis = line.split("\t")
            assert int(step) == i + 1
            assert float(loss) >= 0.0 and float(millis) >= 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_loop(TrainConfig(total_steps=1), TINY, DCFG,
                       np.zeros((0, 4, 16)))

    def test_divergence_snapshot_beside_checkpoint_loads(self, tmp_path):
        """A non-finite loss saves the state it was reached from next to the
        checkpoint, under its step, and that file loads."""
        tokens = corpus_tokens()
        tokens[:, 1, 0] = np.nan  # in every record, so the first batch holds one
        ckpt = tmp_path / "model.ckpt"
        with pytest.raises(TrainingDiverged, match="non-finite loss nan at step 0") as info:
            train_loop(TrainConfig(seed=0, total_steps=5, batch_size=4), TINY, DCFG,
                       tokens, checkpoint_path=str(ckpt))
        assert info.value.snapshot_path == str(tmp_path / "diverged_step0.ckpt")
        loaded = load_checkpoint(info.value.snapshot_path)
        assert loaded.step == 0 and loaded.model_cfg == TINY
        assert not ckpt.exists()

    def test_deterministic_final_params(self, tmp_path):
        tokens = corpus_tokens()
        finals = []
        for _ in range(2):
            state = train_loop(
                TrainConfig(seed=9, total_steps=5, batch_size=4), TINY, DCFG, tokens)
            finals.append(state.params)
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k])


class TestWorkspace:
    """Train steps write their forward cache and grads into the state's
    workspace, reused from step to step; the bytes must be those of steps
    whose loss calls get no workspace and allocate every array."""

    KINDS = {
        "onepass": TINY,
        "variance": ModelConfig(layers=2, heads=2, hidden=16, n_max=4, variance_head=True),
        "ar": TINY_AR,
    }

    @staticmethod
    def without_workspace(monkeypatch):
        for name in ("nonar_loss_and_grads", "ar_loss_and_grads"):
            fn = getattr(M, name)
            monkeypatch.setattr(M, name, lambda *a, _fn=fn, ws=None, **kw: _fn(*a, **kw))

    def train(self, kind, dtype, batch_sizes):
        cfg = self.KINDS[kind]
        state = init_state(TrainConfig(seed=31, lr=1e-3, variant="ar" if cfg.ar_mode else "nonar"),
                           cfg, DCFG, build_schedule(20), dtype=dtype)
        step = train_step_ar if cfg.ar_mode else train_step_nonar
        tokens = corpus_tokens()
        losses = [step(state, tokens[:b]) for b in batch_sizes]
        return state, losses

    def assert_same_state(self, a, b):
        for group in ("params", "adam_m", "adam_v"):
            x, y = getattr(a, group), getattr(b, group)
            for k in x:
                assert x[k].tobytes() == y[k].tobytes(), (group, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_same_bytes_as_fresh_arrays(self, monkeypatch, kind, dtype):
        state, losses = self.train(kind, dtype, [8] * 4)
        assert state.workspace
        with monkeypatch.context() as mp:
            self.without_workspace(mp)
            fresh, fresh_losses = self.train(kind, dtype, [8] * 4)
        assert fresh.workspace == {}
        assert losses == fresh_losses
        self.assert_same_state(state, fresh)

    def test_batch_size_change_remakes_buffers(self, monkeypatch):
        state, losses = self.train("onepass", np.float32, [8, 5, 8, 5])
        assert state.workspace["blocks.0.xn1"].shape[0] == 5
        with monkeypatch.context() as mp:
            self.without_workspace(mp)
            fresh, fresh_losses = self.train("onepass", np.float32, [8, 5, 8, 5])
        assert losses == fresh_losses
        self.assert_same_state(state, fresh)

    def test_calls_without_workspace_return_fresh_grads(self):
        params = M.init_params(TINY, seed=0)
        rng = np.random.default_rng(0)
        xt, eps = rng.standard_normal((2, 3, 4, 16))
        t = np.array([1, 7, 13])
        _, first = nonar_loss_and_grads(params, TINY, xt, t, eps)
        _, second = nonar_loss_and_grads(params, TINY, xt, t, eps)
        for k in first:
            assert not np.shares_memory(first[k], second[k]), k

    def test_warm_step_allocates_a_third_of_the_first(self):
        """Once the workspace holds the cache and grads, a step's traced
        peak above its start is the temporaries alone."""
        cfg = ModelConfig(layers=2, heads=2, hidden=64, n_max=8)
        dcfg = DatasetConfig(n_max=8, num_categories=5, h_max=256.0, w_max=256.0)
        state = init_state(TrainConfig(seed=32), cfg, dcfg)
        tokens = corpus_tokens(n_max=8)
        rises = []
        tracemalloc.start()
        try:
            for _ in range(3):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                train_step_nonar(state, tokens)
                rises.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert rises[2] <= rises[0] / 3, rises

    def test_checkpoint_holds_no_workspace(self, tmp_path):
        state, _ = self.train("onepass", np.float32, [8])
        path = str(tmp_path / "ws.ckpt")
        save_checkpoint(path, state)
        assert load_checkpoint(path).workspace == {}


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        tokens = corpus_tokens()
        state = init_state(TrainConfig(seed=5), TINY, DCFG)
        for _ in range(3):
            train_step_nonar(state, tokens)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        assert loaded.step == state.step
        assert loaded.model_cfg == TINY
        assert loaded.train_cfg == state.train_cfg
        assert loaded.sched.T == state.sched.T
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(state, group), getattr(loaded, group)
            assert sorted(a) == sorted(b)
            for k in a:
                assert np.array_equal(a[k], b[k]), (group, k)

    def test_resume_is_bit_for_bit(self, tmp_path):
        """10 straight steps == 5 steps, checkpoint, reload, 5 more steps."""
        tokens = corpus_tokens()
        cfg = TrainConfig(seed=6, lr=1e-3, batch_size=8)

        straight = init_state(cfg, TINY, DCFG)
        for _ in range(10):
            train_step_nonar(straight, tokens)

        resumed = init_state(cfg, TINY, DCFG)
        for _ in range(5):
            train_step_nonar(resumed, tokens)
        path = str(tmp_path / "mid.ckpt")
        save_checkpoint(path, resumed)
        resumed = load_checkpoint(path)
        for _ in range(5):
            train_step_nonar(resumed, tokens)

        assert straight.step == resumed.step == 10
        for k in straight.params:
            assert np.array_equal(straight.params[k], resumed.params[k]), k

    def test_magic_check(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_checkpoint(str(p))

    def test_truncated_file_names_path_and_offset(self, tmp_path):
        state = init_state(TrainConfig(seed=8), TINY, DCFG)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        data = path.read_bytes()
        magic = b"LAYOUTDIFF-CKPT\n"
        mlen = int.from_bytes(data[len(magic):len(magic) + 4], "little")
        blob_start = len(magic) + 4 + mlen
        cuts = [
            (len(magic) + 2, "length field"),
            (len(magic) + 4 + mlen // 2, "manifest .* does not parse"),
            (blob_start - 1, "manifest .* does not parse"),
            ((blob_start + len(data)) // 2, "entry .* at file offset"),
            (len(data) - 1, "entry .* at file offset"),
        ]
        for cut, message in cuts:
            short = tmp_path / f"cut_{cut}.ckpt"
            short.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=f"{re.escape(str(short))}: .*{message}"):
                load_checkpoint(str(short))

    def test_param_shape_mismatch_names_entry(self, tmp_path):
        state = init_state(TrainConfig(seed=9), TINY, DCFG)
        state.params["in_proj.b"] = np.zeros(TINY.hidden + 1, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        with pytest.raises(ValueError, match=r"param/in_proj\.b has shape \(17,\)"):
            load_checkpoint(str(path))

    def test_float64_state_roundtrips_bit_exact(self, tmp_path):
        tokens = corpus_tokens()
        state = init_state(TrainConfig(seed=10), TINY, DCFG, dtype=np.float64)
        for _ in range(3):
            train_step_nonar(state, tokens)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(state, group), getattr(loaded, group)
            for k in a:
                assert a[k].dtype == b[k].dtype == np.float64, (group, k)
                assert np.array_equal(a[k], b[k]), (group, k)

    @staticmethod
    def rewrite_manifest(path, edit):
        """Apply edit(manifest) to a checkpoint file's manifest in place."""
        data = path.read_bytes()
        magic = b"LAYOUTDIFF-CKPT\n"
        mlen = int.from_bytes(data[len(magic):len(magic) + 4], "little")
        manifest = json.loads(data[len(magic) + 4:len(magic) + 4 + mlen])
        edit(manifest)
        payload = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
        path.write_bytes(magic + len(payload).to_bytes(4, "little") + payload
                         + data[len(magic) + 4 + mlen:])

    def test_entry_dtype_checked(self, tmp_path):
        state = init_state(TrainConfig(seed=12), TINY, DCFG)
        for dtype, message in (("<i4", r"entry param/\S+ has dtype '<i4'"),
                               ("<f8", r"entry param/\S+ of shape .* and dtype <f8 takes")):
            path = tmp_path / f"bad_{dtype[1:]}.ckpt"
            save_checkpoint(str(path), state)
            self.rewrite_manifest(
                path, lambda m: m["entries"][0].update(dtype=dtype))
            with pytest.raises(ValueError, match=message):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("group", ["model_cfg", "data_cfg", "train_cfg"])
    def test_unknown_config_key_names_path_and_group(self, tmp_path, group):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=13), TINY, DCFG))
        self.rewrite_manifest(path, lambda m: m[group].update(dropout=0.1))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {group} .*dropout"):
            load_checkpoint(str(path))

    def test_bad_gelu_names_path_and_group(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=14), TINY, DCFG))
        self.rewrite_manifest(path, lambda m: m["model_cfg"].update(gelu="relu"))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: model_cfg .*'relu'"):
            load_checkpoint(str(path))

    def test_erf_model_loads_with_same_predictions(self, tmp_path):
        """An exact-GELU model keeps its form, and with it its predictions,
        bit for bit."""
        cfg = ModelConfig(layers=2, heads=2, hidden=16, n_max=4, gelu="erf")
        state = init_state(TrainConfig(seed=15, lr=1e-2), cfg, DCFG)
        for _ in range(3):
            train_step_nonar(state, corpus_tokens())
        x = np.random.default_rng(16).standard_normal((3, 4, 16)).astype(np.float32)
        t = np.array([0, 40, 99])
        before = forward_nonar(state.params, cfg, x, t).eps_hat
        path = tmp_path / "erf.ckpt"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        assert loaded.model_cfg == cfg
        after = forward_nonar(loaded.params, loaded.model_cfg, x, t).eps_hat
        assert after.tobytes() == before.tobytes()
        # the tanh form is a different function of the same parameters
        tanh = forward_nonar(loaded.params, TINY, x, t).eps_hat
        assert not np.array_equal(tanh, before)

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        state = init_state(TrainConfig(seed=7), TINY, DCFG)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        assert path.exists()
        assert not (tmp_path / "model.ckpt.tmp").exists()

    def test_failed_write_removes_tmp_and_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=7), TINY, DCFG))
        old = path.read_bytes()

        class FullDisk(io.BufferedWriter):
            """A file whose fourth write fails, as on a full disk."""
            writes = 0

            def write(self, b):
                self.writes += 1
                if self.writes == 4:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(b)

        monkeypatch.setattr(training, "open", lambda p, mode: FullDisk(io.FileIO(p, "wb")),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(str(path), init_state(TrainConfig(seed=8), TINY, DCFG))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert path.read_bytes() == old

    # big enough that the manifest is a small share of the state's bytes
    MEDIUM = ModelConfig(layers=2, heads=4, hidden=128, n_max=4)

    @staticmethod
    def traced_rise(fn):
        """fn's result, and its tracemalloc peak above the start, in bytes."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @staticmethod
    def state_bytes(state):
        return sum(a.nbytes for d in (state.params, state.adam_m, state.adam_v)
                   for a in d.values())

    def test_save_holds_no_copy_of_the_state(self, tmp_path):
        state = init_state(TrainConfig(seed=25), self.MEDIUM, DCFG)
        _, rise = self.traced_rise(lambda: save_checkpoint(str(tmp_path / "m.ckpt"), state))
        assert rise < 0.1 * self.state_bytes(state), (rise, self.state_bytes(state))

    def test_load_holds_one_copy_of_the_state(self, tmp_path):
        state = init_state(TrainConfig(seed=26), self.MEDIUM, DCFG)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, state)
        del state
        loaded, rise = self.traced_rise(lambda: load_checkpoint(path))
        assert rise <= 1.1 * self.state_bytes(loaded), (rise, self.state_bytes(loaded))

    def test_length_field_checked_before_a_read(self, tmp_path, monkeypatch):
        """A manifest length past the end of the file is refused before
        anything past the header is read."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=27), TINY, DCFG))
        data = bytearray(path.read_bytes())
        data[len(CKPT_MAGIC):len(CKPT_MAGIC) + 4] = (0xFFFFFF00).to_bytes(4, "little")
        path.write_bytes(data)
        reached = []

        class Recording(io.BufferedReader):
            """A file that records how far each read has reached."""
            def read(self, n=-1):
                out = super().read(n)
                reached.append(self.tell())
                return out

            def readinto(self, b):
                out = super().readinto(b)
                reached.append(self.tell())
                return out

        monkeypatch.setattr(training, "open", lambda p, mode: Recording(io.FileIO(p)),
                            raising=False)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: manifest at bytes "
                                             r"20-4294967060 does not parse .*ends inside"):
            load_checkpoint(str(path))
        assert reached and max(reached) <= len(CKPT_MAGIC) + 4, reached

    def test_short_read_names_entry_and_offset(self, tmp_path, monkeypatch):
        """A file that ends early although its size said otherwise (it
        shrank after the size was taken) fails on the entry it cut."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=29), TINY, DCFG))

        class Shrunk(io.BufferedReader):
            def readinto(self, b):
                return super().readinto(memoryview(b).cast("B")[:-1])

        monkeypatch.setattr(training, "open", lambda p, mode: Shrunk(io.FileIO(p)),
                            raising=False)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: entry param/\\S+ "
                                             r"at file offset \d+ ends after \d+ of its \d+ bytes"):
            load_checkpoint(str(path))

    TILING_ERRORS = {
        # a second entry for blocks.0, pointing at blocks.1's block and crc32
        "alias": r"entry param/blocks\.0\.attn\.wqkv is at file offset \d+, the "
                 r"entries before it end at file offset \d+",
        # the same, with blocks.1's bytes copied to the end of the file
        "repeat": r"entry param/blocks\.0\.attn\.wqkv appears more than once",
        "trailing": r"the entries end at file offset \d+, the file has \d+ bytes",
    }

    @pytest.mark.parametrize("case", sorted(TILING_ERRORS))
    def test_entries_tile_the_data_section(self, tmp_path, case):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=28), TINY, DCFG))
        data = path.read_bytes()
        mlen = int.from_bytes(data[len(CKPT_MAGIC):len(CKPT_MAGIC) + 4], "little")
        blob_start = len(CKPT_MAGIC) + 4 + mlen
        if case == "trailing":
            path.write_bytes(data + bytes(400))
        else:
            entries = json.loads(data[len(CKPT_MAGIC) + 4:blob_start])["entries"]
            other = next(e for e in entries if e["name"] == "param/blocks.1.attn.wqkv")
            block = data[blob_start + other["offset"]:][:other["size"]]
            alias = {**other, "name": "param/blocks.0.attn.wqkv"}
            if case == "repeat":
                alias["offset"] = len(data) - blob_start
                path.write_bytes(data + block)
            self.rewrite_manifest(path, lambda m: m["entries"].append(alias))
        with pytest.raises(ValueError,
                           match=f"{re.escape(str(path))}: {self.TILING_ERRORS[case]}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind", ["float16_params", "int64_moment"])
    def test_save_refuses_dtype_loss(self, tmp_path, kind):
        """An array stored as <f4 or <f8 would change its values or dtype, so
        it fails before anything is written."""
        if kind == "float16_params":
            state = init_state(TrainConfig(seed=7), TINY, DCFG, dtype=np.float16)
            name, dtype = r"param/\S+", "float16"
        else:
            state = init_state(TrainConfig(seed=7), TINY, DCFG)
            state.adam_v["in_proj.b"] = np.zeros(TINY.hidden, dtype=np.int64)
            name, dtype = r"adam_v/in_proj\.b", "int64"
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {name} has dtype {dtype}"):
            save_checkpoint(str(path), state)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["float32", "float64", "erf"])
    def test_writer_and_reader_agree(self, tmp_path, kind):
        """The reader requires exactly what the writer writes, and a loaded
        file saves back to the same bytes."""
        cfg = dataclasses.replace(TINY, gelu="erf") if kind == "erf" else TINY
        dtype = np.float64 if kind == "float64" else np.float32
        state = init_state(TrainConfig(seed=24), cfg, DCFG, dtype=dtype)
        for _ in range(3):
            train_step_nonar(state, corpus_tokens())
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        data = path.read_bytes()
        mlen = int.from_bytes(data[len(CKPT_MAGIC):len(CKPT_MAGIC) + 4], "little")
        manifest = json.loads(data[len(CKPT_MAGIC) + 4:len(CKPT_MAGIC) + 4 + mlen])
        assert sorted(manifest) == sorted(MANIFEST_KEYS)
        for e in manifest["entries"]:
            assert sorted(e) == sorted(ENTRY_KEYS), e["name"]
        for group, cls in (("model_cfg", ModelConfig), ("data_cfg", DatasetConfig),
                           ("train_cfg", TrainConfig)):
            assert sorted(manifest[group]) == sorted(f.name for f in dataclasses.fields(cls))
        # the data section is every array's bytes in entry order, to the end
        blocks = [getattr(state, {"param": "params"}.get(group, group))[name].tobytes()
                  for group, name in (e["name"].split("/", 1) for e in manifest["entries"])]
        assert data[len(CKPT_MAGIC) + 4 + mlen:] == b"".join(blocks)
        assert [e["crc32"] for e in manifest["entries"]] == [zlib.crc32(b) for b in blocks]
        again = tmp_path / "again.ckpt"
        save_checkpoint(str(again), load_checkpoint(str(path)))
        assert again.read_bytes() == data

    @pytest.mark.parametrize("key", MANIFEST_KEYS)
    def test_missing_manifest_key_names_path_and_key(self, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=19), TINY, DCFG))
        self.rewrite_manifest(path, lambda m: m.pop(key))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: manifest has no '{key}'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key", ENTRY_KEYS)
    def test_missing_entry_key_names_path_and_entry(self, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=20), TINY, DCFG))
        self.rewrite_manifest(path, lambda m: m["entries"][3].pop(key))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: entry .* has no '{key}'"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["schedule"].update(kind="linear"),
         r"schedule \{'T': 100, 'kind': 'linear'\} has unknown key 'kind'"),
        (lambda m: m["schedule"].pop("T"), r"schedule \{\} does not build a schedule: .*'T'"),
        (lambda m: m["rng_state"].pop("state"), r"rng_state is not a PCG64 state"),
        (lambda m: m.update(step=2.0), r"step 2\.0 is not a non-negative integer"),
        (lambda m: m["entries"][0].update(shape=["16", 16]),
         r"entry param/\S+ has shape \['16', 16\], offset"),
        (lambda m: m["entries"][0].update(offset=-4), r"entry param/\S+ .* offset -4 "),
        (lambda m: m["entries"][0].update(name="param.in_proj.b"),
         r"entry 0 has name 'param\.in_proj\.b'"),
        (lambda m: m["entries"][0].update(name="moments/in_proj.b"),
         r"entry moments/in_proj\.b is in unknown group 'moments'"),
        (lambda m: m["model_cfg"].update(heads=0), r"model_cfg .*heads must be >= 1"),
        # what files from before the current format carried is refused
        (lambda m: m.update(version=1), r"checkpoint version 1 is not 3"),
        (lambda m: m.update(version=2), r"checkpoint version 2 is not 3"),
        (lambda m: m["entries"][0].update(name="ema/in_proj.b"),
         r"entry ema/in_proj\.b is in unknown group 'ema'"),
        (lambda m: m["train_cfg"].update(ema_decay=0.99), r"train_cfg .*'ema_decay'"),
        (lambda m: m["model_cfg"].pop("gelu"), r"model_cfg .*missing field 'gelu'"),
        # a key the writer does not write is refused, not ignored
        (lambda m: m["entries"][0].update(ema=1), r"entry 'param/\S+' has unknown key 'ema'"),
        (lambda m: m.update(extra_top={"a": 1}), r"manifest has unknown key 'extra_top'"),
    ])
    def test_bad_manifest_value_names_path(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=21), TINY, DCFG))
        self.rewrite_manifest(path, edit)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {message}"):
            load_checkpoint(str(path))

    @pytest.fixture(scope="class")
    def small_checkpoint(self, tmp_path_factory):
        """Bytes of a saved TINY state, and where its data blocks start."""
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(str(path), init_state(TrainConfig(seed=22), TINY, DCFG))
        data = path.read_bytes()
        mlen = int.from_bytes(data[len(CKPT_MAGIC):len(CKPT_MAGIC) + 4], "little")
        return data, len(CKPT_MAGIC) + 4 + mlen

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_changed_header_byte_loads_or_names_path(self, tmp_path, small_checkpoint, draw):
        """A one-byte change in the magic, the length field or the manifest
        either loads or raises ValueError naming the path, never another
        exception."""
        data, blob_start = small_checkpoint
        pos = draw.draw(st.integers(0, blob_start - 1), label="offset")
        byte = draw.draw(st.one_of(
            st.sampled_from(b'0123456789-+.eE"{}[],:/ \\ntu'), st.integers(0, 255),
        ).filter(lambda b: b != data[pos]), label="byte")
        path = tmp_path / "changed.ckpt"
        path.write_bytes(data[:pos] + bytes([byte]) + data[pos + 1:])
        try:
            load_checkpoint(str(path))
        except ValueError as e:
            assert str(e).startswith(f"{path}: "), e

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(draw=st.data())
    def test_changed_data_byte_loads_original_or_names_path(self, tmp_path,
                                                            small_checkpoint, draw):
        """A one-byte change in a data block fails its entry's crc32: never
        other numbers, never another exception."""
        data, blob_start = small_checkpoint
        pos = draw.draw(st.integers(blob_start, len(data) - 1), label="offset")
        byte = draw.draw(st.integers(0, 255).filter(lambda b: b != data[pos]),
                         label="byte")
        path = tmp_path / "changed.ckpt"
        path.write_bytes(data[:pos] + bytes([byte]) + data[pos + 1:])
        try:
            loaded = load_checkpoint(str(path))
        except ValueError as e:
            assert re.match(rf"{re.escape(str(path))}: entry \S+ at file offset \d+ "
                            r"does not match its crc32", str(e)), e
            return
        (tmp_path / "original.ckpt").write_bytes(data)
        original = load_checkpoint(str(tmp_path / "original.ckpt"))
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(original, group), getattr(loaded, group)
            for k in a:
                assert np.array_equal(a[k], b[k]), (group, k)
