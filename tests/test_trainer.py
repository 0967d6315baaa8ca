import re

import numpy as np
import pytest

from layoutdiff.core import DatasetConfig, tokenize_layout
from layoutdiff.data import synth_layout_corpus
from layoutdiff.model import ModelConfig, forward_nonar
from layoutdiff.schedule import ConfigError, build_schedule
from layoutdiff.training import (
    TrainConfig,
    TrainingDiverged,
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
        assert cfg.lr == 1e-4 and cfg.weight_decay == 0.01 and cfg.grad_clip == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(variant="both")


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
        cfg_a = TrainConfig(lr=1e-2, weight_decay=0.0, grad_clip=1.0)
        cfg_b = TrainConfig(lr=1e-2, weight_decay=0.0, grad_clip=None)
        results = []
        for cfg in (cfg_a, cfg_b):
            state = init_state(cfg, TINY, DCFG)
            grads = {k: np.full_like(v, 100.0) for k, v in state.params.items()}
            adamw_update(state, grads)
            results.append({k: v.copy() for k, v in state.params.items()})
        # adam normalizes by sqrt(v), so one huge uniform step lands in the
        # same place with or without clipping
        for k in results[0]:
            assert np.allclose(results[0][k], results[1][k], atol=1e-6)

    def test_cosine_schedule_decays_to_zero(self):
        cfg = TrainConfig(lr=1.0, weight_decay=0.0, grad_clip=None,
                          lr_schedule="cosine", total_steps=4)
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

    def test_ema_tracks_params(self):
        state = init_state(TrainConfig(lr=1e-3, ema_decay=0.9), TINY, DCFG)
        assert state.ema_params is not None
        start = {k: v.copy() for k, v in state.params.items()}
        grads = {k: np.ones_like(v) for k, v in state.params.items()}
        adamw_update(state, grads)
        k = "in_proj.w"
        expect = 0.9 * start[k] + 0.1 * state.params[k]
        assert np.allclose(state.ema_params[k], expect, atol=1e-6)


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

    def test_deterministic_final_params(self, tmp_path):
        tokens = corpus_tokens()
        finals = []
        for _ in range(2):
            state = train_loop(
                TrainConfig(seed=9, total_steps=5, batch_size=4), TINY, DCFG, tokens)
            finals.append(state.params)
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k])


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        tokens = corpus_tokens()
        state = init_state(TrainConfig(seed=5, ema_decay=0.99), TINY, DCFG)
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
        for group in ("params", "adam_m", "adam_v", "ema_params"):
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
        state = init_state(TrainConfig(seed=10, ema_decay=0.9), TINY, DCFG,
                           dtype=np.float64)
        for _ in range(3):
            train_step_nonar(state, tokens)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), state)
        loaded = load_checkpoint(str(path))
        for group in ("params", "adam_m", "adam_v", "ema_params"):
            a, b = getattr(state, group), getattr(loaded, group)
            for k in a:
                assert a[k].dtype == b[k].dtype == np.float64, (group, k)
                assert np.array_equal(a[k], b[k]), (group, k)

    @staticmethod
    def rewrite_manifest(path, edit):
        """Apply edit(manifest) to a checkpoint file's manifest in place."""
        import json
        data = path.read_bytes()
        magic = b"LAYOUTDIFF-CKPT\n"
        mlen = int.from_bytes(data[len(magic):len(magic) + 4], "little")
        manifest = json.loads(data[len(magic) + 4:len(magic) + 4 + mlen])
        edit(manifest)
        payload = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
        path.write_bytes(magic + len(payload).to_bytes(4, "little") + payload
                         + data[len(magic) + 4 + mlen:])

    def test_version_1_file_still_loads(self, tmp_path):
        """The version 1 layout is this one with no dtype field: every block
        is <f4, and loads as float32."""
        state = init_state(TrainConfig(seed=11), TINY, DCFG)
        train_step_nonar(state, corpus_tokens())
        path = tmp_path / "v1.ckpt"
        save_checkpoint(str(path), state)

        def to_v1(manifest):
            manifest["version"] = 1
            for e in manifest["entries"]:
                del e["dtype"]
        self.rewrite_manifest(path, to_v1)
        loaded = load_checkpoint(str(path))
        assert loaded.step == state.step
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(state, group), getattr(loaded, group)
            assert sorted(a) == sorted(b)
            for k in a:
                assert b[k].dtype == np.float32 and np.array_equal(a[k], b[k]), (group, k)

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

    def test_file_without_gelu_field_loads_as_erf(self, tmp_path):
        """Checkpoints written before ModelConfig.gelu existed keep exact GELU,
        and with it their predictions, bit for bit."""
        cfg = ModelConfig(layers=2, heads=2, hidden=16, n_max=4, gelu="erf")
        state = init_state(TrainConfig(seed=15, lr=1e-2), cfg, DCFG)
        for _ in range(3):
            train_step_nonar(state, corpus_tokens())
        x = np.random.default_rng(16).standard_normal((3, 4, 16)).astype(np.float32)
        t = np.array([0, 40, 99])
        before = forward_nonar(state.params, cfg, x, t).eps_hat
        path = tmp_path / "old.ckpt"
        save_checkpoint(str(path), state)
        self.rewrite_manifest(path, lambda m: m["model_cfg"].pop("gelu"))
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
