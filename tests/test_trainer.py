import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from layoutdiff.core import DatasetConfig, tokenize_layout
from layoutdiff.data import synth_layout_corpus
from layoutdiff.model import ModelConfig, forward_nonar
from layoutdiff.schedule import ConfigError, build_schedule
from layoutdiff.training import (
    CKPT_MAGIC,
    ENTRY_KEYS,
    MANIFEST_KEYS,
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


    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("weight_decay", -0.01),
        ("grad_clip", 0.0), ("grad_clip", -1.0), ("beta2", float("nan")),
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

    @staticmethod
    def textbook_adamw(params, m, v, grads, t, cfg):
        """AdamW as written before the in-place update, one tensor at a time:
        clip, moments, bias corrections, then decoupled weight decay."""
        if cfg.grad_clip is not None:
            norm = np.sqrt(sum(np.sum(grads[k] ** 2) for k in params))
            if norm > cfg.grad_clip:
                grads = {k: g * (cfg.grad_clip / norm) for k, g in grads.items()}
        lr = cfg.lr
        if cfg.lr_schedule == "cosine":
            frac = min((t - 1) / max(cfg.total_steps, 1), 1.0)
            lr = cfg.lr * 0.5 * (1.0 + np.cos(np.pi * frac))
        for k in params:
            m[k] = cfg.beta1 * m[k] + (1.0 - cfg.beta1) * grads[k]
            v[k] = cfg.beta2 * v[k] + (1.0 - cfg.beta2) * grads[k] ** 2
            mhat = m[k] / (1.0 - cfg.beta1**t)
            vhat = v[k] / (1.0 - cfg.beta2**t)
            params[k] = params[k] - lr * (
                mhat / (np.sqrt(vhat) + 1e-8) + cfg.weight_decay * params[k])

    # random unit-normal grads over TINY's ~6k parameters have a global norm
    # near 80: a clip of 1 always fires and a clip of 1e4 never does
    @pytest.mark.parametrize("grad_clip,fires", [(1.0, True), (1e4, False), (None, False)])
    @pytest.mark.parametrize("lr_schedule", ["constant", "cosine"])
    def test_matches_textbook_adamw_in_float64(self, grad_clip, fires, lr_schedule):
        cfg = TrainConfig(lr=1e-2, weight_decay=0.1, grad_clip=grad_clip,
                          lr_schedule=lr_schedule, total_steps=5)
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
            self.textbook_adamw(params, m, v, grads, t, cfg)
        for got, want in ((state.params, params), (state.adam_m, m), (state.adam_v, v)):
            for k in want:
                np.testing.assert_allclose(got[k], want[k], rtol=1e-12, atol=1e-12, err_msg=k)

    def test_grads_left_unchanged_when_clipping_fires(self):
        state = init_state(TrainConfig(grad_clip=1.0), TINY, DCFG)
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

    @pytest.mark.parametrize("ema_decay", [None, 0.99])
    def test_file_written_with_ema_loads(self, tmp_path, ema_decay):
        """Files written while TrainConfig had ema_decay carry that field, and
        with it set an `ema` group after adam_v; both are dropped on load."""
        state = init_state(TrainConfig(seed=17), TINY, DCFG)
        train_step_nonar(state, corpus_tokens())
        path = tmp_path / "ema.ckpt"
        save_checkpoint(str(path), state)
        blocks = []

        def add_ema(manifest):
            manifest["train_cfg"]["ema_decay"] = ema_decay
            if ema_decay is None:
                return
            offset = sum(e["size"] for e in manifest["entries"])
            for name in sorted(state.params):
                arr = np.full_like(state.params[name], 0.5)
                manifest["entries"].append({
                    "name": f"ema/{name}", "shape": list(arr.shape), "dtype": "<f4",
                    "offset": offset, "size": arr.nbytes})
                blocks.append(arr.tobytes())
                offset += arr.nbytes
        self.rewrite_manifest(path, add_ema)
        path.write_bytes(path.read_bytes() + b"".join(blocks))
        loaded = load_checkpoint(str(path))
        assert loaded.train_cfg == state.train_cfg and loaded.step == state.step
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(state, group), getattr(loaded, group)
            assert sorted(a) == sorted(b)
            for k in a:
                assert np.array_equal(a[k], b[k]), (group, k)

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
        (lambda m: m["schedule"].pop("kind"), r"schedule \{'T': 100\} .*'kind'"),
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

    def test_file_without_crc_loads_as_before(self, tmp_path):
        """Files written before entries carried a crc32 load unchecked."""
        state = init_state(TrainConfig(seed=23), TINY, DCFG)
        path = tmp_path / "old.ckpt"
        save_checkpoint(str(path), state)

        def drop_crc(manifest):
            for e in manifest["entries"]:
                del e["crc32"]
        self.rewrite_manifest(path, drop_crc)
        loaded = load_checkpoint(str(path))
        for group in ("params", "adam_m", "adam_v"):
            a, b = getattr(state, group), getattr(loaded, group)
            for k in a:
                assert np.array_equal(a[k], b[k]), (group, k)
