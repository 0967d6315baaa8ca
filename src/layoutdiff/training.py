"""Training loops for both variants, the optimizer, and checkpointing.

The checkpoint container is a single file: a magic string, a 4-byte
little-endian manifest length, a human-readable JSON manifest, then raw
little-endian float32 blocks (parameters and optimizer moments) in the order
listed by the manifest. Reloading restores the exact training state, so a
resumed run reproduces the original loss trajectory bit for bit in
single-threaded mode.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import schedule as S
from .core import DatasetConfig

CKPT_MAGIC = b"LAYOUTDIFF-CKPT\n"
CKPT_VERSION = 1


class TrainingDiverged(RuntimeError):
    def __init__(self, message, snapshot_path=None):
        super().__init__(message)
        self.snapshot_path = snapshot_path


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 64
    total_steps: int = 1000
    seed: int = 0
    variant: str = "nonar"  # "nonar" | "ar"
    ema_decay: float | None = None
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    grad_clip: float | None = 1.0
    kl_weight: float = 1e-3
    lr_schedule: str = "constant"  # "constant" | "cosine" (decay over total_steps)

    def __post_init__(self):
        if not (self.lr > 0):
            raise S.ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise S.ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.variant not in ("nonar", "ar"):
            raise S.ConfigError(f"unknown variant {self.variant!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise S.ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")


@dataclass
class TrainState:
    params: dict
    adam_m: dict
    adam_v: dict
    step: int
    rng: np.random.Generator
    model_cfg: M.ModelConfig
    data_cfg: DatasetConfig
    train_cfg: TrainConfig
    sched: S.Schedule
    ema_params: dict | None = None


def init_state(train_cfg: TrainConfig, model_cfg: M.ModelConfig,
               data_cfg: DatasetConfig, sched: S.Schedule | None = None,
               dtype=np.float32) -> TrainState:
    if sched is None:
        sched = S.build_schedule(100)
    params = M.init_params(model_cfg, seed=train_cfg.seed, dtype=dtype)
    return TrainState(
        params=params,
        adam_m={k: np.zeros_like(v) for k, v in params.items()},
        adam_v={k: np.zeros_like(v) for k, v in params.items()},
        step=0,
        rng=np.random.default_rng(train_cfg.seed),
        model_cfg=model_cfg,
        data_cfg=data_cfg,
        train_cfg=train_cfg,
        sched=sched,
        ema_params=(
            {k: v.copy() for k, v in params.items()}
            if train_cfg.ema_decay is not None
            else None
        ),
    )


def adamw_update(state: TrainState, grads: dict) -> None:
    cfg = state.train_cfg
    if cfg.grad_clip is not None:
        sq = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values())
        norm = np.sqrt(sq)
        if norm > cfg.grad_clip:
            scale = cfg.grad_clip / norm
            grads = {k: g * scale for k, g in grads.items()}
    state.step += 1
    t = state.step
    lr = cfg.lr
    if cfg.lr_schedule == "cosine":
        frac = min((t - 1) / max(cfg.total_steps, 1), 1.0)
        lr = cfg.lr * 0.5 * (1.0 + np.cos(np.pi * frac))
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for k, p in state.params.items():
        g = grads[k].astype(p.dtype)
        state.adam_m[k] = b1 * state.adam_m[k] + (1.0 - b1) * g
        state.adam_v[k] = b2 * state.adam_v[k] + (1.0 - b2) * g * g
        mhat = state.adam_m[k] / bc1
        vhat = state.adam_v[k] / bc2
        p -= (lr * (mhat / (np.sqrt(vhat) + 1e-8) + cfg.weight_decay * p)).astype(p.dtype)
    if state.ema_params is not None:
        d = cfg.ema_decay
        for k, p in state.params.items():
            state.ema_params[k] = d * state.ema_params[k] + (1.0 - d) * p


def _draw_noising(state: TrainState, batch):
    batch = np.asarray(batch, dtype=np.float64)
    n = batch.shape[0]
    t = state.rng.integers(0, state.sched.T, size=n)
    eps = state.rng.standard_normal(batch.shape)
    xt = S.q_sample(batch, t, eps, state.sched)
    return xt, t, eps


def _check_finite(loss, state: TrainState, snapshot_dir=None):
    if np.isfinite(loss):
        return
    path = None
    if snapshot_dir is not None:
        path = os.path.join(snapshot_dir, f"diverged_step{state.step}.ckpt")
        save_checkpoint(path, state)
    raise TrainingDiverged(
        f"non-finite loss {loss} at step {state.step}", snapshot_path=path
    )


def train_step_nonar(state: TrainState, batch, snapshot_dir=None) -> float:
    """One noising draw, one forward/backward, one AdamW update."""
    xt, t, eps = _draw_noising(state, batch)
    loss, grads = M.nonar_loss_and_grads(
        state.params, state.model_cfg, xt, t, eps,
        sched=state.sched if state.model_cfg.variance_head else None,
        x0=np.asarray(batch, dtype=np.float64) if state.model_cfg.variance_head else None,
        kl_weight=state.train_cfg.kl_weight,
    )
    _check_finite(loss, state, snapshot_dir)
    adamw_update(state, grads)
    return loss


def train_step_ar(state: TrainState, batch, snapshot_dir=None) -> float:
    """Teacher-forced AR step; all token passes share one (t, eps) draw."""
    xt, t, eps = _draw_noising(state, batch)
    loss, grads = M.ar_loss_and_grads(state.params, state.model_cfg, xt, t, eps)
    _check_finite(loss, state, snapshot_dir)
    adamw_update(state, grads)
    return loss


def train_loop(train_cfg: TrainConfig, model_cfg: M.ModelConfig,
               data_cfg: DatasetConfig, data, sched: S.Schedule | None = None,
               log_path=None, checkpoint_path=None, dtype=np.float32,
               state: TrainState | None = None, print_every=0) -> TrainState:
    """Run total_steps updates over a tokenized (N, n_max, token_dim) corpus."""
    data = np.asarray(data)
    if data.shape[0] == 0:
        raise ValueError("dataset is empty")
    if state is None:
        state = init_state(train_cfg, model_cfg, data_cfg, sched, dtype=dtype)
    step_fn = train_step_nonar if train_cfg.variant == "nonar" else train_step_ar
    snapshot_dir = os.path.dirname(checkpoint_path) if checkpoint_path else None
    log_f = open(log_path, "a") if log_path else None
    try:
        while state.step < train_cfg.total_steps:
            idx = state.rng.integers(0, data.shape[0], size=train_cfg.batch_size)
            t0 = time.perf_counter()
            loss = step_fn(state, data[idx], snapshot_dir=snapshot_dir)
            millis = (time.perf_counter() - t0) * 1000.0
            if log_f:
                log_f.write(f"{state.step}\t{loss:.8f}\t{millis:.3f}\n")
            if print_every and state.step % print_every == 0:
                print(f"step {state.step}  loss {loss:.5f}")
            if (
                checkpoint_path
                and train_cfg.checkpoint_every
                and state.step % train_cfg.checkpoint_every == 0
            ):
                save_checkpoint(checkpoint_path, state)
    finally:
        if log_f:
            log_f.close()
    if checkpoint_path:
        save_checkpoint(checkpoint_path, state)
    return state


# ---------------------------------------------------------------------------
# checkpoint container


def _cfg_to_dict(cfg):
    return dataclasses.asdict(cfg)


def save_checkpoint(path: str, state: TrainState) -> None:
    """Write the whole training state to a single file, atomically."""
    blocks = []
    entries = []
    offset = 0
    groups = [("param", state.params), ("adam_m", state.adam_m), ("adam_v", state.adam_v)]
    if state.ema_params is not None:
        groups.append(("ema", state.ema_params))
    for group, d in groups:
        for name in sorted(d):
            arr = np.ascontiguousarray(d[name], dtype="<f4")
            blocks.append(arr.tobytes())
            entries.append({
                "name": f"{group}/{name}",
                "shape": list(d[name].shape),
                "offset": offset,
                "size": arr.nbytes,
            })
            offset += arr.nbytes
    manifest = {
        "version": CKPT_VERSION,
        "model_cfg": _cfg_to_dict(state.model_cfg),
        "data_cfg": _cfg_to_dict(state.data_cfg),
        "train_cfg": _cfg_to_dict(state.train_cfg),
        "schedule": {"T": state.sched.T, "kind": state.sched.kind},
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "entries": entries,
    }
    payload = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        for b in blocks:
            f.write(b)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> TrainState:
    """Read a checkpoint back. A file that is truncated, whose manifest does
    not parse, or whose parameter shapes do not fit its model config raises
    ValueError naming the path and the bad entry or byte offset."""
    with open(path, "rb") as f:
        data = f.read()
    start = len(CKPT_MAGIC) + 4
    if data[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(data) < start:
        raise ValueError(f"{path}: file ends at byte {len(data)}, inside the manifest "
                         f"length field at bytes {len(CKPT_MAGIC)}-{start}")
    (mlen,) = struct.unpack_from("<I", data, len(CKPT_MAGIC))
    blob_start = start + mlen
    try:
        manifest = json.loads(data[start:blob_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: manifest at bytes {start}-{blob_start} does not parse "
                         f"({len(data)} bytes in file): {e}") from e
    if manifest["version"] != CKPT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {manifest['version']} != {CKPT_VERSION}"
        )
    model_cfg = M.ModelConfig(**manifest["model_cfg"])
    data_cfg = DatasetConfig(**manifest["data_cfg"])
    train_cfg = TrainConfig(**manifest["train_cfg"])
    sched = S.build_schedule(manifest["schedule"]["T"], manifest["schedule"]["kind"])
    groups = {"param": {}, "adam_m": {}, "adam_v": {}, "ema": {}}
    for e in manifest["entries"]:
        group, name = e["name"].split("/", 1)
        count = int(np.prod(e["shape"]))
        offset = blob_start + e["offset"]
        if e["size"] != 4 * count or offset + e["size"] > len(data):
            raise ValueError(
                f"{path}: entry {e['name']} of shape {tuple(e['shape'])} takes "
                f"{e['size']} bytes at file offset {offset}, the file has {len(data)}"
            )
        groups[group][name] = np.frombuffer(
            data, dtype="<f4", count=count, offset=offset
        ).reshape(e["shape"]).copy()
    shapes = {name: a.shape for name, a in groups["param"].items()}
    expected = M.param_shapes(model_cfg)
    if shapes != expected:
        name = min(n for n in shapes.keys() | expected.keys() if shapes.get(n) != expected.get(n))
        raise ValueError(
            f"{path}: entry param/{name} has shape {shapes.get(name)}, the model "
            f"config gives {expected.get(name)}"
        )
    rng = np.random.default_rng()
    rng.bit_generator.state = manifest["rng_state"]
    return TrainState(
        params=groups["param"],
        adam_m=groups["adam_m"],
        adam_v=groups["adam_v"],
        step=manifest["step"],
        rng=rng,
        model_cfg=model_cfg,
        data_cfg=data_cfg,
        train_cfg=train_cfg,
        sched=sched,
        ema_params=groups["ema"] or None,
    )
