"""Training loops for both variants, the optimizer, and checkpointing.

The checkpoint container is a single file: a magic string, a 4-byte
little-endian manifest length, a human-readable JSON manifest, then raw
little-endian blocks (parameters and optimizer moments) in the order listed by
the manifest. Each manifest entry records its block's dtype: `<f8` for a
float64 array, `<f4` otherwise (version 1 files, which have no dtype field,
are all `<f4`), and the zlib CRC-32 of its bytes, which the loader checks
when present (files written before the field existed have none). Reloading
restores the exact training state, so a resumed run reproduces the original
loss trajectory bit for bit in single-threaded mode.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import schedule as S
from .core import DatasetConfig

CKPT_MAGIC = b"LAYOUTDIFF-CKPT\n"
CKPT_VERSION = 2


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
        # beta = 1 divides by a zero bias correction, and a negative clip
        # flips every step uphill
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise S.ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (self.weight_decay >= 0.0):
            raise S.ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.grad_clip is not None and not (self.grad_clip > 0.0):
            raise S.ConfigError(f"grad_clip must be positive or None, got {self.grad_clip}")


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


def init_state(train_cfg: TrainConfig, model_cfg: M.ModelConfig,
               data_cfg: DatasetConfig, sched: S.Schedule | None = None,
               dtype=np.float32) -> TrainState:
    if (train_cfg.variant == "ar") != model_cfg.ar_mode:
        raise S.ConfigError(f"TrainConfig.variant {train_cfg.variant!r} does not match "
                            f"ModelConfig.ar_mode {model_cfg.ar_mode}")
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
    )


def _sum_squares(arrays) -> float:
    """Sum of the squares of every entry, accumulated in float64 through one
    buffer the size of the largest array, not a float64 copy of each."""
    buf = np.empty(max(a.size for a in arrays))
    total = 0.0
    for a in arrays:
        x = buf[:a.size]
        np.copyto(x, a.reshape(-1))
        total += float(x @ x)
    return total


def adamw_step(params, m, v, grads, step, lr, beta1=0.9, beta2=0.999,
               weight_decay=0.0, grad_clip=None) -> None:
    """One AdamW update (Loshchilov & Hutter, arXiv:1711.05101) of params and
    their moments m and v, all in place; step is the 1-based update count.

    With grad_clip, grads are scaled so that their global norm is at most
    grad_clip. The scale, the bias corrections and the learning rate are
    folded into scalars, so each tensor needs one temporary and the caller's
    grads are only read.
    """
    scale = 1.0
    if grad_clip is not None:
        # in parameter order, so the norm does not depend on the order in
        # which the model filled the grad dict
        norm = math.sqrt(_sum_squares([grads[k] for k in params]))
        if norm > grad_clip:
            scale = grad_clip / norm
    c1 = (1.0 - beta1) * scale
    c2 = (1.0 - beta2) * scale * scale
    # with eps = 1e-8:
    # mhat / (sqrt(vhat) + eps) = m * (sqrt(bc2) / bc1) / (sqrt(v) + eps * sqrt(bc2))
    root_bc2 = math.sqrt(1.0 - beta2**step)
    step_size = lr * root_bc2 / (1.0 - beta1**step)
    eps_v = 1e-8 * root_bc2
    decay = 1.0 - lr * weight_decay
    for k, p in params.items():
        g, mk, vk = grads[k], m[k], v[k]
        tmp = np.multiply(g, c1, dtype=mk.dtype)
        mk *= beta1
        mk += tmp
        np.multiply(g, g, out=tmp)
        tmp *= c2
        vk *= beta2
        vk += tmp
        np.sqrt(vk, out=tmp)
        tmp += eps_v
        np.divide(mk, tmp, out=tmp)
        tmp *= step_size
        if weight_decay:
            p *= decay
        p -= tmp


def adamw_update(state: TrainState, grads: dict) -> None:
    """Advance state by one AdamW step on grads, at the scheduled lr."""
    cfg = state.train_cfg
    state.step += 1
    lr = cfg.lr
    if cfg.lr_schedule == "cosine":
        frac = min((state.step - 1) / max(cfg.total_steps, 1), 1.0)
        lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * frac))
    adamw_step(state.params, state.adam_m, state.adam_v, grads, state.step, lr,
               beta1=cfg.beta1, beta2=cfg.beta2, weight_decay=cfg.weight_decay,
               grad_clip=cfg.grad_clip)


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


def save_checkpoint(path: str, state: TrainState) -> None:
    """Write the whole training state to a single file, atomically."""
    blocks = []
    entries = []
    offset = 0
    for group, d in (("param", state.params), ("adam_m", state.adam_m),
                     ("adam_v", state.adam_v)):
        for name in sorted(d):
            dtype = "<f8" if d[name].dtype == np.float64 else "<f4"
            arr = np.ascontiguousarray(d[name], dtype=dtype)
            blocks.append(arr.tobytes())
            entries.append({
                "name": f"{group}/{name}",
                "shape": list(d[name].shape),
                "dtype": dtype,
                "offset": offset,
                "size": arr.nbytes,
                "crc32": zlib.crc32(blocks[-1]),
            })
            offset += arr.nbytes
    manifest = {
        "version": CKPT_VERSION,
        "model_cfg": dataclasses.asdict(state.model_cfg),
        "data_cfg": dataclasses.asdict(state.data_cfg),
        "train_cfg": dataclasses.asdict(state.train_cfg),
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


# the keys every manifest carries, in the order they are checked
MANIFEST_KEYS = ("version", "model_cfg", "data_cfg", "train_cfg", "schedule",
                 "step", "rng_state", "entries")
ENTRY_KEYS = ("name", "shape", "offset", "size")
# files written before EMA was removed may carry an "ema" group; it is read
# and dropped, since nothing uses it
ENTRY_GROUPS = ("param", "adam_m", "adam_v", "ema")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # JSON true/false are bools, not counts


def _read_entry(path, data, blob_start, i, e):
    """Check manifest entry i and return (group, name, array)."""
    if not isinstance(e, dict):
        raise ValueError(f"{path}: entry {i} is not a JSON object")
    missing = [k for k in ENTRY_KEYS if k not in e]
    if missing:
        raise ValueError(f"{path}: entry {e.get('name', i)!r} has no "
                         f"{', '.join(map(repr, missing))}")
    full = e["name"]
    if not isinstance(full, str) or "/" not in full:
        raise ValueError(f"{path}: entry {i} has name {full!r}, not '<group>/<name>'")
    group, name = full.split("/", 1)
    if group not in ENTRY_GROUPS:
        raise ValueError(f"{path}: entry {full} is in unknown group {group!r}")
    shape, offset, size = e["shape"], e["offset"], e["size"]
    if not (isinstance(shape, list) and all(map(_is_count, shape))
            and _is_count(offset) and _is_count(size)):
        raise ValueError(f"{path}: entry {full} has shape {shape!r}, offset {offset!r} "
                         f"and size {size!r}, not non-negative integers")
    dtype = e.get("dtype", "<f4")
    if dtype not in ("<f4", "<f8"):
        raise ValueError(f"{path}: entry {full} has dtype {dtype!r}, "
                         f"not '<f4' or '<f8'")
    count = math.prod(shape)
    offset += blob_start
    if size != np.dtype(dtype).itemsize * count or offset + size > len(data):
        raise ValueError(
            f"{path}: entry {full} of shape {tuple(shape)} and dtype "
            f"{dtype} takes {size} bytes at file offset {offset}, the file "
            f"has {len(data)}"
        )
    crc = e.get("crc32")
    if crc is not None and crc != zlib.crc32(memoryview(data)[offset:offset + size]):
        raise ValueError(f"{path}: entry {full} at file offset {offset} does not "
                         f"match its crc32 {crc!r}")
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return group, name, arr.reshape(shape).copy()


def load_checkpoint(path: str) -> TrainState:
    """Read a checkpoint back. A file that is not one, is truncated, whose
    manifest does not parse or lacks a key, whose config groups, schedule,
    step or RNG state do not build, or whose entries do not fit the file or
    the model config or fail their crc32 raises one ValueError naming the
    path and the bad key, group, entry or byte offset.

    Older files load too: a model config with no `gelu` field loads as
    "erf", the form such files were trained with, and the `ema_decay` field
    and `ema` group of files written before EMA was removed are dropped."""
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
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"{path}: manifest has no {', '.join(map(repr, missing))}")
    if manifest["version"] not in (1, CKPT_VERSION):
        raise ValueError(
            f"{path}: checkpoint version {manifest['version']!r} is not 1 or {CKPT_VERSION}"
        )
    cfgs = {}
    for group, cls in (("model_cfg", M.ModelConfig), ("data_cfg", DatasetConfig),
                       ("train_cfg", TrainConfig)):
        try:
            fields = dict(manifest[group])
            if group == "model_cfg":
                # files written before ModelConfig.gelu existed used exact GELU
                fields.setdefault("gelu", "erf")
            if group == "train_cfg":
                fields.pop("ema_decay", None)
            cfgs[group] = cls(**fields)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: {group} is not a valid {cls.__name__}: {e}") from e
    model_cfg, data_cfg, train_cfg = cfgs["model_cfg"], cfgs["data_cfg"], cfgs["train_cfg"]
    try:
        sched = S.build_schedule(manifest["schedule"]["T"], manifest["schedule"]["kind"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: schedule {manifest['schedule']!r} does not build "
                         f"a schedule: {e!r}") from e
    step = manifest["step"]
    if not _is_count(step):
        raise ValueError(f"{path}: step {step!r} is not a non-negative integer")
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = manifest["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: rng_state is not a "
                         f"{type(rng.bit_generator).__name__} state: {e!r}") from e
    entries = manifest["entries"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: entries is not a list")
    groups = {group: {} for group in ENTRY_GROUPS}
    for i, e in enumerate(entries):
        group, name, arr = _read_entry(path, data, blob_start, i, e)
        groups[group][name] = arr
    del groups["ema"]
    expected = M.param_shapes(model_cfg)
    for group, arrays in groups.items():
        shapes = {name: a.shape for name, a in arrays.items()}
        if shapes != expected:
            name = min(n for n in shapes.keys() | expected.keys()
                       if shapes.get(n) != expected.get(n))
            raise ValueError(
                f"{path}: entry {group}/{name} has shape {shapes.get(name)}, the model "
                f"config gives {expected.get(name)}"
            )
    return TrainState(
        params=groups["param"],
        adam_m=groups["adam_m"],
        adam_v=groups["adam_v"],
        step=step,
        rng=rng,
        model_cfg=model_cfg,
        data_cfg=data_cfg,
        train_cfg=train_cfg,
        sched=sched,
    )
