"""Training loops for both variants, the optimizer, and checkpointing.

Every training step runs AdamW with the published moment decays BETA1 and
BETA2, its gradients clipped to a global norm of GRAD_CLIP.

The checkpoint container is a single file: a magic string, a 4-byte
little-endian manifest length, a human-readable JSON manifest, then raw
little-endian blocks (parameters and optimizer moments), back to back in the
order listed by the manifest up to the end of the file. Each manifest entry
records its block's dtype, `<f4` or `<f8`, and the zlib CRC-32 of its bytes.
The loader reads only this format, front to back. Reloading restores the
exact training state, so a resumed run reproduces the original loss
trajectory bit for bit in single-threaded mode.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import schedule as S
from .core import DatasetConfig

CKPT_MAGIC = b"LAYOUTDIFF-CKPT\n"
CKPT_VERSION = 3

# AdamW's moment decays as published (Loshchilov & Hutter, arXiv:1711.05101)
BETA1 = 0.9
BETA2 = 0.999
GRAD_CLIP = 1.0


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
    lr_schedule: str = "constant"  # "constant" | "cosine" (decay over total_steps)

    def __post_init__(self):
        if not (self.lr > 0):
            raise S.ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise S.ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("total_steps", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise S.ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.variant not in ("nonar", "ar"):
            raise S.ConfigError(f"unknown variant {self.variant!r}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise S.ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if not (self.weight_decay >= 0.0):
            raise S.ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


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
    # the train steps' workspace: the forward cache, the grads and the
    # backward's widest temporaries, kept across steps so that each step
    # reuses the last one's memory (see model._buf); not checkpointed
    workspace: dict = field(default_factory=dict, repr=False)


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


def adamw_step(params, m, v, grads, step, lr, weight_decay=0.0, grad_clip=None) -> None:
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
    c1 = (1.0 - BETA1) * scale
    c2 = (1.0 - BETA2) * scale * scale
    # with eps = 1e-8:
    # mhat / (sqrt(vhat) + eps) = m * (sqrt(bc2) / bc1) / (sqrt(v) + eps * sqrt(bc2))
    root_bc2 = math.sqrt(1.0 - BETA2**step)
    step_size = lr * root_bc2 / (1.0 - BETA1**step)
    eps_v = 1e-8 * root_bc2
    decay = 1.0 - lr * weight_decay
    for k, p in params.items():
        g, mk, vk = grads[k], m[k], v[k]
        tmp = np.multiply(g, c1, dtype=mk.dtype)
        mk *= BETA1
        mk += tmp
        np.multiply(g, g, out=tmp)
        tmp *= c2
        vk *= BETA2
        vk += tmp
        np.sqrt(vk, out=tmp)
        tmp += eps_v
        np.divide(mk, tmp, out=tmp)
        tmp *= step_size
        if weight_decay:
            p *= decay
        p -= tmp


def adamw_update(state: TrainState, grads: dict) -> None:
    """Advance state by one AdamW step on grads at the scheduled lr, clipped to GRAD_CLIP."""
    cfg = state.train_cfg
    state.step += 1
    lr = cfg.lr
    if cfg.lr_schedule == "cosine":
        frac = min((state.step - 1) / max(cfg.total_steps, 1), 1.0)
        lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * frac))
    adamw_step(state.params, state.adam_m, state.adam_v, grads, state.step, lr,
               weight_decay=cfg.weight_decay, grad_clip=GRAD_CLIP)


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
    """One noising draw, one forward/backward, one AdamW update. The grads
    handed to AdamW alias state.workspace, which the next step overwrites."""
    xt, t, eps = _draw_noising(state, batch)
    loss, grads = M.nonar_loss_and_grads(
        state.params, state.model_cfg, xt, t, eps,
        sched=state.sched if state.model_cfg.variance_head else None,
        x0=np.asarray(batch, dtype=np.float64) if state.model_cfg.variance_head else None,
        ws=state.workspace,
    )
    _check_finite(loss, state, snapshot_dir)
    adamw_update(state, grads)
    return loss


def train_step_ar(state: TrainState, batch, snapshot_dir=None) -> float:
    """Teacher-forced AR step; all token passes share one (t, eps) draw. The
    grads alias state.workspace, as in train_step_nonar."""
    xt, t, eps = _draw_noising(state, batch)
    loss, grads = M.ar_loss_and_grads(state.params, state.model_cfg, xt, t, eps,
                                      ws=state.workspace)
    _check_finite(loss, state, snapshot_dir)
    adamw_update(state, grads)
    return loss


def train_loop(train_cfg: TrainConfig, model_cfg: M.ModelConfig,
               data_cfg: DatasetConfig, data, sched: S.Schedule | None = None,
               log_path=None, checkpoint_path=None) -> TrainState:
    """Train a new float32 model for total_steps over a (N, n_max, token_dim) corpus."""
    data = np.asarray(data)
    if data.shape[0] == 0:
        raise ValueError("dataset is empty")
    state = init_state(train_cfg, model_cfg, data_cfg, sched)
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
    """Write the whole training state to a single file, atomically. An array
    that is not float32 or float64 raises ValueError before anything is
    written. Each array is written from its own buffer, so no byte copy of
    the state is made; a write that fails removes the partial file."""
    arrays = []
    entries = []
    offset = 0
    for group, d in (("param", state.params), ("adam_m", state.adam_m),
                     ("adam_v", state.adam_v)):
        for name in sorted(d):
            kind = d[name].dtype.type
            if kind not in (np.float32, np.float64):
                raise ValueError(f"{path}: {group}/{name} has dtype {d[name].dtype}, "
                                 f"not float32 or float64")
            dtype = "<f8" if kind is np.float64 else "<f4"
            # the array itself when its dtype and layout already match
            arr = np.ascontiguousarray(d[name], dtype=dtype)
            arrays.append(arr)
            entries.append({
                "name": f"{group}/{name}",
                "shape": list(d[name].shape),
                "dtype": dtype,
                "offset": offset,
                "size": arr.nbytes,
                "crc32": zlib.crc32(arr),
            })
            offset += arr.nbytes
    manifest = {
        "version": CKPT_VERSION,
        "model_cfg": dataclasses.asdict(state.model_cfg),
        "data_cfg": dataclasses.asdict(state.data_cfg),
        "train_cfg": dataclasses.asdict(state.train_cfg),
        "schedule": {"T": state.sched.T},
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "entries": entries,
    }
    payload = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<I", len(payload)))
            f.write(payload)
            for arr in arrays:
                f.write(arr)  # the buffer itself, counted in bytes
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# the keys every manifest carries, in the order they are checked
MANIFEST_KEYS = ("version", "model_cfg", "data_cfg", "train_cfg", "schedule",
                 "step", "rng_state", "entries")
ENTRY_KEYS = ("name", "shape", "dtype", "offset", "size", "crc32")
ENTRY_GROUPS = ("param", "adam_m", "adam_v")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # JSON true/false are bools, not counts


def _read_entry(path, f, file_size, blob_start, end, i, e):
    """Check manifest entry i, which must start where the entries before it
    end (`end` bytes into the data section, where f stands), read its block
    into a new array and return (group, name, array)."""
    if not isinstance(e, dict):
        raise ValueError(f"{path}: entry {i} is not a JSON object")
    missing = [k for k in ENTRY_KEYS if k not in e]
    if missing:
        label = e["name"] if "name" in e else i
        raise ValueError(f"{path}: entry {label!r} has no "
                         f"{', '.join(map(repr, missing))}")
    unknown = sorted(e.keys() - set(ENTRY_KEYS))
    if unknown:
        raise ValueError(f"{path}: entry {e['name']!r} has unknown key "
                         f"{', '.join(map(repr, unknown))}")
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
    dtype = e["dtype"]
    if dtype not in ("<f4", "<f8"):
        raise ValueError(f"{path}: entry {full} has dtype {dtype!r}, "
                         f"not '<f4' or '<f8'")
    count = math.prod(shape)
    offset += blob_start
    if size != np.dtype(dtype).itemsize * count or offset + size > file_size:
        raise ValueError(
            f"{path}: entry {full} of shape {tuple(shape)} and dtype "
            f"{dtype} takes {size} bytes at file offset {offset}, the file "
            f"has {file_size}"
        )
    if offset != blob_start + end:
        raise ValueError(f"{path}: entry {full} is at file offset {offset}, the "
                         f"entries before it end at file offset {blob_start + end}")
    arr = np.empty(shape, dtype)
    got = f.readinto(arr)  # counted in bytes
    if got != size:
        raise ValueError(f"{path}: entry {full} at file offset {offset} ends after "
                         f"{got} of its {size} bytes")
    if e["crc32"] != zlib.crc32(arr):
        raise ValueError(f"{path}: entry {full} at file offset {offset} does not "
                         f"match its crc32 {e['crc32']!r}")
    return group, name, arr


def _read_manifest(path, f, file_size):
    """Read the magic, the length field and the manifest from the start of
    f; return the manifest and the file offset of the data section."""
    start = len(CKPT_MAGIC) + 4
    head = f.read(start)
    if head[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(head) < start:
        raise ValueError(f"{path}: file ends at byte {len(head)}, inside the manifest "
                         f"length field at bytes {len(CKPT_MAGIC)}-{start}")
    (mlen,) = struct.unpack_from("<I", head, len(CKPT_MAGIC))
    blob_start = start + mlen
    where = (f"{path}: manifest at bytes {start}-{blob_start} does not parse "
             f"({file_size} bytes in file)")
    # the length field is checked against the file before it sizes a read
    if blob_start > file_size:
        raise ValueError(f"{where}: the file ends inside it")
    try:
        manifest = json.loads(f.read(mlen).decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{where}: {e}") from e
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"{path}: manifest has no {', '.join(map(repr, missing))}")
    unknown = sorted(manifest.keys() - set(MANIFEST_KEYS))
    if unknown:
        raise ValueError(f"{path}: manifest has unknown key {', '.join(map(repr, unknown))}")
    if manifest["version"] != CKPT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {manifest['version']!r} is not {CKPT_VERSION}"
        )
    return manifest, blob_start


def load_checkpoint(path: str) -> TrainState:
    """Read a checkpoint back. A file that is not one, is truncated, whose
    manifest does not parse, lacks a key or has one the writer does not
    write, whose config groups, schedule, step or RNG state do not build, or
    whose entries do not fit the file or the model config, fail their crc32,
    repeat a name or do not tile the data section front to back up to the
    end of the file raises one ValueError naming the path and the bad key,
    group, entry or byte offset.

    Only the format save_checkpoint writes loads: no key is defaulted, and
    no entry skips its crc32. Each entry is read straight into its own
    array, so a load holds one copy of the state."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        manifest, blob_start = _read_manifest(path, f, file_size)
        cfgs = {}
        for group, cls in (("model_cfg", M.ModelConfig), ("data_cfg", DatasetConfig),
                           ("train_cfg", TrainConfig)):
            try:
                fields = dict(manifest[group])
                # a default could be another function of the same weights (gelu)
                missing = [fd.name for fd in dataclasses.fields(cls) if fd.name not in fields]
                if missing:
                    raise TypeError(f"missing field {', '.join(map(repr, missing))}")
                cfgs[group] = cls(**fields)
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: {group} is not a valid {cls.__name__}: {e}") from e
        schedule = manifest["schedule"]
        unknown = sorted(schedule.keys() - {"T"}) if isinstance(schedule, dict) else []
        if unknown:
            raise ValueError(f"{path}: schedule {schedule!r} has unknown key "
                             f"{', '.join(map(repr, unknown))}")
        try:
            sched = S.build_schedule(schedule["T"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: schedule {schedule!r} does not build "
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
        end = 0
        for i, e in enumerate(entries):
            group, name, arr = _read_entry(path, f, file_size, blob_start, end, i, e)
            if name in groups[group]:
                raise ValueError(f"{path}: entry {group}/{name} appears more than once")
            groups[group][name] = arr
            end += arr.nbytes
    if blob_start + end != file_size:
        raise ValueError(f"{path}: the entries end at file offset {blob_start + end}, "
                         f"the file has {file_size} bytes")
    model_cfg, data_cfg, train_cfg = cfgs["model_cfg"], cfgs["data_cfg"], cfgs["train_cfg"]
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
