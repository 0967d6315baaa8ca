"""Training loops for both variants, the optimizer, and checkpointing.

Every training step runs AdamW with the published moment decays BETA1 and
BETA2, its gradients clipped to a global norm of GRAD_CLIP.

The checkpoint container is a single file: a magic string, the manifest's
length and its zlib CRC-32 as two 4-byte little-endian integers, a
human-readable JSON manifest, then the data section up to the end of the
file. The model config fixes the data section's layout: the parameters, then
AdamW's first and second moments, each group holding the arrays of
M.param_shapes in sorted name order, back to back as raw little-endian
blocks of the one dtype the manifest names, `<f4` or `<f8`. Besides the
configs, the schedule, the step and the RNG state, the manifest holds only
that dtype and the zlib CRC-32 of each block.
The loaders read only this format, front to back: load_params stops after
the parameters, and load_checkpoint reads the whole state. Reloading
restores the exact training state, so a resumed run reproduces the original
loss trajectory bit for bit in single-threaded mode.
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
CKPT_VERSION = 6

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
    # the train steps' workspace, kept across steps so that each step
    # reuses the last one's memory (see model._buf); not checkpointed. It
    # holds the modulation table, the forward cache (per block the GEMM
    # outputs and the layer norms' outputs; see model._forward_core), the
    # grads, and one array per key shared by every block for what backward
    # rebuilds (the modulated layer norms and the merged attention context
    # in turn, the softmax, the unmerged heads, the GELU and its tanh) and
    # for the softmax grads. The rebuilt arrays repeat the forward's
    # statements on its inputs, so every byte is the one a full cache would
    # give; backward writes its other grads over arrays that are dead by then
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
    loss, grads = M.nonar_loss_and_grads(state.params, state.model_cfg, xt, t, eps,
                                         ws=state.workspace)
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
    log_f = open(log_path, "w") if log_path else None
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
    """Write the whole training state to a single file, atomically. A group
    whose array names or shapes differ from the model config's, or a state
    whose arrays are not all float32 or all float64, raises ValueError naming
    the first such array before anything is written. Each array is written
    from its own buffer, so no byte copy of the state is made; a write that
    fails removes the partial file."""
    shapes = M.param_shapes(state.model_cfg)
    groups = (("param", state.params), ("adam_m", state.adam_m), ("adam_v", state.adam_v))
    for group, d in groups:
        got = {name: a.shape for name, a in d.items()}
        if got != shapes:
            name = min(n for n in got.keys() | shapes.keys() if got.get(n) != shapes.get(n))
            raise ValueError(f"{path}: {group}/{name} has shape {got.get(name)}, the "
                             f"model config gives {shapes.get(name)}")
    # the data section's order, which the loader derives from the model config
    named = [(f"{group}/{name}", d[name]) for group, d in groups for name in sorted(shapes)]
    first, first_array = named[0]
    for key, a in named:
        if a.dtype.type not in (np.float32, np.float64):
            raise ValueError(f"{path}: {key} has dtype {a.dtype}, not float32 or float64")
        if a.dtype.type is not first_array.dtype.type:
            raise ValueError(f"{path}: {key} has dtype {a.dtype}, {first} has "
                             f"{first_array.dtype}: a checkpoint holds one dtype")
    dtype = "<f8" if first_array.dtype.type is np.float64 else "<f4"
    # each array itself when its dtype and layout already match
    arrays = [np.ascontiguousarray(a, dtype=dtype) for _, a in named]
    manifest = {
        "version": CKPT_VERSION,
        "model_cfg": dataclasses.asdict(state.model_cfg),
        "data_cfg": dataclasses.asdict(state.data_cfg),
        "train_cfg": dataclasses.asdict(state.train_cfg),
        "schedule": {"T": state.sched.T},
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "dtype": dtype,
        "crc32": {key: zlib.crc32(arr) for (key, _), arr in zip(named, arrays)},
    }
    payload = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
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
                 "step", "rng_state", "dtype", "crc32")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # JSON true/false are bools, not counts


def _check_version(path, manifest) -> None:
    """A file of another version is named by its version, not by its keys."""
    if isinstance(manifest, dict) and manifest.get("version", CKPT_VERSION) != CKPT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {manifest['version']!r} is not {CKPT_VERSION}"
        )


def _read_manifest(path, f, file_size):
    """Read the magic, the length and crc32 fields and the manifest from the
    start of f; return the manifest and the file offset of the data section."""
    start = len(CKPT_MAGIC) + 8
    head = f.read(start)
    if head[:len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(head) < start:
        raise ValueError(f"{path}: file ends at byte {len(head)}, inside the manifest "
                         f"length field and crc32 at bytes {len(CKPT_MAGIC)}-{start}")
    mlen, crc = struct.unpack_from("<II", head, len(CKPT_MAGIC))
    blob_start = start + mlen
    where = (f"{path}: manifest at bytes {start}-{blob_start} does not parse "
             f"({file_size} bytes in file)")
    # the length field is checked against the file before it sizes a read
    if blob_start > file_size:
        raise ValueError(f"{where}: the file ends inside it")
    raw = f.read(mlen)
    # a changed digit in a config, the step or the RNG state parses as well
    if zlib.crc32(raw) != crc:
        # format 5 had no crc32 field, so its manifest starts 4 bytes earlier
        try:
            _check_version(path, json.loads((head[-4:] + raw[:-4]).decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        raise ValueError(f"{path}: manifest at bytes {start}-{blob_start} does not "
                         f"match its crc32 {crc}")
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{where}: {e}") from e
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    _check_version(path, manifest)
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"{path}: manifest has no {', '.join(map(repr, missing))}")
    unknown = sorted(manifest.keys() - set(MANIFEST_KEYS))
    if unknown:
        raise ValueError(f"{path}: manifest has unknown key {', '.join(map(repr, unknown))}")
    return manifest, blob_start


@dataclass(frozen=True)
class SavedModel:
    """What load_params reads from a checkpoint: the configs, the schedule
    and the parameters, without AdamW's moments, the step or the RNG state."""

    params: dict
    model_cfg: M.ModelConfig
    data_cfg: DatasetConfig
    train_cfg: TrainConfig
    sched: S.Schedule


def _read_group(path, f, manifest, shapes, group, offset):
    """Read group's arrays, in sorted name order, from f, which stands at
    file offset; return them and the offset after them."""
    dtype, crc32 = manifest["dtype"], manifest["crc32"]
    arrays = {}
    for name in sorted(shapes):
        key = f"{group}/{name}"
        arr = np.empty(shapes[name], dtype)
        got = f.readinto(arr)  # counted in bytes
        if got != arr.nbytes:
            raise ValueError(f"{path}: entry {key} at file offset {offset} ends after "
                             f"{got} of its {arr.nbytes} bytes")
        if crc32[key] != zlib.crc32(arr):
            raise ValueError(f"{path}: entry {key} at file offset {offset} does not "
                             f"match its crc32 {crc32[key]!r}")
        arrays[name] = arr
        offset += arr.nbytes
    return arrays, offset


def _read_params(path, f):
    """load_params on the open file f; also returns the manifest and the
    file offset after the parameters, where f stands."""
    file_size = os.fstat(f.fileno()).st_size
    manifest, blob_start = _read_manifest(path, f, file_size)
    cfgs = {}
    for group, cls in (("model_cfg", M.ModelConfig), ("data_cfg", DatasetConfig),
                       ("train_cfg", TrainConfig)):
        try:
            fields = dict(manifest[group])
            # a defaulted field need not be the value the weights were trained with
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
    dtype = manifest["dtype"]
    if dtype not in ("<f4", "<f8"):
        raise ValueError(f"{path}: dtype {dtype!r} is not '<f4' or '<f8'")
    model_cfg = cfgs["model_cfg"]
    shapes = M.param_shapes(model_cfg)
    # the data section holds each group's arrays in sorted name order
    keys = [f"{group}/{name}" for group in ("param", "adam_m", "adam_v")
            for name in sorted(shapes)]
    crc32 = manifest["crc32"]
    if not isinstance(crc32, dict):
        raise ValueError(f"{path}: crc32 is not a JSON object")
    missing = [k for k in keys if k not in crc32]
    if missing:
        raise ValueError(f"{path}: crc32 has no {missing[0]!r}")
    unknown = sorted(crc32.keys() - set(keys))
    if unknown:
        raise ValueError(f"{path}: crc32 has unknown key {unknown[0]!r}")
    end = blob_start + 3 * np.dtype(dtype).itemsize * M.param_count(model_cfg)
    if end != file_size:
        raise ValueError(f"{path}: model_cfg and dtype {dtype} give a data section "
                         f"ending at file offset {end}, the file has {file_size} bytes")
    params, offset = _read_group(path, f, manifest, shapes, "param", blob_start)
    saved = SavedModel(params=params, model_cfg=model_cfg, data_cfg=cfgs["data_cfg"],
                       train_cfg=cfgs["train_cfg"], sched=sched)
    return saved, manifest, offset


def load_params(path: str) -> SavedModel:
    """Read a checkpoint's configs, schedule and parameters, for a caller
    that only runs the model. A file that is not one, is of another version
    (a format-5 file included, though its header has no crc32 field), is
    truncated or longer than its model config and dtype make it, whose
    manifest fails its crc32, does not parse, lacks a key or has one the
    writer does not write, whose config groups, schedule or dtype do not
    build, whose crc32 object does not name exactly the model config's
    arrays, or whose parameters fail their crc32 raises one ValueError
    naming the path and the bad key, group, array or byte offset.

    It stops after the parameters, the first third of the data section:
    AdamW's moments are neither read nor checked against their crc32, and
    the step and the RNG state are not built. The file size is checked
    before any array is allocated, and each parameter is read straight into
    its own buffer."""
    with open(path, "rb") as f:
        return _read_params(path, f)[0]


def load_checkpoint(path: str) -> TrainState:
    """Read a whole training state back: load_params, then the step, the
    RNG state and AdamW's moments. Besides load_params' errors, a step or
    RNG state that does not build, or a moment that fails its crc32, raises
    one ValueError naming the path and the bad key, array or byte offset.

    Only the format save_checkpoint writes loads: no key is defaulted, and
    no array skips its crc32. The file size is checked before any array is
    allocated, and each array is read straight into its own buffer, so a
    load holds one copy of the state."""
    with open(path, "rb") as f:
        saved, manifest, offset = _read_params(path, f)
        step = manifest["step"]
        if not _is_count(step):
            raise ValueError(f"{path}: step {step!r} is not a non-negative integer")
        rng = np.random.default_rng()
        try:
            rng.bit_generator.state = manifest["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"{path}: rng_state is not a "
                             f"{type(rng.bit_generator).__name__} state: {e!r}") from e
        shapes = M.param_shapes(saved.model_cfg)
        adam_m, offset = _read_group(path, f, manifest, shapes, "adam_m", offset)
        adam_v, _ = _read_group(path, f, manifest, shapes, "adam_v", offset)
    return TrainState(
        params=saved.params,
        adam_m=adam_m,
        adam_v=adam_v,
        step=step,
        rng=rng,
        model_cfg=saved.model_cfg,
        data_cfg=saved.data_cfg,
        train_cfg=saved.train_cfg,
        sched=saved.sched,
    )
