"""Reverse-process sampling: unconditional, mask-conditioned, autoregressive.

Conditioning is replacement-based inpainting: after every reverse step the
conditioned entries are overwritten with a forward-noised copy of the known
clean values at the new noise level, so that at the clean boundary they equal
the knowns exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import schedule as S
from .core import (
    CAT_SLICE,
    DatasetConfig,
    detokenize_layout,
    detokenize_segments,
    tokenize_layout,
)


@dataclass(frozen=True)
class ConditionMask:
    """Per-entry boolean mask (True = entry is given) plus the known values."""

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        values = np.asarray(self.values, dtype=np.float64)
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        # category bits of a token are conditioned together or not at all
        cat = mask[..., CAT_SLICE]
        if np.any(cat.any(axis=-1) & ~cat.all(axis=-1)):
            raise ValueError("category entries must be masked together per token")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "values", values)

    @property
    def empty(self) -> bool:
        return not self.mask.any()


def mask_from_layout(layout, cfg: DatasetConfig, kind: str) -> ConditionMask:
    """Build a 'cate' or 'cate_size' mask from a reference layout.

    Category conditioning fixes the category code of every token (PAD rows
    included, which also pins the element count); 'cate_size' additionally
    fixes the h and w entries.
    """
    tokens = tokenize_layout(layout, cfg)
    mask = np.zeros_like(tokens, dtype=bool)
    mask[:, CAT_SLICE] = True
    if kind == "cate_size":
        mask[:, 2] = True
        mask[:, 3] = True
    elif kind != "cate":
        raise ValueError(f"unknown mask kind {kind!r}")
    return ConditionMask(mask=mask, values=tokens)


def apply_condition(xt, cond: ConditionMask, t, sched: S.Schedule, rng):
    """Overwrite conditioned entries with the knowns noised to level t.

    t = -1 denotes the clean boundary: the knowns are copied verbatim. The
    knowns broadcast over a batch, and the noise is drawn with xt's shape.
    """
    xt = np.asarray(xt, dtype=np.float64)
    if cond is None or cond.empty:
        return xt
    values = np.broadcast_to(cond.values, xt.shape)
    if t >= 0:
        values = S.q_sample(values, t, rng.standard_normal(xt.shape), sched)
    out = xt.copy()
    m = np.broadcast_to(cond.mask, xt.shape)
    out[m] = values[m]
    return out


def sample_tokens(predictor, sched: S.Schedule, shape, rng, method="ddpm",
                  eta=0.0, cond: ConditionMask | None = None,
                  capture_stride: int | None = None):
    """Drive the reverse process from x_T ~ N(0, I) down to a clean sample.

    shape is (n_max, token_dim) for one sample or (B, n_max, token_dim) for a
    batch. predictor(x, t) must return the predicted noise for the whole
    batch; it may also return a VariancePrediction to supply a learned
    variance to the DDPM step. Raises ValueError on a bad method, eta or
    capture_stride before x_T is drawn, and FloatingPointError naming the
    sample and t as soon as a reverse step yields a non-finite entry.

    Returns (x0, trajectory), where trajectory is None without a
    capture_stride and otherwise a list of (t, x) pairs: x as it enters the
    step at t, every capture_stride steps from t = T - 1, then (-1, x0). The
    t are strictly decreasing.
    """
    if method not in ("ddpm", "ddim"):
        raise ValueError(f"method must be 'ddpm' or 'ddim', got {method!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if capture_stride is not None and capture_stride < 1:
        raise ValueError(f"capture_stride must be >= 1, got {capture_stride}")
    T = sched.T
    x = rng.standard_normal(shape)
    x = apply_condition(x, cond, T - 1, sched, rng)
    traj = [] if capture_stride else None
    for t in range(T - 1, -1, -1):
        steps_done = T - 1 - t
        if traj is not None and steps_done % capture_stride == 0:
            traj.append((t, x.copy()))
        pred = predictor(x, t)
        if isinstance(pred, M.VariancePrediction):
            eps_hat, var_coef = pred.eps_hat, pred.var_coef
        else:
            eps_hat, var_coef = pred, None
        if method == "ddpm":
            x = S.ddpm_step(x, eps_hat, t, sched, rng, var_pred=var_coef)
        else:
            x = S.ddim_step(x, eps_hat, t, t - 1, eta, sched, rng)
        finite = np.isfinite(x).reshape(-1, *shape[-2:]).all(axis=(1, 2))
        if not finite.all():
            raise FloatingPointError(
                f"sample {int(np.argmin(finite))} has a non-finite entry after "
                f"the reverse step at t={t}"
            )
        x = apply_condition(x, cond, t - 1, sched, rng)
    if traj is not None:
        traj.append((-1, x.copy()))
    return x, traj


class SampleStreams:
    """One random stream per sample, spawned from the seed.

    A draw of shape (n, ...) takes row i from stream i, so each sample gets
    the draws it would get if it were sampled alone. Spawned child i does not
    depend on n, and no stream of one seed repeats a stream of another seed.
    """

    def __init__(self, seed: int, n: int):
        self.rngs = [np.random.default_rng(s)
                     for s in np.random.SeedSequence(seed).spawn(n)]

    def standard_normal(self, shape):
        return np.stack([rng.standard_normal(shape[1:]) for rng in self.rngs])


def _detok(batch, data_cfg: DatasetConfig):
    if data_cfg.mode == "segment":
        return [detokenize_segments(m, data_cfg) for m in batch]
    return [detokenize_layout(m, data_cfg) for m in batch]


def _check_compat(params, cfg: M.ModelConfig, data_cfg: DatasetConfig):
    if cfg.n_max != data_cfg.n_max:
        raise ValueError(
            f"model n_max {cfg.n_max} != dataset n_max {data_cfg.n_max}"
        )
    if "pos" not in params or params["pos"].shape[0] != cfg.n_positions:
        raise ValueError("parameters do not match the model config")


def _sample(make_predictor, params, cfg: M.ModelConfig, sched: S.Schedule,
            data_cfg: DatasetConfig, n_samples: int, seed: int, mask, method,
            eta, capture_stride):
    """Run all n_samples through one batched reverse process.

    The timestep modulations depend only on (params, t), so they are built
    once for the whole schedule; make_predictor(table) gives the predictor
    that reads one row of the table per step.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    _check_compat(params, cfg, data_cfg)
    table, _ = M.timestep_modulations(params, cfg, np.arange(sched.T))
    tokens, traj = sample_tokens(
        make_predictor(table), sched, (n_samples, cfg.n_max, cfg.token_dim),
        SampleStreams(seed, n_samples), method=method, eta=eta, cond=mask,
        capture_stride=capture_stride,
    )
    trajs = None
    if traj is not None:
        trajs = [[(t, x[i]) for t, x in traj] for i in range(n_samples)]
    return _detok(tokens, data_cfg), tokens, trajs


def sample_nonar(params, cfg: M.ModelConfig, sched: S.Schedule,
                 data_cfg: DatasetConfig, n_samples: int, seed: int,
                 mask: ConditionMask | None = None, method="ddpm", eta=0.0,
                 capture_stride: int | None = None):
    """Generate n_samples layouts (or segment sets) with the one-pass model.

    All samples step as one batch; each owns its own rng stream (see
    SampleStreams). Returns (items, token matrices, trajectories-or-None).
    """
    def make_predictor(table):
        return lambda x, t: M.forward_nonar(params, cfg, x, t,
                                            mods=M.modulation_row(table, t))

    return _sample(make_predictor, params, cfg, sched, data_cfg, n_samples,
                   seed, mask, method, eta, capture_stride)


def ar_predictor(params, cfg: M.ModelConfig, table=None):
    """Assemble eps_hat token by token, per the autoregressive sampling loop.

    Takes x as (n_max, token_dim) or (B, n_max, token_dim). Each call is one
    diffusion step with its own ARStepCache: the data+START prefix runs once,
    then one noise row per token. The step's timestep modulations are row t
    of table (M.timestep_modulations over arange(T)), or are computed once
    per step without one.
    """

    def predictor(x, t):
        x = np.asarray(x)
        batch = x if x.ndim == 3 else x[None]
        cache = M.ARStepCache()
        if table is None:
            mods, _ = M.timestep_modulations(params, cfg, t)
        else:
            mods = M.modulation_row(table, t)
        eps = np.zeros(batch.shape, dtype=np.float64)
        for i in range(cfg.n_max):
            eps[:, i] = M.forward_ar(params, cfg, batch, eps[:, :i], t,
                                     cache=cache, mods=mods)
        return eps if x.ndim == 3 else eps[0]

    return predictor


def sample_ar(params, cfg: M.ModelConfig, sched: S.Schedule,
              data_cfg: DatasetConfig, n_samples: int, seed: int,
              mask: ConditionMask | None = None, method="ddim", eta=0.0,
              capture_stride: int | None = None):
    """Autoregressive sampling: per diffusion step, generate each token's
    noise prediction conditioned on the previously generated ones, then take
    one (DDIM by default) reverse step. All samples step as one batch."""
    if not cfg.ar_mode:
        raise M.UnsupportedModeError("sample_ar requires an ar_mode model")
    return _sample(lambda table: ar_predictor(params, cfg, table), params, cfg,
                   sched, data_cfg, n_samples, seed, mask, method, eta,
                   capture_stride)
