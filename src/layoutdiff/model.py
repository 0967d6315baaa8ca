"""Transformer noise predictor with timestep-adaptive layer norm.

The backbone is a stack of pre-norm transformer blocks whose layer norms are
modulated (shift/scale/gate) by an embedding of the diffusion timestep,
followed by a final layer norm and a linear head. Forward and backward passes
are written out by hand in numpy so gradients can be validated against finite
differences at 64-bit precision.

Two wirings share the backbone:

* non-autoregressive: full bidirectional attention over the n_max tokens.
* autoregressive: the input sequence is [data tokens] ++ [START] ++ [known
  noise tokens]; attention is bidirectional over the data+START prefix and
  causal over noise positions, and the prediction for token i is read at
  position n_max + i (START predicts token 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schedule import ConfigError

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# tanh-form GELU: 0.5 x (1 + tanh(GELU_C (x + GELU_A x^3)))
GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
GELU_FORMS = ("erf", "tanh")


class UnsupportedModeError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 4
    heads: int = 8
    hidden: int = 512
    token_dim: int = 16
    n_max: int = 16
    variance_head: bool = False
    ar_mode: bool = False
    adapter_latent: int | None = None
    # "tanh" is the DiT backbone's approximation; checkpoints written before
    # the field existed load as "erf", the exact form they were trained with
    gelu: str = "tanh"

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )
        if self.hidden % 2 != 0:
            raise ConfigError("hidden must be even (sinusoidal features pair up)")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.gelu not in GELU_FORMS:
            raise ConfigError(f"gelu must be one of {GELU_FORMS}, got {self.gelu!r}")

    @property
    def out_dim(self) -> int:
        return self.token_dim * (2 if self.variance_head else 1)

    @property
    def n_positions(self) -> int:
        return 2 * self.n_max + 1 if self.ar_mode else self.n_max


@dataclass
class VariancePrediction:
    """Predicted noise plus, optionally, the variance interpolation coefficient."""

    eps_hat: np.ndarray
    var_coef: np.ndarray | None = None


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    h = cfg.hidden
    shapes = {
        "in_proj.w": (cfg.token_dim, h),
        "in_proj.b": (h,),
        "t_mlp.w1": (h, h),
        "t_mlp.b1": (h,),
        "t_mlp.w2": (h, h),
        "t_mlp.b2": (h,),
    }
    for i in range(cfg.layers):
        p = f"blocks.{i}."
        shapes[p + "mod.w"] = (h, 6 * h)
        shapes[p + "mod.b"] = (6 * h,)
        shapes[p + "attn.wqkv"] = (h, 3 * h)
        shapes[p + "attn.bqkv"] = (3 * h,)
        shapes[p + "attn.wo"] = (h, h)
        shapes[p + "attn.bo"] = (h,)
        shapes[p + "mlp.w1"] = (h, 4 * h)
        shapes[p + "mlp.b1"] = (4 * h,)
        shapes[p + "mlp.w2"] = (4 * h, h)
        shapes[p + "mlp.b2"] = (h,)
    shapes["final.mod.w"] = (h, 2 * h)
    shapes["final.mod.b"] = (2 * h,)
    shapes["head.w"] = (h, cfg.out_dim)
    shapes["head.b"] = (cfg.out_dim,)
    shapes["pos"] = (cfg.n_positions, h)
    if cfg.ar_mode:
        shapes["start"] = (h,)
        shapes["seg"] = (3, h)
    return shapes


def param_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


# zero-initialized groups: every bias; modulations start as identity and the
# head as the zero function, so an untrained model predicts exactly zero noise
_ZERO_INIT_SUFFIXES = (".b", ".bqkv", ".bo", ".b1", ".b2", "mod.w", "head.w")


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict:
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(_ZERO_INIT_SUFFIXES):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = (rng.standard_normal(shape) * 0.02).astype(dtype)
    return params


# ---------------------------------------------------------------------------
# primitive ops with cached backward passes


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s, s


def _silu_grad(x, s):
    return s * (1.0 + x * (1.0 - s))


def _gelu(x, form):
    """GELU of x in the given form; returns (y, aux) for _gelu_grad.

    aux is Phi(x) for "erf" and tanh(GELU_C (x + GELU_A x^3)) for "tanh".
    """
    if form == "erf":
        # imported here: scipy.special adds about 0.3 s to `import layoutdiff`
        from scipy.special import erf

        phi = 0.5 * (1.0 + erf(x / SQRT2))
        return x * phi, phi
    th = x * x
    th *= GELU_C * GELU_A
    th += GELU_C
    th *= x
    np.tanh(th, out=th)
    y = th + 1.0
    y *= x
    y *= 0.5
    return y, th


def _gelu_grad(x, aux, form):
    if form == "erf":
        return aux + x * INV_SQRT_2PI * np.exp(-0.5 * x * x)
    # 0.5 (1 + th) + 0.5 x (1 - th^2) GELU_C (1 + 3 GELU_A x^2)
    d = x * x
    d *= 3.0 * GELU_C * GELU_A
    d += GELU_C
    d *= x
    sech2 = aux * aux
    np.subtract(1.0, sech2, out=sech2)
    d *= sech2
    d += aux
    d += 1.0
    d *= 0.5
    return d


def _matmul_rows(x, w):
    """x (..., k) @ w (k, n) as one 2-D GEMM over the flattened rows of x.

    numpy runs a 3-D activation times a transposed 2-D weight as a stacked
    product; flattening sends it through a single BLAS call instead.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _layernorm(x, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    return y, inv


def _layernorm_grad(dy, y, inv):
    m1 = dy.mean(axis=-1, keepdims=True)
    m2 = (dy * y).mean(axis=-1, keepdims=True)
    return inv * (dy - m1 - y * m2)


def timestep_features(t, dim) -> np.ndarray:
    """Fixed sinusoidal features of a (batched) integer timestep."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


# ---------------------------------------------------------------------------
# backbone forward/backward


def timestep_modulations(params, cfg: ModelConfig, t, for_backward=False):
    """The adaptive layer norms' modulations for a 1-D array of timesteps t.

    Runs the timestep MLP and every modulation GEMM once over all of t and
    returns (mods, cache). mods is (len(t), 6 * layers + 2, hidden): for each
    block its (shift, 1 + scale, gate) rows for attention and then for the
    MLP, and last the final layer's (shift, 1 + scale). cache holds what
    _backward_core's timestep path reads, or is None unless for_backward.
    The modulations depend only on (params, t), so a sampler builds the
    table of its whole schedule once and hands each step its row (see
    modulation_row).
    """
    dtype = params["in_proj.w"].dtype
    h = cfg.hidden
    f = timestep_features(t, h).astype(dtype)
    u1 = f @ params["t_mlp.w1"] + params["t_mlp.b1"]
    a1, s_u1 = _silu(u1)
    temb = a1 @ params["t_mlp.w2"] + params["t_mlp.b2"]
    c, s_temb = _silu(temb)
    mods = np.empty((len(c), 6 * cfg.layers + 2, h), dtype=dtype)
    for i in range(cfg.layers):
        mods[:, 6 * i : 6 * i + 6] = (
            c @ params[f"blocks.{i}.mod.w"] + params[f"blocks.{i}.mod.b"]).reshape(-1, 6, h)
    mods[:, -2:] = (c @ params["final.mod.w"] + params["final.mod.b"]).reshape(-1, 2, h)
    # every third row, from row 1 on, is a scale
    mods[:, 1::3] += 1.0
    cache = None
    if for_backward:
        cache = {"f": f, "u1": u1, "s_u1": s_u1, "a1": a1,
                 "temb": temb, "s_temb": s_temb, "c": c}
    return mods, cache


def modulation_row(table, t):
    """Row t of a timestep_modulations table over arange(T), as one call's mods."""
    if not 0 <= t < len(table):
        raise ValueError(f"timestep {t} outside the modulation table's [0, {len(table)})")
    return table[t : t + 1]


def _forward_core(params, cfg: ModelConfig, h0, mods, attn_bias=None, step=None,
                  for_backward=True):
    """Run the block stack on pre-assembled hidden states h0 (B, S, hidden).

    mods are the timestep_modulations rows of the batch: one per sample, or
    one row shared by all. Returns (out, cache); out is (B, S, out_dim).
    cache holds the intermediates _backward_core needs, less the timestep
    path's, or is None when for_backward is False, so that inference frees
    each block's activations as it goes.

    With step, an ARStepCache, the call is one of a diffusion step's cached
    AR calls: it stores each layer's K/V, and the rows of later calls attend
    to every stored position as well as to their own.
    """
    nh, dh = cfg.heads, cfg.hidden // cfg.heads
    B, S, _ = h0.shape
    # (6 * layers + 2, rows, 1, hidden): each modulation broadcasts over positions
    mods = mods.transpose(1, 0, 2)[:, :, None, :]
    cache = {"blocks": []} if for_backward else None

    x = h0
    scale = 1.0 / math.sqrt(dh)
    for i in range(cfg.layers):
        p = f"blocks.{i}."
        sh1, sc1, g1, sh2, sc2, g2 = mods[6 * i : 6 * i + 6]

        xn1, inv1 = _layernorm(x)
        xm1 = xn1 * sc1
        xm1 += sh1

        qkv = _matmul_rows(xm1, params[p + "attn.wqkv"])
        qkv += params[p + "attn.bqkv"]
        q, k, v = qkv.reshape(B, S, 3, nh, dh).transpose(2, 0, 3, 1, 4)
        if step is not None:
            if i in step.kv:
                k = np.concatenate([step.kv[i][0], k], axis=2)
                v = np.concatenate([step.kv[i][1], v], axis=2)
            step.kv[i] = (k, v)
        probs = q @ k.transpose(0, 1, 3, 2)
        probs *= scale
        if attn_bias is not None:
            probs += attn_bias
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B, S, cfg.hidden)
        attn_out = _matmul_rows(ctx, params[p + "attn.wo"])
        attn_out += params[p + "attn.bo"]
        x2 = g1 * attn_out
        x2 += x

        xn2, inv2 = _layernorm(x2)
        xm2 = xn2 * sc2
        xm2 += sh2
        um = _matmul_rows(xm2, params[p + "mlp.w1"])
        um += params[p + "mlp.b1"]
        am, gelu_aux = _gelu(um, cfg.gelu)
        mlp_out = _matmul_rows(am, params[p + "mlp.w2"])
        mlp_out += params[p + "mlp.b2"]

        if cache is not None:
            cache["blocks"].append({
                "xn1": xn1, "inv1": inv1, "xm1": xm1,
                "q": q, "k": k, "v": v, "probs": probs, "ctx": ctx,
                "attn_out": attn_out, "xn2": xn2, "inv2": inv2,
                "xm2": xm2, "um": um, "gelu_aux": gelu_aux, "am": am,
                "mlp_out": mlp_out,
                "sc1": sc1, "g1": g1, "sc2": sc2, "g2": g2,
            })
        x = g2 * mlp_out
        x += x2

    sh_f, sc_f = mods[-2:]
    xnf, invf = _layernorm(x)
    xmf = xnf * sc_f
    xmf += sh_f
    out = _matmul_rows(xmf, params["head.w"])
    out += params["head.b"]
    if cache is not None:
        cache.update({"xnf": xnf, "invf": invf, "xmf": xmf, "sc_f": sc_f})
    return out, cache


def _backward_core(params, cfg: ModelConfig, cache, dout):
    """Backprop through _forward_core and, from cache["timestep"], through
    timestep_modulations; returns (grads, dh0)."""
    nh, dh = cfg.heads, cfg.hidden // cfg.heads
    B, S, _ = dout.shape
    grads = {}
    tc = cache["timestep"]
    c = tc["c"]
    dc = np.zeros_like(c)

    # final layer
    grads["head.w"] = cache["xmf"].reshape(-1, cfg.hidden).T @ dout.reshape(-1, cfg.out_dim)
    grads["head.b"] = dout.sum(axis=(0, 1))
    dxmf = _matmul_rows(dout, params["head.w"].T)
    dxnf = dxmf * cache["sc_f"]
    dsc_f = (dxmf * cache["xnf"]).sum(axis=1)
    dsh_f = dxmf.sum(axis=1)
    dmod_f = np.concatenate([dsh_f, dsc_f], axis=-1)
    grads["final.mod.w"] = c.T @ dmod_f
    grads["final.mod.b"] = dmod_f.sum(axis=0)
    dc += dmod_f @ params["final.mod.w"].T
    dx = _layernorm_grad(dxnf, cache["xnf"], cache["invf"])

    scale = 1.0 / math.sqrt(dh)
    for i in reversed(range(cfg.layers)):
        p = f"blocks.{i}."
        bc = cache["blocks"][i]

        # mlp branch: x3 = x2 + g2 * mlp_out
        dg2 = (dx * bc["mlp_out"]).sum(axis=1)
        dmlp_out = dx * bc["g2"]
        grads[p + "mlp.w2"] = bc["am"].reshape(-1, 4 * cfg.hidden).T @ dmlp_out.reshape(-1, cfg.hidden)
        grads[p + "mlp.b2"] = dmlp_out.sum(axis=(0, 1))
        dam = _matmul_rows(dmlp_out, params[p + "mlp.w2"].T)
        dum = dam * _gelu_grad(bc["um"], bc["gelu_aux"], cfg.gelu)
        grads[p + "mlp.w1"] = bc["xm2"].reshape(-1, cfg.hidden).T @ dum.reshape(-1, 4 * cfg.hidden)
        grads[p + "mlp.b1"] = dum.sum(axis=(0, 1))
        dxm2 = _matmul_rows(dum, params[p + "mlp.w1"].T)
        dxn2 = dxm2 * bc["sc2"]
        dsc2 = (dxm2 * bc["xn2"]).sum(axis=1)
        dsh2 = dxm2.sum(axis=1)
        dx2 = dx + _layernorm_grad(dxn2, bc["xn2"], bc["inv2"])

        # attention branch: x2 = x + g1 * attn_out
        dg1 = (dx2 * bc["attn_out"]).sum(axis=1)
        dattn_out = dx2 * bc["g1"]
        grads[p + "attn.wo"] = bc["ctx"].reshape(-1, cfg.hidden).T @ dattn_out.reshape(-1, cfg.hidden)
        grads[p + "attn.bo"] = dattn_out.sum(axis=(0, 1))
        dctx = _matmul_rows(dattn_out, params[p + "attn.wo"].T).reshape(B, S, nh, dh).transpose(0, 2, 1, 3)
        probs = bc["probs"]
        dprobs = dctx @ bc["v"].transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dlogits = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = (dlogits @ bc["k"]) * scale
        dk = (dlogits.transpose(0, 1, 3, 2) @ bc["q"]) * scale
        dqkv = np.concatenate(
            [a.transpose(0, 2, 1, 3).reshape(B, S, cfg.hidden) for a in (dq, dk, dv)],
            axis=-1,
        )
        grads[p + "attn.wqkv"] = bc["xm1"].reshape(-1, cfg.hidden).T @ dqkv.reshape(-1, 3 * cfg.hidden)
        grads[p + "attn.bqkv"] = dqkv.sum(axis=(0, 1))
        dxm1 = _matmul_rows(dqkv, params[p + "attn.wqkv"].T)
        dxn1 = dxm1 * bc["sc1"]
        dsc1 = (dxm1 * bc["xn1"]).sum(axis=1)
        dsh1 = dxm1.sum(axis=1)
        dx = dx2 + _layernorm_grad(dxn1, bc["xn1"], bc["inv1"])

        dmod = np.concatenate([dsh1, dsc1, dg1, dsh2, dsc2, dg2], axis=-1)
        grads[p + "mod.w"] = c.T @ dmod
        grads[p + "mod.b"] = dmod.sum(axis=0)
        dc += dmod @ params[p + "mod.w"].T

    # timestep embedding path
    dtemb = dc * _silu_grad(tc["temb"], tc["s_temb"])
    grads["t_mlp.w2"] = tc["a1"].T @ dtemb
    grads["t_mlp.b2"] = dtemb.sum(axis=0)
    da1 = dtemb @ params["t_mlp.w2"].T
    du1 = da1 * _silu_grad(tc["u1"], tc["s_u1"])
    grads["t_mlp.w1"] = tc["f"].T @ du1
    grads["t_mlp.b1"] = du1.sum(axis=0)

    return grads, dx


# ---------------------------------------------------------------------------
# non-autoregressive wiring


def _embed_nonar(params, cfg: ModelConfig, tokens):
    if cfg.ar_mode:
        raise UnsupportedModeError("model config enables ar_mode; the one-pass wiring needs it off")
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    return tokens @ params["in_proj.w"] + params["in_proj.b"] + params["pos"][None, : cfg.n_max, :]


def _split_output(cfg: ModelConfig, out) -> VariancePrediction:
    if cfg.variance_head:
        eps_hat = out[..., : cfg.token_dim]
        raw = out[..., cfg.token_dim :]
        return VariancePrediction(eps_hat=eps_hat, var_coef=1.0 / (1.0 + np.exp(-raw)))
    return VariancePrediction(eps_hat=out)


def forward_nonar(params, cfg: ModelConfig, tokens, t, mods=None) -> VariancePrediction:
    """Predict per-token noise for a (B, n_max, token_dim) batch.

    mods, when given, are t's timestep_modulations rows (a sampler passes
    modulation_row(table, t)); t itself is then not read.
    """
    tokens = np.asarray(tokens)
    if tokens.shape[-2:] != (cfg.n_max, cfg.token_dim):
        raise ValueError(
            f"tokens shape {tokens.shape} incompatible with (n_max, token_dim)="
            f"({cfg.n_max}, {cfg.token_dim})"
        )
    squeeze = tokens.ndim == 2
    if squeeze:
        tokens = tokens[None]
    h0 = _embed_nonar(params, cfg, tokens)
    if mods is None:
        mods, _ = timestep_modulations(params, cfg, t)
    out, _ = _forward_core(params, cfg, h0, mods, for_backward=False)
    return _split_output(cfg, out[0] if squeeze else out)


# ---------------------------------------------------------------------------
# autoregressive wiring


def _ar_bias(n, k, dtype):
    """Additive attention bias for a [data*n, START, noise*k] sequence.

    Data and START positions see only each other; noise position j also sees
    noise positions <= j. This keeps prediction i a function of the i-prefix
    while allowing one masked pass to produce every teacher-forced prediction.
    """
    S = n + 1 + k
    bias = np.zeros((S, S), dtype=dtype)
    bias[:, n + 1 :] = -np.inf
    for j in range(k):
        bias[n + 1 + j, n + 1 : n + 2 + j] = 0.0
    return bias


def _embed_ar(params, cfg: ModelConfig, tokens, noise):
    """Assemble hidden states for the AR sequence; noise may have k <= n rows."""
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    noise = np.asarray(noise, dtype=dtype)
    B, n, _ = tokens.shape
    k = noise.shape[1]
    seg = params["seg"]
    data_h = tokens @ params["in_proj.w"] + params["in_proj.b"] + params["pos"][None, :n, :] + seg[0]
    start_h = (params["start"] + params["pos"][n] + seg[1])[None, None, :]
    start_h = np.broadcast_to(start_h, (B, 1, cfg.hidden))
    parts = [data_h, start_h]
    if k:
        parts.append(_embed_noise(params, noise, n + 1))
    return np.concatenate(parts, axis=1)


def _embed_noise(params, noise, first_pos):
    """Hidden states of noise rows (B, k, token_dim) placed from first_pos on."""
    k = noise.shape[1]
    return noise @ params["in_proj.w"] + params["in_proj.b"] + params["pos"][None, first_pos : first_pos + k, :] + params["seg"][2]


@dataclass
class ARStepCache:
    """What the token-by-token forward_ar calls of one diffusion step share.

    The step's first call runs the data+START prefix and stores each layer's
    K/V. Every later call embeds and runs only the newest noise row, which
    attends to all stored positions and adds its own K/V. Under _ar_bias the
    prefix never attends to noise rows, so its stored K/V stay valid for the
    whole step. One cache serves one (tokens, t) pair: make a new one for
    each diffusion step.
    """

    # layer index -> (K, V), each (B, heads, positions, head_dim)
    kv: dict = field(default_factory=dict)

    @property
    def positions(self) -> int:
        return self.kv[0][0].shape[2] if self.kv else 0


def forward_ar(params, cfg: ModelConfig, tokens, noise_prefix, t,
               cache: ARStepCache | None = None, mods=None) -> np.ndarray:
    """Predict the noise for token i = len(noise_prefix), read at the last position.

    Accepts a single sample (n_max, token_dim) or a batch (B, n_max, token_dim);
    the prediction shape follows the input.

    With a cache, the calls of one diffusion step must come in order,
    i = 0, 1, ..., with the same tokens and t; call i runs only the data+START
    prefix (i = 0) or noise row i - 1, and its result equals the uncached
    call's to float rounding. mods are as in forward_nonar; passing the same
    rows to every call of a step computes them once.
    """
    if not cfg.ar_mode:
        raise UnsupportedModeError("model config does not enable ar_mode")
    tokens = np.asarray(tokens)
    squeeze = tokens.ndim == 2
    if squeeze:
        tokens = tokens[None]
    noise_prefix = np.asarray(noise_prefix, dtype=tokens.dtype)
    if noise_prefix.ndim == 2:
        noise_prefix = np.broadcast_to(noise_prefix[None], (tokens.shape[0],) + noise_prefix.shape)
    k = noise_prefix.shape[1]
    if not (0 <= k < cfg.n_max):
        raise ValueError(f"noise prefix length {k} outside [0, {cfg.n_max})")
    n = cfg.n_max
    # call k follows the n+1 prefix rows and noise rows 0..k-2
    expected = n + k if k else 0
    if cache is not None and cache.positions != expected:
        raise ValueError(
            f"the cache holds {cache.positions} positions, but a noise prefix "
            f"of length {k} needs {expected}"
        )
    if cache is None or k == 0:
        h0 = _embed_ar(params, cfg, tokens, noise_prefix)
        bias = _ar_bias(n, k, h0.dtype)
    else:
        dtype = params["in_proj.w"].dtype
        h0 = _embed_noise(params, noise_prefix[:, -1:].astype(dtype), n + k)
        bias = None
    if mods is None:
        mods, _ = timestep_modulations(params, cfg, t)
    out, _ = _forward_core(params, cfg, h0, mods, attn_bias=bias, step=cache,
                           for_backward=False)
    pred = out[:, -1, : cfg.token_dim]
    return pred[0] if squeeze else pred


def forward_ar_all(params, cfg: ModelConfig, tokens, noise, t):
    """Teacher-forced predictions for every token in one masked pass.

    Returns (eps_hat, cache); eps_hat[:, i] is the prediction for token i and
    depends only on (tokens, t, noise[:, :i]).
    """
    if not cfg.ar_mode:
        raise UnsupportedModeError("model config does not enable ar_mode")
    tokens = np.asarray(tokens)
    B, n, _ = tokens.shape
    h0 = _embed_ar(params, cfg, tokens, np.asarray(noise)[:, : n - 1, :])
    bias = _ar_bias(n, n - 1, h0.dtype)
    mods, tcache = timestep_modulations(params, cfg, t, for_backward=True)
    out, cache = _forward_core(params, cfg, h0, mods, attn_bias=bias)
    cache["timestep"] = tcache
    return out[:, n : 2 * n, : cfg.token_dim], cache


# ---------------------------------------------------------------------------
# losses with gradients


def _embed_grads_nonar(params, cfg, tokens, dh0):
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    td = cfg.token_dim
    g = {
        "in_proj.w": tokens.reshape(-1, td).T @ dh0.reshape(-1, cfg.hidden),
        "in_proj.b": dh0.sum(axis=(0, 1)),
    }
    gpos = np.zeros_like(params["pos"])
    gpos[: cfg.n_max] = dh0.sum(axis=0)
    g["pos"] = gpos
    return g


def nonar_loss_and_grads(params, cfg: ModelConfig, xt, t, eps_true,
                         sched=None, x0=None, kl_weight=1e-3):
    """MSE (plus KL in learned-variance mode) and its parameter gradients."""
    dtype = params["in_proj.w"].dtype
    xt = np.asarray(xt, dtype=dtype)
    eps_true = np.asarray(eps_true, dtype=dtype)
    h0 = _embed_nonar(params, cfg, xt)
    mods, tcache = timestep_modulations(params, cfg, t, for_backward=True)
    out, cache = _forward_core(params, cfg, h0, mods)
    cache["timestep"] = tcache
    pred = _split_output(cfg, out)
    eps_hat, v = pred.eps_hat, pred.var_coef
    numel = eps_hat.size
    diff = eps_hat - eps_true
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    deps = (2.0 / numel) * diff

    dout = np.zeros_like(out)
    if cfg.variance_head:
        if sched is None or x0 is None:
            raise ValueError("learned-variance loss needs sched and x0")
        t_arr = np.asarray(t)
        beta_t = sched.beta[t_arr].reshape(-1, 1, 1)
        alpha_t = sched.alpha[t_arr].reshape(-1, 1, 1)
        ab_t = sched.alpha_bar[t_arr].reshape(-1, 1, 1)
        ab_prev = np.asarray(sched.abar(t_arr - 1)).reshape(-1, 1, 1)
        denom = 1.0 - ab_t
        mu_q = (np.sqrt(ab_prev) * beta_t / denom) * np.asarray(x0, dtype=np.float64) + (
            np.sqrt(alpha_t) * (1.0 - ab_prev) / denom
        ) * xt.astype(np.float64)
        beta_tilde = np.maximum((1.0 - ab_prev) / denom * beta_t, 1e-20)
        mu_p = (xt.astype(np.float64) - beta_t / np.sqrt(denom) * eps_hat) / np.sqrt(alpha_t)
        log_var_p = v * np.log(beta_t) + (1.0 - v) * np.log(beta_tilde)
        var_p = np.exp(log_var_p)
        delta2 = (mu_q - mu_p) ** 2
        kl = 0.5 * log_var_p - 0.5 * np.log(beta_tilde) + (beta_tilde + delta2) / (2.0 * var_p) - 0.5
        kl_term = float(np.mean(kl))
        loss = loss + kl_weight * kl_term
        dmu_p = kl_weight * (mu_p - mu_q) / var_p / numel
        dlogvar = kl_weight * (0.5 - (beta_tilde + delta2) / (2.0 * var_p)) / numel
        deps = deps + (dmu_p * (-beta_t / (np.sqrt(denom) * np.sqrt(alpha_t)))).astype(dtype)
        draw = (dlogvar * v * (1.0 - v) * (np.log(beta_t) - np.log(beta_tilde))).astype(dtype)
        dout[..., cfg.token_dim :] = draw
    dout[..., : cfg.token_dim] = deps.astype(dtype)

    # the core and embedding grads cover disjoint parameters
    grads, dh0 = _backward_core(params, cfg, cache, dout)
    grads.update(_embed_grads_nonar(params, cfg, xt, dh0))
    return loss, grads


def _embed_grads_ar(params, cfg, tokens, noise, dh0):
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    noise = np.asarray(noise, dtype=dtype)
    B, n, td = tokens.shape
    d_data = dh0[:, :n, :]
    d_start = dh0[:, n, :]
    d_noise = dh0[:, n + 1 :, :]
    g = {}
    g["in_proj.w"] = (tokens.reshape(-1, td).T @ d_data.reshape(-1, cfg.hidden)
                      + noise.reshape(-1, td).T @ d_noise.reshape(-1, cfg.hidden))
    g["in_proj.b"] = d_data.sum(axis=(0, 1)) + d_noise.sum(axis=(0, 1))
    # sequence row i sits at position i
    gpos = np.zeros_like(params["pos"])
    gpos[: dh0.shape[1]] = dh0.sum(axis=0)
    g["pos"] = gpos
    g["start"] = d_start.sum(axis=0)
    gseg = np.zeros_like(params["seg"])
    gseg[0] = d_data.sum(axis=(0, 1))
    gseg[1] = g["start"]
    gseg[2] = d_noise.sum(axis=(0, 1))
    g["seg"] = gseg
    return g


def ar_loss_and_grads(params, cfg: ModelConfig, xt, t, eps_true):
    """Sum over tokens of per-token MSE, teacher-forced on the true noise."""
    dtype = params["in_proj.w"].dtype
    xt = np.asarray(xt, dtype=dtype)
    eps_true = np.asarray(eps_true, dtype=dtype)
    B, n, td = xt.shape
    preds, cache = forward_ar_all(params, cfg, xt, eps_true, t)
    diff = preds - eps_true
    # per-token mean squared error, summed over token index
    per_token = np.mean(diff.astype(np.float64) ** 2, axis=(0, 2))
    loss = float(per_token.sum())
    dpred = (2.0 / (B * td)) * diff
    # the sequence is n data rows, START and n - 1 noise rows
    dout = np.zeros((B, 2 * n, cfg.out_dim), dtype=dtype)
    dout[:, n : 2 * n, : cfg.token_dim] = dpred.astype(dtype)
    grads, dh0 = _backward_core(params, cfg, cache, dout)
    grads.update(_embed_grads_ar(params, cfg, xt, eps_true[:, : n - 1, :], dh0))
    return loss, grads


# ---------------------------------------------------------------------------
# optional MLP autoencoder adapter (latent-space ablation)


def init_adapter(cfg: ModelConfig, seed: int, dtype=np.float64, identity=False) -> dict:
    """Linear 16 -> d_latent -> 16 autoencoder used only for the ablation."""
    if cfg.adapter_latent is None:
        raise UnsupportedModeError("adapter_latent is not set in the model config")
    d = cfg.adapter_latent
    td = cfg.token_dim
    if identity:
        if d != td:
            raise ConfigError("identity init requires d_latent == token_dim")
        return {
            "enc.w": np.eye(td, dtype=dtype), "enc.b": np.zeros(d, dtype=dtype),
            "dec.w": np.eye(td, dtype=dtype), "dec.b": np.zeros(td, dtype=dtype),
        }
    rng = np.random.default_rng(seed)
    s = 1.0 / math.sqrt(td)
    return {
        "enc.w": (rng.standard_normal((td, d)) * s).astype(dtype),
        "enc.b": np.zeros(d, dtype=dtype),
        "dec.w": (rng.standard_normal((d, td)) * s).astype(dtype),
        "dec.b": np.zeros(td, dtype=dtype),
    }


def adapter_encode(adapter, cfg: ModelConfig, tokens):
    if cfg.adapter_latent is None:
        raise UnsupportedModeError("adapter_latent is not set in the model config")
    return np.asarray(tokens) @ adapter["enc.w"] + adapter["enc.b"]


def adapter_decode(adapter, cfg: ModelConfig, latents):
    if cfg.adapter_latent is None:
        raise UnsupportedModeError("adapter_latent is not set in the model config")
    return np.asarray(latents) @ adapter["dec.w"] + adapter["dec.b"]


def train_adapter(adapter, cfg: ModelConfig, tokens, steps=2000, lr=1e-2):
    """Fit the autoencoder by reconstruction MSE (Adam: AdamW with no weight
    decay and no clipping, in float64); returns losses."""
    # imported here: training imports this module
    from .training import adamw_step

    x = np.asarray(tokens, dtype=np.float64).reshape(-1, cfg.token_dim)
    m = {k: np.zeros(v.shape) for k, v in adapter.items()}
    v2 = {k: np.zeros(v.shape) for k, v in adapter.items()}
    losses = []
    for step in range(1, steps + 1):
        z = x @ adapter["enc.w"] + adapter["enc.b"]
        y = z @ adapter["dec.w"] + adapter["dec.b"]
        diff = y - x
        loss = float(np.mean(diff**2))
        losses.append(loss)
        dy = 2.0 * diff / diff.size
        g = {
            "dec.w": z.T @ dy,
            "dec.b": dy.sum(axis=0),
        }
        dz = dy @ adapter["dec.w"].T
        g["enc.w"] = x.T @ dz
        g["enc.b"] = dz.sum(axis=0)
        adamw_step(adapter, m, v2, g, step, lr, weight_decay=0.0, grad_clip=None)
    return losses
