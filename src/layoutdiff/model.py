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

from .core import require_integers
from .schedule import ConfigError

# the MLP's GELU is the tanh form of DiT's backbone (Hendrycks & Gimpel,
# arXiv:1606.08415): 0.5 x (1 + tanh(GELU_C (x + GELU_A x^3)))
GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


class UnsupportedModeError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    layers: int = 4
    heads: int = 8
    hidden: int = 512
    token_dim: int = 16
    n_max: int = 16
    ar_mode: bool = False
    adapter_latent: int | None = None

    def __post_init__(self):
        sizes = ("layers", "heads", "hidden", "token_dim", "n_max")
        if self.adapter_latent is not None:
            sizes += ("adapter_latent",)
        require_integers(self, sizes, ConfigError)
        for name in sizes:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.hidden % self.heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )
        if self.hidden % 2 != 0:
            raise ConfigError("hidden must be even (sinusoidal features pair up)")

    @property
    def n_positions(self) -> int:
        return 2 * self.n_max + 1 if self.ar_mode else self.n_max


@dataclass(frozen=True)
class NoisePrediction:
    """What forward_nonar returns: the predicted noise, eps_hat."""

    eps_hat: np.ndarray


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
    shapes["head.w"] = (h, cfg.token_dim)
    shapes["head.b"] = (cfg.token_dim,)
    shapes["pos"] = (cfg.n_positions, h)
    if cfg.ar_mode:
        shapes["start"] = (h,)
        shapes["seg"] = (3, h)
    return shapes


def param_count(cfg: ModelConfig) -> int:
    return sum(math.prod(s) for s in param_shapes(cfg).values())


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


def _gelu(x, out=None, aux=None):
    """GELU of x; returns (y, aux) for _gelu_grad, written into out and aux
    when given. aux is tanh(GELU_C (x + GELU_A x^3))."""
    th = np.multiply(x, x, out=aux)
    th *= GELU_C * GELU_A
    th += GELU_C
    th *= x
    np.tanh(th, out=th)
    y = np.add(th, 1.0, out=out)
    y *= x
    y *= 0.5
    return y, th


def _gelu_grad(x, aux, out=None, tmp=None):
    """GELU'(x) from _gelu's aux, written into out when given; tmp, when
    given, holds the one other x-sized intermediate. tmp may be x itself:
    x is last read by the fourth statement, before tmp is first written."""
    # 0.5 (1 + th) + 0.5 x (1 - th^2) GELU_C (1 + 3 GELU_A x^2)
    d = np.multiply(x, x, out=out)
    d *= 3.0 * GELU_C * GELU_A
    d += GELU_C
    d *= x
    sech2 = np.multiply(aux, aux, out=tmp)
    np.subtract(1.0, sech2, out=sech2)
    d *= sech2
    d += aux
    d += 1.0
    d *= 0.5
    return d


def _buf(ws, key, shape, dtype):
    """The workspace's (shape, dtype) array for key, remade when its shape or
    dtype differs; its contents are whatever the last user left there.

    A workspace is a dict that a caller keeps across repeated training steps
    (TrainState.workspace), so that each step writes its activations and
    grads into the same memory. Without one (ws None) this returns None, and
    numpy's out=None allocates a fresh array: the same statements serve both.
    """
    if ws is None:
        return None
    a = ws.get(key)
    if a is None or a.shape != shape or a.dtype != dtype:
        a = ws[key] = np.empty(shape, dtype)
    return a


def _zeros(ws, key, shape, dtype):
    """_buf's array filled with zeros, or a fresh zero array without ws."""
    a = _buf(ws, key, shape, dtype)
    if a is None:
        return np.zeros(shape, dtype)
    a.fill(0)
    return a


def _grad_buf(ws, params, name):
    """The workspace's array for the grad of params[name], or None."""
    return _buf(ws, "grad." + name, params[name].shape, params[name].dtype)


def _matmul_rows(x, w, out=None):
    """x (..., k) @ w (k, n) as one 2-D GEMM over the flattened rows of x,
    written into out, a contiguous array of rows * n entries, when given.

    numpy runs a 3-D activation times a transposed 2-D weight as a stacked
    product; flattening sends it through a single BLAS call instead.
    """
    if out is not None:
        out = out.reshape(-1, w.shape[-1])
    y = np.matmul(x.reshape(-1, x.shape[-1]), w, out=out)
    return y.reshape(*x.shape[:-1], w.shape[-1])


def _mean_last(x):
    """x.mean(axis=-1, keepdims=True): the same sum and divide, without
    ndarray.mean's Python-level wrapper (layer norm runs twice per block)."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layernorm(x, eps=1e-6, y=None, inv=None):
    """Layer norm of x over its last axis; returns (y, inv) for
    _layernorm_grad, written into y and inv when given."""
    mu = _mean_last(x)
    xc = np.subtract(x, mu, out=y)
    var = _mean_last(xc * xc)
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=inv)
    xc *= inv
    return xc, inv


def _modulate(xn, sh, sc, out=None):
    """The adaptive layer norm's xn * sc + sh, written into out when given."""
    xm = np.multiply(xn, sc, out=out)
    xm += sh
    return xm


def _attention_probs(q, k, scale, bias=None, out=None):
    """softmax(q k^T * scale + bias) over the last axis, written into out
    when given. The row max and sum are the reductions ndarray.max and
    ndarray.sum run, without their Python-level wrappers."""
    probs = np.matmul(q, k.transpose(0, 1, 3, 2), out=out)
    probs *= scale
    if bias is not None:
        probs += bias
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    return probs


def _merge_heads(heads, out=None):
    """(B, heads, S, head_dim) heads as one (B, S, hidden) array, written
    into out, a contiguous array of as many entries, when given."""
    B, nh, S, dh = heads.shape
    if out is not None:
        out = out.reshape(B, S, nh, dh)
    # np.positive is an exact copy that takes out=, and order="C" makes the
    # array it allocates without out one reshape can view
    return np.positive(heads.transpose(0, 2, 1, 3), order="C", out=out).reshape(B, S, nh * dh)


def _layernorm_grad(dy, y, inv, out=None, tmp=None):
    """The grad of _layernorm's input from its output y, inv and the output's
    grad dy, written into out when given; tmp, when given, holds the
    products dy * y and y * m2. The statements compute
    inv * (dy - m1 - y * m2) in that expression's order, so out and tmp
    change no byte."""
    m1 = _mean_last(dy)
    m2 = _mean_last(np.multiply(dy, y, out=tmp))
    dx = np.subtract(dy, m1, out=out)
    dx -= np.multiply(y, m2, out=tmp)
    dx *= inv
    return dx


def timestep_features(t, dim) -> np.ndarray:
    """Fixed sinusoidal features of a (batched) integer timestep."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.cos(args), np.sin(args)], axis=-1)


# ---------------------------------------------------------------------------
# backbone forward/backward


def timestep_modulations(params, cfg: ModelConfig, t, for_backward=False, ws=None):
    """The adaptive layer norms' modulations for a 1-D array of timesteps t.

    Runs the timestep MLP and every modulation GEMM once over all of t and
    returns (mods, cache). mods is (len(t), 6 * layers + 2, hidden): for each
    block its (shift, 1 + scale, gate) rows for attention and then for the
    MLP, and last the final layer's (shift, 1 + scale). cache holds what
    _backward_core's timestep path reads, or is None unless for_backward.
    The modulations depend only on (params, t), so a sampler builds the
    table of its whole schedule once and hands each step its row (see
    modulation_row). With ws, a training step's workspace (see _buf), mods
    is written into it.
    """
    dtype = params["in_proj.w"].dtype
    h = cfg.hidden
    f = timestep_features(t, h).astype(dtype)
    u1 = f @ params["t_mlp.w1"] + params["t_mlp.b1"]
    a1, s_u1 = _silu(u1)
    temb = a1 @ params["t_mlp.w2"] + params["t_mlp.b2"]
    c, s_temb = _silu(temb)
    mods = _zeros(ws, "mods", (len(c), 6 * cfg.layers + 2, h), dtype)
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
                  for_backward=True, ws=None):
    """Run the block stack on pre-assembled hidden states h0 (B, S, hidden).

    mods are the timestep_modulations rows of the batch: one per sample, or
    one row shared by all. Returns (out, cache); out is (B, S, token_dim).

    An inference call, one with step (an ARStepCache) or with for_backward
    False, goes to _infer and returns a None cache; ws is then not read.
    Inference enters here because perfbench's model.forward_core span and
    its row count read this call boundary. The rest of this function serves
    training only.

    cache holds what _backward_core cannot rebuild cheaply, less the
    timestep path's. Per block it keeps the outputs of the GEMMs (qkv,
    attn_out, um, mlp_out), both layer norms' outputs and inverse
    deviations, and views of the block's modulations; it also keeps the
    call's attn_bias. It does not keep what backward rebuilds from these
    with this function's own statements on the same inputs, so with the
    bytes this forward made: the modulated layer norms xm1 and xm2
    (_modulate, from xn1 and xn2), the softmax (_attention_probs, from qkv's
    q and k and attn_bias), the merged context (probs @ v, then
    _merge_heads) and the MLP's GELU (_gelu, from um).

    With ws, a training step's workspace (see _buf), every array the cache
    holds is written into it, each block's into its own. The activations
    that backward does not read or rebuilds share one array each across
    blocks: xm holds xm1, then the merged context (xm1 is dead once the QKV
    GEMM has read it), then xm2; the softmax, the unmerged heads, the GELU
    and its tanh, the residual stream and the attention branch's sum have
    one array each. Backward writes its hidden-wide temporaries over the
    last two, over the heads and over xmf once head.w's grad has read it
    (see _backward_core), so no block's cache may hold the residual
    stream, the branch sum or the unmerged heads.
    """
    if step is not None or not for_backward:
        return _infer(params, cfg, h0, mods, attn_bias, step), None
    nh, dh = cfg.heads, cfg.hidden // cfg.heads
    B, S, H = h0.shape

    def buf(key, shape):
        return _buf(ws, key, shape, h0.dtype)

    # (6 * layers + 2, rows, 1, hidden): each modulation broadcasts over positions
    mods = mods.transpose(1, 0, 2)[:, :, None, :]
    cache = {"blocks": [], "attn_bias": attn_bias, "spent": False}

    x = h0
    scale = 1.0 / math.sqrt(dh)
    for i in range(cfg.layers):
        p = f"blocks.{i}."
        sh1, sc1, g1, sh2, sc2, g2 = mods[6 * i : 6 * i + 6]

        xn1, inv1 = _layernorm(x, y=buf(p + "xn1", x.shape), inv=buf(p + "inv1", (B, S, 1)))
        xm1 = _modulate(xn1, sh1, sc1, out=buf("xm", x.shape))

        qkv = _matmul_rows(xm1, params[p + "attn.wqkv"], out=buf(p + "qkv", (B * S, 3 * H)))
        qkv += params[p + "attn.bqkv"]
        q, k, v = qkv.reshape(B, S, 3, nh, dh).transpose(2, 0, 3, 1, 4)
        probs = _attention_probs(q, k, scale, attn_bias, out=buf("probs", (B, nh, S, S)))
        heads = np.matmul(probs, v, out=buf("heads", (B, nh, S, dh)))
        # xm1 is dead once the QKV GEMM has read it
        ctx = _merge_heads(heads, out=buf("xm", x.shape))
        attn_out = _matmul_rows(ctx, params[p + "attn.wo"], out=buf(p + "attn_out", (B * S, H)))
        attn_out += params[p + "attn.bo"]
        x2 = np.multiply(g1, attn_out, out=buf("x2", x.shape))
        x2 += x

        xn2, inv2 = _layernorm(x2, y=buf(p + "xn2", x.shape), inv=buf(p + "inv2", (B, S, 1)))
        xm2 = _modulate(xn2, sh2, sc2, out=buf("xm", x.shape))
        um = _matmul_rows(xm2, params[p + "mlp.w1"], out=buf(p + "um", (B * S, 4 * H)))
        um += params[p + "mlp.b1"]
        # nothing reads the tanh here, so the GELU overwrites it in place
        am_buf = buf("am", um.shape)
        am, _ = _gelu(um, out=am_buf, aux=am_buf)
        mlp_out = _matmul_rows(am, params[p + "mlp.w2"], out=buf(p + "mlp_out", (B * S, H)))
        mlp_out += params[p + "mlp.b2"]

        cache["blocks"].append({
            "xn1": xn1, "inv1": inv1, "qkv": qkv, "attn_out": attn_out,
            "xn2": xn2, "inv2": inv2, "um": um, "mlp_out": mlp_out,
            "sh1": sh1, "sc1": sc1, "g1": g1, "sh2": sh2, "sc2": sc2, "g2": g2,
        })
        # x is dead once x2 holds it, so one residual array serves every block
        x = np.multiply(g2, mlp_out, out=buf("x", x.shape))
        x += x2

    sh_f, sc_f = mods[-2:]
    xnf, invf = _layernorm(x, y=buf("xnf", x.shape), inv=buf("invf", (B, S, 1)))
    xmf = _modulate(xnf, sh_f, sc_f, out=buf("xmf", x.shape))
    out = _matmul_rows(xmf, params["head.w"])
    out += params["head.b"]
    cache.update({"xnf": xnf, "invf": invf, "xmf": xmf, "sc_f": sc_f})
    return out, cache


def _backward_core(params, cfg: ModelConfig, cache, dout, ws=None):
    """Backprop through _forward_core and, from cache["timestep"], through
    timestep_modulations; returns (grads, dh0).

    Each block first rebuilds what the forward cache does not keep (see
    _forward_core), each right before the first statement that reads it:
    the GELU and its tanh from um with _gelu; xm2 with _modulate; the
    softmax from q, k and the cache's attn_bias with _attention_probs, the
    heads as probs @ v and the merged context with _merge_heads; and xm1
    with _modulate. These are the forward's statements on the forward's
    inputs, so the rebuilt arrays, and every grad, have the bytes a cache of
    the forward's own arrays would give.

    Grads go over arrays that are dead by then:
    * the GELU's grad over the GELU once mlp.w2's grad has read it, its
      temporary over the block's um, and the MLP's input grad over the
      tanh, which the GELU's grad reads last;
    * dctx over the merged context once attn.wo's grad has read it;
    * dv over v in the block's qkv once dprobs has read v; dq and dk are
      made and scaled in the spent heads and dctx, then copied over q and
      k, so qkv holds dqkv.
    So backward overwrites the cache's qkv and um: one cache serves one
    backward, and a second backward on it raises ValueError.

    With ws, a training step's workspace (see _buf), the grads and the
    temporaries backward makes per block are written into it: the rebuilt
    activations and the softmax grads dprobs and dlogits, one array each
    shared by every block. The hidden-wide temporaries go into four arrays
    that the forward leaves dead, each viewed as (B, S, hidden):
    * the residual stream x holds dx, and each block's dx2 is written over
      it in place, so the returned dh0 is ws's x;
    * xmf, once head.w's grad has read it, holds the branch grads (dxmf,
      then per block dmlp_out, dxm2, dattn_out and dxm1) and the blocks'
      layer norm grads;
    * x2 holds dxnf, dxn2 and dxn1, and in between the rebuilt context,
      dctx and dk;
    * the unmerged heads hold the products summed into dsc* and dg*, the
      layer norm grads' products, and in between the rebuilt heads and dq.
    So a warm step's backward allocates no hidden-wide array. Every product
    keeps its operands and their order, so the bytes are those of fresh
    arrays, which these are without ws.
    """
    if cache["spent"]:
        raise ValueError("this forward cache was consumed by an earlier backward, which "
                         "overwrote its qkv and um; run the forward again")
    cache["spent"] = True
    nh, dh = cfg.heads, cfg.hidden // cfg.heads
    B, S, H = dout.shape[0], dout.shape[1], cfg.hidden
    dtype = dout.dtype

    def buf(key, shape):
        return _buf(ws, key, shape, dtype)

    def dead(key, shape=(B, S, H)):
        """A (B, S, hidden) view of ws[key], an array the forward leaves dead."""
        a = buf(key, shape)
        return None if a is None else a.reshape(B, S, H)

    grads = {}

    def linear(w, b, x, dy):
        """The grads of weight w and bias b from the layer's input x and
        output grad dy, summed over every row."""
        x, dy = x.reshape(-1, x.shape[-1]), dy.reshape(-1, dy.shape[-1])
        grads[w] = np.matmul(x.T, dy, out=_grad_buf(ws, params, w))
        grads[b] = dy.sum(axis=0, out=_grad_buf(ws, params, b))

    tc = cache["timestep"]
    c = tc["c"]
    dc = np.zeros_like(c)

    # final layer
    linear("head.w", "head.b", cache["xmf"], dout)
    # xmf is dead from here on
    dx_buf, dbranch, dnorm = dead("x"), dead("xmf"), dead("x2")
    prod = dead("heads", (B, nh, S, dh))
    dxmf = _matmul_rows(dout, params["head.w"].T, out=dbranch)
    dxnf = np.multiply(dxmf, cache["sc_f"], out=dnorm)
    dsc_f = np.multiply(dxmf, cache["xnf"], out=prod).sum(axis=1)
    dsh_f = dxmf.sum(axis=1)
    dmod_f = np.concatenate([dsh_f, dsc_f], axis=-1)
    linear("final.mod.w", "final.mod.b", c, dmod_f)
    dc += dmod_f @ params["final.mod.w"].T
    dx = _layernorm_grad(dxnf, cache["xnf"], cache["invf"], out=dx_buf, tmp=prod)

    scale = 1.0 / math.sqrt(dh)
    for i in reversed(range(cfg.layers)):
        p = f"blocks.{i}."
        bc = cache["blocks"][i]

        # mlp branch: x3 = x2 + g2 * mlp_out
        dg2 = np.multiply(dx, bc["mlp_out"], out=prod).sum(axis=1)
        dmlp_out = np.multiply(dx, bc["g2"], out=dbranch)
        um = bc["um"]
        am, gelu_aux = _gelu(um, out=buf("am", um.shape), aux=buf("gelu_aux", um.shape))
        linear(p + "mlp.w2", p + "mlp.b2", am, dmlp_out)
        dgelu = _gelu_grad(um, gelu_aux, out=am, tmp=um)
        dum = _matmul_rows(dmlp_out, params[p + "mlp.w2"].T, out=gelu_aux)
        dum *= dgelu
        xm = _modulate(bc["xn2"], bc["sh2"], bc["sc2"], out=buf("xm", (B, S, H)))
        linear(p + "mlp.w1", p + "mlp.b1", xm, dum)
        dxm2 = _matmul_rows(dum, params[p + "mlp.w1"].T, out=dbranch)
        dxn2 = np.multiply(dxm2, bc["sc2"], out=dnorm)
        dsc2 = np.multiply(dxm2, bc["xn2"], out=prod).sum(axis=1)
        dsh2 = dxm2.sum(axis=1)
        dx2 = np.add(dx, _layernorm_grad(dxn2, bc["xn2"], bc["inv2"], out=dbranch, tmp=prod),
                     out=dx_buf)

        # attention branch: x2 = x + g1 * attn_out
        dg1 = np.multiply(dx2, bc["attn_out"], out=prod).sum(axis=1)
        dattn_out = np.multiply(dx2, bc["g1"], out=dbranch)
        qkv = bc["qkv"]
        q, k, v = qkv.reshape(B, S, 3, nh, dh).transpose(2, 0, 3, 1, 4)
        probs = _attention_probs(q, k, scale, cache["attn_bias"], out=buf("probs", (B, nh, S, S)))
        heads = np.matmul(probs, v, out=buf("heads", (B, nh, S, dh)))
        ctx = _merge_heads(heads, out=dnorm)
        linear(p + "attn.wo", p + "attn.bo", ctx, dattn_out)
        dctx = _matmul_rows(dattn_out, params[p + "attn.wo"].T, out=ctx)
        dctx_heads = dctx.reshape(B, S, nh, dh).transpose(0, 2, 1, 3)
        dprobs = np.matmul(dctx_heads, v.transpose(0, 1, 3, 2), out=buf("dprobs", probs.shape))
        # v is dead once dprobs has read it; dq, dk and dv take their
        # (B, S, 3, heads, head_dim) places in qkv, so dqkv is qkv
        np.matmul(probs.transpose(0, 1, 3, 2), dctx_heads, out=v)
        # the softmax grad, probs * (dprobs - rowsum(dprobs * probs)); the
        # dlogits array holds dprobs * probs until its row sums are taken
        dlogits = np.multiply(dprobs, probs, out=buf("dlogits", probs.shape))
        dprobs -= dlogits.sum(axis=-1, keepdims=True)
        np.multiply(probs, dprobs, out=dlogits)
        # dq and dk are scaled in contiguous arrays, the spent heads and
        # dctx, and copied into their places once dk has read q
        dq = np.matmul(dlogits, k, out=heads)
        dq *= scale
        dk = np.matmul(dlogits.transpose(0, 1, 3, 2), q, out=dctx.reshape(B, nh, S, dh))
        dk *= scale
        q[...] = dq
        k[...] = dk
        dqkv = qkv
        xm = _modulate(bc["xn1"], bc["sh1"], bc["sc1"], out=buf("xm", (B, S, H)))
        linear(p + "attn.wqkv", p + "attn.bqkv", xm, dqkv)
        dxm1 = _matmul_rows(dqkv, params[p + "attn.wqkv"].T, out=dbranch)
        dxn1 = np.multiply(dxm1, bc["sc1"], out=dnorm)
        dsc1 = np.multiply(dxm1, bc["xn1"], out=prod).sum(axis=1)
        dsh1 = dxm1.sum(axis=1)
        dx = np.add(dx2, _layernorm_grad(dxn1, bc["xn1"], bc["inv1"], out=dbranch, tmp=prod),
                    out=dx_buf)

        dmod = np.concatenate([dsh1, dsc1, dg1, dsh2, dsc2, dg2], axis=-1)
        linear(p + "mod.w", p + "mod.b", c, dmod)
        dc += dmod @ params[p + "mod.w"].T

    # timestep embedding path
    dtemb = dc * _silu_grad(tc["temb"], tc["s_temb"])
    linear("t_mlp.w2", "t_mlp.b2", tc["a1"], dtemb)
    da1 = dtemb @ params["t_mlp.w2"].T
    du1 = da1 * _silu_grad(tc["u1"], tc["s_u1"])
    linear("t_mlp.w1", "t_mlp.b1", tc["f"], du1)

    return grads, dx


# ---------------------------------------------------------------------------
# non-autoregressive wiring


def _embed_nonar(params, cfg: ModelConfig, tokens):
    if cfg.ar_mode:
        raise UnsupportedModeError("model config enables ar_mode; the one-pass wiring needs it off")
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    return tokens @ params["in_proj.w"] + params["in_proj.b"] + params["pos"][None, : cfg.n_max, :]


def forward_nonar(params, cfg: ModelConfig, tokens, t, mods=None) -> NoisePrediction:
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
    return NoisePrediction(eps_hat=out[0] if squeeze else out)


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

    The step's first call runs the data+START prefix; every later call embeds
    and runs only the newest noise row, which attends to all held positions
    and to itself. Under _ar_bias the prefix never attends to noise rows, so
    its K/V stay valid for the whole step. The first call allocates, per
    layer, one K and one V buffer of shape (B, heads, 2 * n_max, head_dim) in
    the params' dtype, the most a step holds (n_max + 1 prefix rows and
    n_max - 1 noise rows), and looks up each block's weights. Each call
    (see _infer) writes its rows' K/V at [positions, positions + rows). One
    cache serves one (params, tokens, t) and one batch size: make a new one
    for each diffusion step.
    """

    positions: int = 0
    # per layer: the K and V buffers, and (wqkv, bqkv, wo, bo, w1, b1, w2, b2)
    k: list = field(default_factory=list)
    v: list = field(default_factory=list)
    blocks: list = field(default_factory=list)


_BLOCK_WEIGHTS = ("attn.wqkv", "attn.bqkv", "attn.wo", "attn.bo",
                  "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def _infer(params, cfg: ModelConfig, h0, mods, bias=None, step: ARStepCache | None = None):
    """The inference forward: _forward_core's block stack on h0 (B, S, hidden)
    with no backward cache and no workspace; returns (B, S, token_dim).

    The rows stay flat, (B * S, hidden), so each projection is one 2-D GEMM
    as in _matmul_rows and the heads merge by a reshape; a modulation row
    per sample is repeated over its rows. The arithmetic is the training
    forward's, operand for operand, so the output bytes are the same.

    Without step the rows attend over their own K/V plus bias. With step,
    an ARStepCache, the call is one of a diffusion step's cached AR calls:
    each layer writes the rows' K/V into step's buffers and attends over the
    first positions + rows of them plus bias, which such a call leaves None
    (on the prefix call _ar_bias(n_max, 0) is all zeros, and a later call's
    one noise row sees every held position and itself).
    """
    nh, dh = cfg.heads, cfg.hidden // cfg.heads
    B, S, H = h0.shape
    if step is None or not step.blocks:
        blocks = [tuple(params[f"blocks.{i}.{w}"] for w in _BLOCK_WEIGHTS)
                  for i in range(cfg.layers)]
    if step is not None:
        if not step.blocks:
            # positions before heads in memory, as in qkv: OpenBLAS gemv
            # rounds differently under another row stride, and this layout
            # keeps the bytes of concatenating the K/V on each call
            shape = (B, 2 * cfg.n_max, nh, dh)
            dtype = params["in_proj.w"].dtype
            step.k = [np.empty(shape, dtype).transpose(0, 2, 1, 3) for _ in range(cfg.layers)]
            step.v = [np.empty(shape, dtype).transpose(0, 2, 1, 3) for _ in range(cfg.layers)]
            step.blocks = blocks
        blocks = step.blocks
        start, end = step.positions, step.positions + S
        batch, capacity = step.k[0].shape[0], step.k[0].shape[2]
        if B != batch or end > capacity:
            raise ValueError(
                f"the step cache holds batch {batch} with room for {capacity} positions, "
                f"but this call has batch {B} and would fill positions {start} to {end}"
            )

    mods = mods.transpose(1, 0, 2)
    if mods.shape[1] > 1 and S > 1:
        mods = np.repeat(mods, S, axis=1)
    scale = 1.0 / math.sqrt(dh)
    x = h0.reshape(B * S, H)
    for i, (wqkv, bqkv, wo, bo, w1, b1, w2, b2) in enumerate(blocks):
        sh1, sc1, g1, sh2, sc2, g2 = mods[6 * i : 6 * i + 6]
        xn1, _ = _layernorm(x)
        qkv = _modulate(xn1, sh1, sc1, out=xn1) @ wqkv
        qkv += bqkv
        q, k, v = qkv.reshape(B, S, 3, nh, dh).transpose(2, 0, 3, 1, 4)
        if step is not None:
            step.k[i][:, :, start:end] = k
            step.v[i][:, :, start:end] = v
            k, v = step.k[i][:, :, :end], step.v[i][:, :, :end]
        probs = _attention_probs(q, k, scale, bias)
        # with one row the transposed heads are already contiguous, and
        # reshape makes no copy
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B * S, H)
        attn_out = ctx @ wo
        attn_out += bo
        x2 = g1 * attn_out
        x2 += x

        xn2, _ = _layernorm(x2)
        um = _modulate(xn2, sh2, sc2, out=xn2) @ w1
        um += b1
        mlp_out = _gelu(um)[0] @ w2
        mlp_out += b2
        x = g2 * mlp_out
        x += x2
    if step is not None:
        step.positions = end

    sh_f, sc_f = mods[-2:]
    xnf, _ = _layernorm(x)
    # every row, not the last only: a one-row GEMM at B = 1 goes to gemv,
    # which rounds differently
    out = _modulate(xnf, sh_f, sc_f, out=xnf) @ params["head.w"]
    out += params["head.b"]
    return out.reshape(B, S, -1)


def forward_ar(params, cfg: ModelConfig, tokens, noise_prefix, t,
               cache: ARStepCache | None = None, mods=None) -> np.ndarray:
    """Predict the noise for token i = len(noise_prefix), read at the last position.

    Accepts a single sample (n_max, token_dim) or a batch (B, n_max, token_dim);
    the prediction shape follows the input.

    With a cache, the calls of one diffusion step must come in order,
    i = 0, 1, ..., with the same tokens, batch size and t; call i runs only
    the data+START prefix (i = 0) or noise row i - 1, through the cache's
    K/V buffers and with no attention bias, and its result equals the
    uncached call's to float rounding. Both modes run _infer. mods are as in
    forward_nonar; passing the same rows to every call of a step computes
    them once.
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
    else:
        dtype = params["in_proj.w"].dtype
        h0 = _embed_noise(params, noise_prefix[:, -1:].astype(dtype), n + k)
    # a cached call needs no bias (see _infer)
    bias = None if cache is not None else _ar_bias(n, k, h0.dtype)
    if mods is None:
        mods, _ = timestep_modulations(params, cfg, t)
    out, _ = _forward_core(params, cfg, h0, mods, attn_bias=bias, step=cache,
                           for_backward=False)
    pred = out[:, -1]
    return pred[0] if squeeze else pred


def forward_ar_all(params, cfg: ModelConfig, tokens, noise, t, ws=None):
    """Teacher-forced predictions for every token in one masked pass.

    Returns (eps_hat, cache); eps_hat[:, i] is the prediction for token i and
    depends only on (tokens, t, noise[:, :i]). ws is as in _forward_core.
    """
    if not cfg.ar_mode:
        raise UnsupportedModeError("model config does not enable ar_mode")
    tokens = np.asarray(tokens)
    B, n, _ = tokens.shape
    h0 = _embed_ar(params, cfg, tokens, np.asarray(noise)[:, : n - 1, :])
    bias = _ar_bias(n, n - 1, h0.dtype)
    mods, tcache = timestep_modulations(params, cfg, t, for_backward=True, ws=ws)
    out, cache = _forward_core(params, cfg, h0, mods, attn_bias=bias, ws=ws)
    cache["timestep"] = tcache
    return out[:, n : 2 * n], cache


# ---------------------------------------------------------------------------
# losses with gradients


def _embed_grads_nonar(params, cfg, tokens, dh0, ws=None):
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    td = cfg.token_dim
    g = {
        "in_proj.w": np.matmul(tokens.reshape(-1, td).T, dh0.reshape(-1, cfg.hidden),
                               out=_grad_buf(ws, params, "in_proj.w")),
        "in_proj.b": dh0.sum(axis=(0, 1), out=_grad_buf(ws, params, "in_proj.b")),
    }
    gpos = _zeros(ws, "grad.pos", params["pos"].shape, dtype)
    gpos[: cfg.n_max] = dh0.sum(axis=0)
    g["pos"] = gpos
    return g


def nonar_loss_and_grads(params, cfg: ModelConfig, xt, t, eps_true, ws=None):
    """MSE of the noise prediction and its parameter gradients.

    Without ws every returned grad is a fresh array. With ws, a workspace
    dict that the caller keeps across steps (see _buf), the forward cache,
    the modulation table and the grads are written into it, so the grads
    alias ws and hold only until its next use.
    """
    dtype = params["in_proj.w"].dtype
    xt = np.asarray(xt, dtype=dtype)
    eps_true = np.asarray(eps_true, dtype=dtype)
    h0 = _embed_nonar(params, cfg, xt)
    mods, tcache = timestep_modulations(params, cfg, t, for_backward=True, ws=ws)
    out, cache = _forward_core(params, cfg, h0, mods, ws=ws)
    cache["timestep"] = tcache
    diff = out - eps_true
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    dout = (2.0 / diff.size) * diff

    # the core and embedding grads cover disjoint parameters
    grads, dh0 = _backward_core(params, cfg, cache, dout, ws=ws)
    grads.update(_embed_grads_nonar(params, cfg, xt, dh0, ws=ws))
    return loss, grads


def _embed_grads_ar(params, cfg, tokens, noise, dh0, ws=None):
    dtype = params["in_proj.w"].dtype
    tokens = np.asarray(tokens, dtype=dtype)
    noise = np.asarray(noise, dtype=dtype)
    B, n, td = tokens.shape
    d_data = dh0[:, :n, :]
    d_start = dh0[:, n, :]
    d_noise = dh0[:, n + 1 :, :]
    g = {}
    g["in_proj.w"] = np.add(tokens.reshape(-1, td).T @ d_data.reshape(-1, cfg.hidden),
                            noise.reshape(-1, td).T @ d_noise.reshape(-1, cfg.hidden),
                            out=_grad_buf(ws, params, "in_proj.w"))
    g["in_proj.b"] = np.add(d_data.sum(axis=(0, 1)), d_noise.sum(axis=(0, 1)),
                            out=_grad_buf(ws, params, "in_proj.b"))
    # sequence row i sits at position i
    gpos = _zeros(ws, "grad.pos", params["pos"].shape, dtype)
    gpos[: dh0.shape[1]] = dh0.sum(axis=0)
    g["pos"] = gpos
    g["start"] = d_start.sum(axis=0, out=_grad_buf(ws, params, "start"))
    gseg = _zeros(ws, "grad.seg", params["seg"].shape, dtype)
    gseg[0] = d_data.sum(axis=(0, 1))
    gseg[1] = g["start"]
    gseg[2] = d_noise.sum(axis=(0, 1))
    g["seg"] = gseg
    return g


def ar_loss_and_grads(params, cfg: ModelConfig, xt, t, eps_true, ws=None):
    """Sum over tokens of per-token MSE, teacher-forced on the true noise.
    ws is as in nonar_loss_and_grads."""
    dtype = params["in_proj.w"].dtype
    xt = np.asarray(xt, dtype=dtype)
    eps_true = np.asarray(eps_true, dtype=dtype)
    B, n, td = xt.shape
    preds, cache = forward_ar_all(params, cfg, xt, eps_true, t, ws=ws)
    diff = preds - eps_true
    # per-token mean squared error, summed over token index
    per_token = np.mean(diff.astype(np.float64) ** 2, axis=(0, 2))
    loss = float(per_token.sum())
    dpred = (2.0 / (B * td)) * diff
    # the sequence is n data rows, START and n - 1 noise rows
    dout = _zeros(ws, "dout", (B, 2 * n, td), dtype)
    dout[:, n : 2 * n] = dpred.astype(dtype)
    grads, dh0 = _backward_core(params, cfg, cache, dout, ws=ws)
    grads.update(_embed_grads_ar(params, cfg, xt, eps_true[:, : n - 1, :], dh0, ws=ws))
    return loss, grads


# ---------------------------------------------------------------------------
# optional MLP autoencoder adapter (latent-space ablation)


def init_adapter(cfg: ModelConfig, seed: int) -> dict:
    """Linear 16 -> d_latent -> 16 float64 autoencoder, used only for the ablation."""
    if cfg.adapter_latent is None:
        raise UnsupportedModeError("adapter_latent is not set in the model config")
    d = cfg.adapter_latent
    td = cfg.token_dim
    rng = np.random.default_rng(seed)
    s = 1.0 / math.sqrt(td)
    return {
        "enc.w": rng.standard_normal((td, d)) * s,
        "enc.b": np.zeros(d),
        "dec.w": rng.standard_normal((d, td)) * s,
        "dec.b": np.zeros(td),
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
