"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
`acceptance NN <name>: PASS|FAIL` line (run pytest with `-s` to see the
lines for passing tests). Tolerances and runtime budgets are asserted, not
advisory. The overfit and ablation criteria train small models from scratch,
so this file takes a few minutes of CPU.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from layoutdiff import model as M
from layoutdiff import schedule as S
from layoutdiff.cli import cli
from layoutdiff.core import (
    BoundingBox,
    Layout,
    Segment,
    decode_category,
    encode_category,
    tokenize_layout,
    tokenize_segments,
    detokenize_layout,
    detokenize_segments,
)
from layoutdiff.data import (
    load_canonical,
    save_canonical,
    synth_layout_corpus,
    synth_segment_corpus,
)
from layoutdiff.metrics import (
    alignment_score,
    difference_score,
    docsim,
    feature_distance,
    hungarian,
    iou,
    max_iou,
    overlap_score,
    segment_weight,
)
from layoutdiff.render import rasterize
from layoutdiff.sampling import ar_predictor, sample_nonar, sample_tokens
from layoutdiff.training import (
    TrainConfig,
    init_state,
    save_checkpoint,
    train_step_ar,
    train_step_nonar,
)


def _check(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(line + (f"  [{detail}]" if detail else ""))
    assert ok, f"{line} {detail}"


# ---------------------------------------------------------------------------
# 1. codec roundtrips


def test_c01_codec_roundtrips():
    t0 = time.perf_counter()
    ok = True
    # 1000 randomized layouts (two construction styles)
    layouts = []
    for seed, style in ((1, "columns"), (2, "grid")):
        cfg, ls = synth_layout_corpus(seed, 500, style=style, n_max=8)
        layouts.extend((cfg, l) for l in ls)
    for cfg, lay in layouts:
        back = detokenize_layout(tokenize_layout(lay, cfg), cfg)
        ok = ok and back == lay
    # 1000 randomized segment sets
    scfg, sets = synth_segment_corpus(3, 1000, k_segments=6, n_max=8)
    for segs in sets:
        back = detokenize_segments(tokenize_segments(segs, scfg), scfg)
        ok = ok and back == tuple(segs)
    # category codec bijective on [0, 255]
    codes = [tuple(encode_category(c)) for c in range(256)]
    ok = ok and len(set(codes)) == 256
    ok = ok and all(decode_category(np.array(codes[c])) == c for c in range(256))
    elapsed = time.perf_counter() - t0
    _check(1, "codec roundtrips", ok and elapsed < 5.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. forward-process statistics


def test_c02_forward_statistics():
    t0 = time.perf_counter()
    sched = S.build_schedule(100)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1, 1, 4)
    n = 100_000
    ok = True
    for t in (0, 24, 49, 74, 99):
        eps = rng.standard_normal((n,) + x0.shape)
        xt = S.q_sample(np.broadcast_to(x0, eps.shape), t, eps, sched)
        abar = sched.alpha_bar[t]
        want_mean = math.sqrt(abar) * x0
        want_var = 1.0 - abar
        se = math.sqrt(want_var / n)
        ok = ok and np.all(np.abs(xt.mean(axis=0) - want_mean) < 4 * se)
        ok = ok and np.all(np.abs(xt.var(axis=0) / want_var - 1.0) < 0.05)
    elapsed = time.perf_counter() - t0
    _check(2, "forward statistics", ok and elapsed < 30.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. reverse-process inversion with the forward-trace oracle


def test_c03_reverse_inversion():
    t0 = time.perf_counter()
    sched = S.build_schedule(100)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        x0 = rng.uniform(-1, 1, (6, 16))
        x = S.q_sample(x0, sched.T - 1, rng.standard_normal(x0.shape), sched)
        for t in range(sched.T - 1, -1, -1):
            abar = sched.alpha_bar[t]
            eps_oracle = (x - math.sqrt(abar) * x0) / math.sqrt(1.0 - abar)
            x = S.ddim_step(x, eps_oracle, t, t - 1, 0.0, sched)
        worst = max(worst, float(np.max(np.abs(x - x0))))
    elapsed = time.perf_counter() - t0
    _check(3, "reverse inversion", worst < 1e-4 and elapsed < 30.0,
           f"max abs {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. gradient correctness (64-bit, central finite differences)


def _random_params(cfg, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(shape) * scale
        for name, shape in M.param_shapes(cfg).items()
    }


def _fd_relative_errors(loss_fn, params, grads, seed, n_coords, h=1e-5):
    rng = np.random.default_rng(seed)
    names = sorted(params)
    sizes = np.array([params[k].size for k in names])
    picks = rng.integers(0, sizes.sum(), size=n_coords)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    errs = []
    for pick in picks:
        which = int(np.searchsorted(offsets, pick, side="right") - 1)
        name, idx = names[which], int(pick - offsets[which])
        flat = params[name].reshape(-1)
        keep = flat[idx]
        flat[idx] = keep + h
        up = loss_fn(params)
        flat[idx] = keep - h
        down = loss_fn(params)
        flat[idx] = keep
        num = (up - down) / (2.0 * h)
        ana = grads[name].reshape(-1)[idx]
        errs.append(abs(num - ana) / max(1e-6, abs(num), abs(ana)))
    return np.array(errs)


def test_c04_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    xt = rng.standard_normal((2, 3, 16))
    eps = rng.standard_normal((2, 3, 16))
    t = np.array([5, 60])
    worst = 0.0
    for ar in (False, True):
        cfg = M.ModelConfig(layers=2, heads=2, hidden=8, n_max=3, ar_mode=ar)
        params = _random_params(cfg, 3 + ar)
        loss_fn = (
            (lambda p: M.ar_loss_and_grads(p, cfg, xt, t, eps)[0]) if ar
            else (lambda p: M.nonar_loss_and_grads(p, cfg, xt, t, eps)[0])
        )
        grads = (M.ar_loss_and_grads if ar else M.nonar_loss_and_grads)(
            params, cfg, xt, t, eps)[1]
        errs = _fd_relative_errors(loss_fn, params, grads, seed=5, n_coords=300)
        worst = max(worst, float(errs.max()))
    elapsed = time.perf_counter() - t0
    _check(4, "gradient correctness", worst < 1e-3 and elapsed < 300.0,
           f"600 coordinates, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. overfit oracles on a frozen 32-layout corpus


@pytest.mark.slow
def test_c05_overfit_oracles():
    t0 = time.perf_counter()
    dcfg, layouts = synth_layout_corpus(0, 32, style="columns", n_max=2)
    tokens = np.stack([tokenize_layout(l, dcfg) for l in layouts]).astype(np.float32)
    sched = S.build_schedule(100)

    def train(variant, steps, mcfg):
        tcfg = TrainConfig(lr=2e-3, batch_size=32, variant=variant,
                           weight_decay=0.0, seed=0, total_steps=steps,
                           lr_schedule="cosine")
        state = init_state(tcfg, mcfg, dcfg, sched)
        step = train_step_ar if variant == "ar" else train_step_nonar
        losses = [step(state, tokens) for _ in range(steps)]
        return state, float(np.mean(losses[-50:]))

    mcfg = M.ModelConfig(layers=3, heads=4, hidden=96, n_max=2)
    state, nonar_loss = train("nonar", 2000, mcfg)
    _, ar_loss = train(
        "ar", 5000, M.ModelConfig(layers=3, heads=4, hidden=96, n_max=2,
                                  ar_mode=True))

    samples, _, _ = sample_nonar(state.params, mcfg, sched, dcfg, 32, seed=1,
                                 method="ddpm")
    align = alignment_score(samples)
    over = overlap_score(samples)
    elapsed = time.perf_counter() - t0
    ok = (nonar_loss < 0.05 and ar_loss < 0.05
          and align <= 0.5 and over <= 5.0 and elapsed < 1800.0)
    _check(5, "overfit oracles", ok,
           f"nonar loss {nonar_loss:.4f}, ar loss {ar_loss:.4f}, "
           f"alignment {align:.3f}, overlap {over:.3f}%, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. autoregressive causality and n_max=1 degeneracy


def test_c06_ar_causality_and_degeneracy():
    # causality: the prediction for token i may depend only on noise rows < i
    cfg = M.ModelConfig(layers=2, heads=2, hidden=8, n_max=3, ar_mode=True)
    params = _random_params(cfg, 6, scale=0.3)
    rng = np.random.default_rng(7)
    tokens = rng.standard_normal((2, 3, 16))
    noise = rng.standard_normal((2, 3, 16))
    base, _ = M.forward_ar_all(params, cfg, tokens, noise, np.array([4, 40]))
    ok = True
    for j in range(3):
        bumped = noise.copy()
        bumped[:, j] += 1.0
        pred, _ = M.forward_ar_all(params, cfg, tokens, bumped, np.array([4, 40]))
        ok = ok and np.array_equal(pred[:, : j + 1], base[:, : j + 1])

    # n_max = 1: the token-by-token sampler degenerates to a single full pass
    cfg1 = M.ModelConfig(layers=2, heads=2, hidden=16, n_max=1, ar_mode=True)
    params1 = M.init_params(cfg1, seed=8)
    bump = np.random.default_rng(9)
    for k, v in params1.items():
        params1[k] = (v + bump.standard_normal(v.shape) * 0.05).astype(v.dtype)
    sched = S.build_schedule(100)

    def single_pass(x, t):
        return np.asarray(
            M.forward_ar(params1, cfg1, x, np.zeros((0, 16)), t),
            dtype=np.float64)

    out_a, _ = sample_tokens(ar_predictor(params1, cfg1), sched, (1, 16),
                             np.random.default_rng(10), method="ddim")
    out_b, _ = sample_tokens(single_pass, sched, (1, 16),
                             np.random.default_rng(10), method="ddim")
    ok = ok and np.array_equal(out_a, out_b)
    _check(6, "ar causality and degeneracy", ok)


# ---------------------------------------------------------------------------
# 7. conditioning exactness over 256 samples per mask kind (via the CLI)


def test_c07_conditioning_exactness(tmp_path, capsys):
    dcfg, layouts = synth_layout_corpus(4, 8, style="columns", n_max=4)
    corpus = tmp_path / "corpus.jsonl"
    save_canonical(str(corpus), dcfg, layouts)

    mcfg = M.ModelConfig(layers=1, heads=2, hidden=16, n_max=4)
    tcfg = TrainConfig(lr=1e-3, batch_size=8, variant="nonar", seed=0)
    state = init_state(tcfg, mcfg, dcfg, S.build_schedule(25))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), state)

    ref = layouts[3]
    ok = True
    for kind in ("cate", "cate_size"):
        out = tmp_path / kind
        rc = cli(["sample", "--checkpoint", str(ckpt), "--n", "256",
                  "--mask", kind, "--cond-data", str(corpus),
                  "--cond-index", "3", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        ok = ok and rc == 0
        _, got = load_canonical(str(out / "samples.jsonl"))
        ok = ok and len(got) == 256
        for lay in got:
            ok = ok and [b.c for b in lay.boxes] == [b.c for b in ref.boxes]
            if kind == "cate_size":
                # sizes are pinned in normalized units (scene dims are free)
                for b, rb in zip(lay.boxes, ref.boxes):
                    ok = ok and abs(b.h / lay.H - rb.h / ref.H) < 1e-12
                    ok = ok and abs(b.w / lay.W - rb.w / ref.W) < 1e-12
    _check(7, "conditioning exactness", ok)


# ---------------------------------------------------------------------------
# 8. metrics against independent oracles


def _brute_force_assignment(cost):
    n, m = cost.shape
    return min(
        sum(cost[i, j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(m), n)
    )


def _random_layout(rng, n_boxes):
    boxes = tuple(
        BoundingBox(float(rng.uniform(0, 200)), float(rng.uniform(0, 200)),
                    float(rng.uniform(1, 56)), float(rng.uniform(1, 56)),
                    int(rng.integers(1, 4)))
        for _ in range(n_boxes)
    )
    return Layout(H=256.0, W=256.0, boxes=boxes)


def _alignment_oracle(layouts):
    vals = []
    for layout in layouts:
        n = len(layout.boxes)
        if n < 2:
            vals.append(0.0)
            continue
        anch = []
        for b in layout.boxes:
            x, y = b.x / layout.W, b.y / layout.H
            h, w = b.h / layout.H, b.w / layout.W
            anch.append([x, x + w / 2, x + w, y + h, y + h / 2, y])
        total = sum(
            -math.log(1.0 - min(
                min(abs(anch[i][k] - anch[j][k])
                    for j in range(n) if j != i for k in range(6)),
                1.0 - 1e-12))
            for i in range(n)
        )
        vals.append(100.0 / n * total)
    return sum(vals) / len(vals)


def _overlap_oracle(layouts):
    vals = []
    for layout in layouts:
        boxes = [(b.x / layout.W, b.y / layout.H, b.h / layout.H, b.w / layout.W)
                 for b in layout.boxes]
        area = sum(h * w for _, _, h, w in boxes)
        if area <= 0:
            vals.append(0.0)
            continue
        inter = 0.0
        for (x1, y1, h1, w1), (x2, y2, h2, w2) in itertools.combinations(boxes, 2):
            ix = max(0.0, min(x1 + w1, x2 + w2) - max(x1, x2))
            iy = max(0.0, min(y1 + h1, y2 + h2) - max(y1, y2))
            inter += ix * iy
        vals.append(100.0 * inter / area)
    return sum(vals) / len(vals)


def _iou_oracle(a, b):
    ax, ay, ah, aw = a
    bx, by, bh, bw = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = ah * aw + bh * bw - inter
    return inter / union if union > 0 else 0.0


def _max_iou_oracle(generated, reference):
    from collections import Counter

    def pair(a, b):
        na, nb = len(a.boxes), len(b.boxes)
        if na == 0 or nb == 0:
            return 1.0 if na == nb else 0.0
        small, big = (a, b) if na <= nb else (b, a)
        best = 0.0
        for perm in itertools.permutations(range(len(big.boxes)), len(small.boxes)):
            s = 0.0
            for i, j in enumerate(perm):
                bi, bj = small.boxes[i], big.boxes[j]
                if bi.c != bj.c:
                    continue
                s += _iou_oracle(
                    (bi.x / small.W, bi.y / small.H, bi.h / small.H, bi.w / small.W),
                    (bj.x / big.W, bj.y / big.H, bj.h / big.H, bj.w / big.W))
            best = max(best, s)
        return best / max(na, nb)

    cats = lambda l: frozenset(Counter(b.c for b in l.boxes).items())
    pools = {}
    for r in reference:
        pools.setdefault(cats(r), []).append(r)
    return float(np.mean([
        max(pair(g, r) for r in pools.get(cats(g), reference)) for g in generated
    ]))


def _docsim_oracle(gen, ref):
    def pair(a, b):
        na, nb = len(a.boxes), len(b.boxes)
        wa = [(bb.x / a.W, bb.y / a.H, bb.h / a.H, bb.w / a.W) for bb in a.boxes]
        wb = [(bb.x / b.W, bb.y / b.H, bb.h / b.H, bb.w / b.W) for bb in b.boxes]
        small, big = (wa, wb) if na <= nb else (wb, wa)
        best = 0.0
        for perm in itertools.permutations(range(len(big)), len(small)):
            s = 0.0
            for i, j in enumerate(perm):
                x1, y1, h1, w1 = small[i]
                x2, y2, h2, w2 = big[j]
                alpha = math.sqrt(min(h1 * w1, h2 * w2))
                dc = math.hypot(x1 + w1 / 2 - x2 - w2 / 2,
                                y1 + h1 / 2 - y2 - h2 / 2)
                ds = abs(w1 - w2) + abs(h1 - h2)
                s += alpha * 2.0 ** (-dc - 2 * ds)
            best = max(best, s)
        return best / max(na, nb)

    return float(np.mean([max(pair(g, r) for r in ref) for g in gen]))


def test_c08_metric_oracles():
    ok = True
    rng = np.random.default_rng(11)
    # Hungarian equals exhaustive search, n <= 6, 200 matrices
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 7))
        cost = rng.uniform(0, 10, (n, m))
        _, total = hungarian(cost)
        ok = ok and abs(total - _brute_force_assignment(cost)) < 1e-9

    # difference score: identity and 3x3 nested brute force
    _, sets = synth_segment_corpus(0, 5, k_segments=4)
    ok = ok and difference_score(sets, sets) == 0.0
    a = [[Segment(*rng.uniform(0, 1, 4)) for _ in range(3)] for _ in range(3)]
    b = [[Segment(*rng.uniform(0, 1, 4)) for _ in range(3)] for _ in range(3)]

    def iw(s1, s2):
        return min(
            sum(segment_weight(s1[i], s2[j]) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(3)))

    oracle = min(
        sum(iw(a[i], b[j]) for i, j in enumerate(perm))
        for perm in itertools.permutations(range(3))) / 3.0
    ok = ok and abs(difference_score(a, b) - oracle) < 1e-9

    # box/layout scores against double-loop oracles
    boxes = [tuple(rng.uniform(0, 4, 4)) for _ in range(40)]
    for p, q in zip(boxes[::2], boxes[1::2]):
        ok = ok and abs(iou(p, q) - _iou_oracle(p, q)) < 1e-9
    layouts = [_random_layout(rng, int(rng.integers(1, 7))) for _ in range(20)]
    ok = ok and abs(alignment_score(layouts) - _alignment_oracle(layouts)) < 1e-9
    ok = ok and abs(overlap_score(layouts) - _overlap_oracle(layouts)) < 1e-9
    gen = [_random_layout(rng, int(rng.integers(1, 5))) for _ in range(6)]
    ref = [_random_layout(rng, int(rng.integers(1, 5))) for _ in range(6)]
    ok = ok and abs(max_iou(gen, ref) - _max_iou_oracle(gen, ref)) < 1e-9
    ok = ok and abs(docsim(gen, ref) - _docsim_oracle(gen, ref)) < 1e-9
    _check(8, "metric oracles", ok)


# ---------------------------------------------------------------------------
# 9. latent-adapter ablation direction, 5 seeded runs


@pytest.mark.slow
def test_c09_adapter_ablation_direction():
    t0 = time.perf_counter()
    d_latent = 4
    steps, n_samp = 1200, 16
    dcfg, layouts = synth_layout_corpus(0, 32, style="columns", n_max=4)
    tokens = np.stack([tokenize_layout(l, dcfg) for l in layouts]).astype(np.float64)
    sched = S.build_schedule(50)
    ref_imgs = [rasterize(l) for l in layouts]

    def scores(samples):
        return (alignment_score(samples),
                feature_distance([rasterize(g) for g in samples], ref_imgs))

    wins_align = wins_fd = 0
    for seed in range(5):
        tcfg = TrainConfig(lr=2e-3, batch_size=32, variant="nonar",
                           weight_decay=0.0, seed=seed, total_steps=steps,
                           lr_schedule="cosine")
        # direct variant: diffuse over the tokens themselves
        mcfg = M.ModelConfig(layers=2, heads=4, hidden=64, n_max=4)
        st = init_state(tcfg, mcfg, dcfg, sched)
        for _ in range(steps):
            train_step_nonar(st, tokens.astype(np.float32))
        gen, _, _ = sample_nonar(st.params, mcfg, sched, dcfg, n_samp,
                                 seed=seed + 100)
        d_align, d_fd = scores(gen)

        # adapter variant: same budget, diffusing in a learned linear latent
        aecfg = M.ModelConfig(layers=2, heads=4, hidden=64, n_max=4,
                              adapter_latent=d_latent)
        adapter = M.init_adapter(aecfg, seed)
        M.train_adapter(adapter, aecfg, tokens, steps=2000)
        latents = M.adapter_encode(adapter, aecfg, tokens)
        lcfg = M.ModelConfig(layers=2, heads=4, hidden=64, n_max=4,
                             token_dim=d_latent)
        st2 = init_state(tcfg, lcfg, dcfg, sched)
        for _ in range(steps):
            train_step_nonar(st2, latents.astype(np.float32))

        def predictor(x, t):
            return M.forward_nonar(st2.params, lcfg, x[None],
                                   np.array([t])).eps_hat[0]

        outs = []
        for i in range(n_samp):
            rng = np.random.default_rng((seed + 100) ^ i)
            z0, _ = sample_tokens(predictor, sched, (4, d_latent), rng)
            outs.append(detokenize_layout(
                M.adapter_decode(adapter, aecfg, z0), dcfg))
        a_align, a_fd = scores(outs)

        wins_align += a_align >= d_align
        wins_fd += a_fd >= d_fd
    elapsed = time.perf_counter() - t0
    ok = wins_align >= 4 and wins_fd >= 4
    _check(9, "adapter ablation direction", ok,
           f"adapter no better: alignment {wins_align}/5, "
           f"feature distance {wins_fd}/5, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. timing report: autoregressive strictly slower per sample


def test_c10_timing_report(tmp_path, capsys):
    rc = cli(["eval", "--timing", "--n", "2", "--steps", "20", "--layers", "1",
              "--heads", "2", "--hidden", "16", "--n-max", "4", "--seed", "0"])
    out = capsys.readouterr().out
    timing = json.loads(out.split("\n", 1)[1])
    ar = timing["ar_seconds_per_sample"]
    nonar = timing["nonar_seconds_per_sample"]
    ok = rc == 0 and ar > nonar > 0.0
    _check(10, "timing report", ok,
           f"ar {ar:.4f}s vs nonar {nonar:.4f}s per sample")


# ---------------------------------------------------------------------------
# 11. CLI determinism: identical config + seed => byte-identical outputs


def test_c11_cli_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DOLFIN_THREADS", "1")

    def run_pipeline(root):
        root.mkdir(parents=True, exist_ok=True)
        data = root / "corpus.jsonl"
        cli(["synth", "--n", "12", "--style", "grid", "--n-max", "4",
             "--seed", "5", "--out", str(data)])
        cli(["train", "--data", str(data), "--train-steps", "5",
             "--steps", "10", "--layers", "1", "--heads", "2",
             "--hidden", "16", "--batch-size", "4", "--seed", "5",
             "--out", str(root / "run")])
        cli(["sample", "--checkpoint", str(root / "run" / "model.ckpt"),
             "--n", "4", "--seed", "5", "--out", str(root / "samples")])
        cli(["render", "--data", str(root / "samples" / "samples.jsonl"),
             "--out", str(root / "renders")])
        capsys.readouterr()
        files = [data, root / "run" / "model.ckpt",
                 root / "samples" / "samples.jsonl"]
        files += sorted((root / "renders").glob("*.svg"))
        return [f.read_bytes() for f in files]

    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    ok = len(a) == len(b) and all(x == y for x, y in zip(a, b))
    _check(11, "cli determinism", ok, f"{len(a)} files byte-identical")
