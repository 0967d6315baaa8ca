"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Every workload is a closed loop with one client: the runner calls ``op``
again only after the previous call has returned. Shapes are fixed per
workload; the seed changes only the generated inputs (corpus contents, model
weights, sampling seeds), so every seed does the same amount of work.
layoutdiff functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.

README.md says why each workload exists and which layer each one exercises.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter

import numpy as np
import scipy.optimize

from layoutdiff import core, data, metrics, model, render, sampling, schedule, training

MODULES = {
    "core": core, "data": data, "metrics": metrics, "model": model,
    "render": render, "sampling": sampling, "schedule": schedule,
    "training": training,
}


def _seeds(seed: int, k: int) -> list[int]:
    """k independent seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _check(name: str, ok, detail: str = "") -> dict:
    return {"check": name, "ok": bool(ok), "detail": detail}


def _reports_repeat(outputs) -> list[dict]:
    """Every operation ran on the same inputs, so every report must agree."""
    reports = [r for _, r in outputs]
    finite = all(np.isfinite(v) for r in reports for v in r.values())
    same = all(r == reports[0] for r in reports)
    return [
        _check("report_finite", finite, f"{len(reports)} reports"),
        _check("report_repeats", same, "identical scalars on every operation"),
    ]


def _hungarian_matches_scipy(suite: str, run) -> dict:
    """Call ``run`` while recording every cost matrix ``metrics.hungarian``
    solves, then compare each total with scipy's linear_sum_assignment."""
    solve = metrics.hungarian
    seen = []

    def recording(cost):
        pairs, total = solve(cost)
        seen.append((np.array(cost, dtype=np.float64), total))
        return pairs, total

    metrics.hungarian = recording
    try:
        run()
    finally:
        metrics.hungarian = solve
    worst = 0.0
    for cost, total in seen:
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        worst = max(worst, abs(float(cost[rows, cols].sum()) - total))
    return _check(
        f"{suite}_hungarian_matches_scipy", worst <= 1e-9,
        f"{len(seen)} cost matrices, max |total - scipy total| = {worst:.3g}",
    )


class _TrainPhase:
    """One model being trained on a synthetic ``columns`` corpus; the batch
    is drawn from the training state's rng, as in train_loop."""

    T = 100

    def __init__(self, variant: str, model_cfg: model.ModelConfig,
                 corpus_size: int, batch_size: int = 32, lr: float = 1e-3):
        self.variant = variant
        self.model_cfg = model_cfg
        self.corpus_size = corpus_size
        self.batch_size = batch_size
        self.lr = lr
        self.shape = {
            "op": f"training.train_step_{variant}",
            "model": dataclasses.asdict(model_cfg),
            "batch_size": batch_size, "lr": lr, "T": self.T,
            "corpus": f"synth_layout_corpus columns x {corpus_size}",
        }

    def setup(self, seed: int) -> None:
        s_corpus, s_train = _seeds(seed, 2)
        dcfg, layouts = data.synth_layout_corpus(
            s_corpus, self.corpus_size, style="columns", n_max=self.model_cfg.n_max)
        self.tokens = np.stack(
            [core.tokenize_layout(lay, dcfg) for lay in layouts]).astype(np.float32)
        tcfg = training.TrainConfig(
            lr=self.lr, batch_size=self.batch_size, seed=s_train, variant=self.variant)
        self.state = training.init_state(
            tcfg, self.model_cfg, dcfg, schedule.build_schedule(self.T))

    def step(self) -> float:
        idx = self.state.rng.integers(0, len(self.tokens), size=self.batch_size)
        if self.variant == "ar":
            return training.train_step_ar(self.state, self.tokens[idx])
        return training.train_step_nonar(self.state, self.tokens[idx])

    def checks(self, losses) -> list[dict]:
        losses = np.array(losses)
        q = max(len(losses) // 4, 1)
        first, last = float(losses[:q].mean()), float(losses[-q:].mean())
        return [
            _check(f"{self.variant}_loss_finite", np.isfinite(losses).all(),
                   f"{len(losses)} steps"),
            _check(f"{self.variant}_loss_falls", len(losses) >= 8 and last < first,
                   f"mean of first {q} steps {first:.4f}, of last {q} {last:.4f}"),
        ]


class Train:
    """Two models trained side by side. One operation is one one-pass step
    (matmul and backward bound) followed by ``ar_steps`` AR steps at the c05
    shape (per-call overhead bound, AdamW about 30%)."""

    warmup_ops = 2
    ar_steps = 5

    def __init__(self):
        self.nonar = _TrainPhase(
            "nonar", model.ModelConfig(layers=4, heads=4, hidden=128, n_max=16),
            corpus_size=256)
        self.ar = _TrainPhase(
            "ar", model.ModelConfig(layers=3, heads=4, hidden=96, n_max=2, ar_mode=True),
            corpus_size=32)
        # training examples
        self.items_per_op = self.nonar.batch_size + self.ar_steps * self.ar.batch_size
        self.shape = {"nonar": self.nonar.shape, "ar": self.ar.shape,
                      "ar_steps_per_op": self.ar_steps}

    def setup(self, seed: int, workdir: str) -> None:
        s_nonar, s_ar = _seeds(seed, 2)
        self.nonar.setup(s_nonar)
        self.ar.setup(s_ar)
        for i in range(self.warmup_ops):
            self.op(i)

    def op(self, i: int) -> tuple[float, list[float]]:
        return self.nonar.step(), [self.ar.step() for _ in range(self.ar_steps)]

    def checks(self, outputs) -> list[dict]:
        return (self.nonar.checks([loss for _, (loss, _) in outputs])
                + self.ar.checks([loss for _, (_, ar) in outputs for loss in ar]))


class Sample:
    """One sampler call per operation, with a ``cate`` mask taken from a
    synthetic ``columns`` corpus. The model goes through save_checkpoint and
    load_checkpoint in set-up, as ``layoutdiff sample`` does."""

    n_masks = 64

    def __init__(self, model_cfg: model.ModelConfig, T: int, method: str,
                 n_samples: int):
        self.model_cfg = model_cfg
        self.T = T
        self.method = method
        self.n_samples = n_samples
        self.items_per_op = n_samples  # samples
        sampler = "sample_ar" if model_cfg.ar_mode else "sample_nonar"
        self.shape = {
            "op": f"sampling.{sampler}", "method": method, "T": T,
            "n_samples": n_samples, "mask": "cate",
            "model": dataclasses.asdict(model_cfg),
        }

    def setup(self, seed: int, workdir: str) -> None:
        s_corpus, s_model, self.s_sample = _seeds(seed, 3)
        dcfg, layouts = data.synth_layout_corpus(
            s_corpus, self.n_masks, style="columns", n_max=self.model_cfg.n_max)
        variant = "ar" if self.model_cfg.ar_mode else "nonar"
        state = training.init_state(
            training.TrainConfig(seed=s_model, variant=variant),
            self.model_cfg, dcfg, schedule.build_schedule(self.T))
        # init_params zeroes the modulation and head weights, so a fresh model
        # predicts exactly zero noise. Random weights cost the same to run and
        # give the sampler real predictions to step with.
        rng = np.random.default_rng(s_model)
        state.params = {
            name: (0.02 * rng.standard_normal(p.shape)).astype(p.dtype)
            for name, p in state.params.items()
        }
        path = os.path.join(workdir, "model.ckpt")
        training.save_checkpoint(path, state)
        self.state = training.load_checkpoint(path)
        self.masks = [sampling.mask_from_layout(lay, dcfg, "cate") for lay in layouts]
        self._sample(0, 1)

    def _sample(self, i: int, n_samples: int) -> np.ndarray:
        st = self.state
        sampler = sampling.sample_ar if st.model_cfg.ar_mode else sampling.sample_nonar
        _, tokens, _ = sampler(
            st.params, st.model_cfg, st.sched, st.data_cfg, n_samples=n_samples,
            seed=self.s_sample + i, mask=self.masks[i % len(self.masks)],
            method=self.method,
        )
        return tokens

    def op(self, i: int) -> np.ndarray:
        return self._sample(i, self.n_samples)

    def checks(self, outputs) -> list[dict]:
        want = (self.n_samples, self.model_cfg.n_max, core.TOKEN_DIM)
        shaped = all(t.shape == want and np.isfinite(t).all() for _, t in outputs)
        cate = all(
            np.array_equal(
                t[..., core.CAT_SLICE],
                np.broadcast_to(self.masks[i % len(self.masks)].values[:, core.CAT_SLICE],
                                t[..., core.CAT_SLICE].shape))
            for i, t in outputs
        )
        i0, t0 = outputs[0]
        again = self.op(i0)
        return [
            _check("tokens_finite_and_shaped", shaped, f"{len(outputs)} calls, shape {want}"),
            _check("cate_entries_equal_mask", cate, "category entries of every sample"),
            _check("same_seed_same_bytes", again.tobytes() == t0.tobytes(),
                   f"call {i0} repeated after the timed loop"),
        ]


def _multiset(layout) -> frozenset:
    return frozenset(Counter(b.c for b in layout.boxes).items())


def _jitter(layout, rng, categories=None) -> core.Layout:
    """Move and resize every box by up to 4 units, staying inside the scene."""
    boxes = []
    for k, b in enumerate(layout.boxes):
        dx, dy, dh, dw = rng.uniform(-4.0, 4.0, size=4)
        h = float(np.clip(b.h + dh, 1.0, layout.H))
        w = float(np.clip(b.w + dw, 1.0, layout.W))
        x = float(np.clip(b.x + dx, 0.0, layout.W - w))
        y = float(np.clip(b.y + dy, 0.0, layout.H - h))
        c = b.c if categories is None else int(categories[k])
        boxes.append(core.BoundingBox(x=x, y=y, h=h, w=w, c=c))
    return core.Layout(H=layout.H, W=layout.W, boxes=tuple(boxes))


class EvalLayout:
    """Layout metric suite: load the two canonical JSONL files, rasterize
    both sides, then evaluate_layout_corpora."""

    n_max = 8
    # Grid layouts at n_max 8 have 4 or 6 boxes; a fixed count of each keeps
    # the matching work the same for every seed. Columns layouts have 8.
    grid_counts = {4: 4, 6: 12}
    n_columns = 16
    # generated layouts per box count: jittered copies of reference layouts
    gen_counts = {4: 2, 6: 2, 8: 4}
    items_per_op = sum(gen_counts.values())  # generated layouts scored
    shape = {
        "op": "data.load_canonical x2, render.rasterize, metrics.evaluate_layout_corpora",
        "n_max": n_max, "reference_grid_by_box_count": grid_counts,
        "reference_columns": n_columns, "generated_by_box_count": gen_counts,
    }

    def setup(self, seed: int, workdir: str) -> None:
        s_grid, s_cols, s_gen = _seeds(seed, 3)
        dcfg, pool = data.synth_layout_corpus(s_grid, 512, style="grid", n_max=self.n_max)
        ref = []
        for count, k in self.grid_counts.items():
            chosen = [lay for lay in pool if len(lay.boxes) == count][:k]
            if len(chosen) < k:
                raise RuntimeError(f"only {len(chosen)} grid layouts with {count} boxes")
            ref += chosen
        ref += data.synth_layout_corpus(
            s_cols, self.n_columns, style="columns", n_max=self.n_max)[1]
        ref_multisets = {_multiset(lay) for lay in ref}
        rng = np.random.default_rng(s_gen)
        gen = []
        for count, k in self.gen_counts.items():
            same_count = [lay for lay in ref if len(lay.boxes) == count]
            picks = rng.choice(len(same_count), size=k, replace=False)
            for j, p in enumerate(picks):
                src = same_count[p]
                if j % 2 == 0:  # keeps its multiset: max_iou's matching-pool branch
                    gen.append(_jitter(src, rng))
                    continue
                for _ in range(100):  # a multiset no reference has: the all-pool branch
                    cats = rng.integers(1, dcfg.num_categories + 1, size=count)
                    if frozenset(Counter(cats.tolist()).items()) not in ref_multisets:
                        break
                else:
                    raise RuntimeError("no unused category multiset found")
                gen.append(_jitter(src, rng, cats))
        self.ref, self.gen = ref, gen
        self.ref_path = os.path.join(workdir, "reference.jsonl")
        self.gen_path = os.path.join(workdir, "generated.jsonl")
        data.save_canonical(self.ref_path, dcfg, ref)
        data.save_canonical(self.gen_path, dcfg, gen)
        images = [render.rasterize(lay) for lay in ref[:2]]
        metrics.evaluate_layout_corpora(gen[:2], ref[:2], images, images)

    def op(self, i: int) -> dict:
        _, gen = data.load_canonical(self.gen_path)
        _, ref = data.load_canonical(self.ref_path)
        images_gen = [render.rasterize(lay) for lay in gen]
        images_ref = [render.rasterize(lay) for lay in ref]
        return metrics.evaluate_layout_corpora(gen, ref, images_gen, images_ref).scalars

    def checks(self) -> list[dict]:
        self_iou = metrics.max_iou(self.ref, self.ref)
        align = metrics.alignment_score(self.ref)
        overlap = metrics.overlap_score(self.ref)
        return [
            _check("max_iou_reference_self", self_iou == 1.0, f"max_iou(ref, ref) = {self_iou!r}"),
            _check("reference_alignment_zero", align == 0.0, f"alignment = {align!r}"),
            _check("reference_overlap_zero", overlap == 0.0, f"overlap = {overlap!r}"),
            _hungarian_matches_scipy(
                "layout", lambda: metrics.evaluate_layout_corpora(self.gen, self.ref)),
        ]


class EvalSegment:
    """Segment metric suite: evaluate_segment_corpora on 16 generated against
    16 reference images of 8 segments each."""

    n_images = 16
    k_segments = 8
    items_per_op = n_images  # generated images scored
    shape = {
        "op": "metrics.evaluate_segment_corpora",
        "images_per_side": n_images, "segments_per_image": k_segments,
    }

    def setup(self, seed: int, workdir: str) -> None:
        s_gen, s_ref = _seeds(seed, 2)
        self.gen = data.synth_segment_corpus(s_gen, self.n_images, self.k_segments)[1]
        self.ref = data.synth_segment_corpus(s_ref, self.n_images, self.k_segments)[1]
        metrics.evaluate_segment_corpora(self.gen[:2], self.ref[:2])

    def op(self, i: int) -> dict:
        return metrics.evaluate_segment_corpora(self.gen, self.ref).scalars

    def checks(self) -> list[dict]:
        self_diff = metrics.difference_score(self.ref, self.ref)
        return [
            _check("difference_self_zero", self_diff == 0.0,
                   f"difference_score(ref, ref) = {self_diff!r}"),
            _hungarian_matches_scipy(
                "segment", lambda: metrics.evaluate_segment_corpora(self.gen, self.ref)),
        ]


class Eval:
    """One evaluation per operation: the layout suite (EvalLayout), then the
    segment suite (EvalSegment). No model runs."""

    def __init__(self):
        self.layout = EvalLayout()
        self.segment = EvalSegment()
        # generated layouts and images scored
        self.items_per_op = self.layout.items_per_op + self.segment.items_per_op
        self.shape = {"layout": self.layout.shape, "segment": self.segment.shape}

    def setup(self, seed: int, workdir: str) -> None:
        s_layout, s_segment = _seeds(seed, 2)
        self.layout.setup(s_layout, workdir)
        self.segment.setup(s_segment, workdir)

    def op(self, i: int) -> dict:
        scalars = {f"layout.{k}": v for k, v in self.layout.op(i).items()}
        scalars.update({f"segment.{k}": v for k, v in self.segment.op(i).items()})
        return scalars

    def checks(self, outputs) -> list[dict]:
        return _reports_repeat(outputs) + self.layout.checks() + self.segment.checks()


WORKLOADS = {
    "train": Train,
    "sample": lambda: Sample(
        model.ModelConfig(layers=4, heads=4, hidden=128, n_max=16),
        T=100, method="ddpm", n_samples=4),
    "sample_ar": lambda: Sample(
        model.ModelConfig(layers=2, heads=4, hidden=64, n_max=8, ar_mode=True),
        T=50, method="ddim", n_samples=2),
    "eval": Eval,
}
