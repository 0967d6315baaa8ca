import itertools

import numpy as np
import pytest

from layoutdiff.core import BoundingBox, Layout, Segment
from layoutdiff.data import synth_layout_corpus, synth_segment_corpus
from layoutdiff.metrics import (
    MetricReport,
    RandomProjectionExtractor,
    alignment_score,
    difference_score,
    docsim,
    evaluate_layout_corpora,
    evaluate_segment_corpora,
    feature_distance,
    frechet_gaussian_distance,
    hungarian,
    image_weight,
    iou,
    max_iou,
    max_weight_matching,
    overlap_score,
    segment_weight,
)


def brute_force_assignment(cost):
    """Exhaustive min-cost matching of all rows into columns (n <= m)."""
    n, m = cost.shape
    best = np.inf
    for perm in itertools.permutations(range(m), n):
        best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    return best


def random_layout(rng, n_boxes, categories=3):
    boxes = tuple(
        BoundingBox(
            x=float(rng.uniform(0, 200)), y=float(rng.uniform(0, 200)),
            h=float(rng.uniform(1, 56)), w=float(rng.uniform(1, 56)),
            c=int(rng.integers(1, categories + 1)),
        )
        for _ in range(n_boxes)
    )
    return Layout(H=256.0, W=256.0, boxes=boxes)


class TestHungarian:
    def test_frozen_2x2(self):
        pairs, total = hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert total == 2.0
        assert sorted(pairs) == [(0, 0), (1, 1)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(n, 7))
            cost = rng.uniform(0, 10, (n, m))
            _, total = hungarian(cost)
            assert total == pytest.approx(brute_force_assignment(cost), abs=1e-9)

    def test_integer_costs_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cost = rng.integers(0, 20, (5, 5)).astype(float)
            _, total = hungarian(cost)
            assert total == brute_force_assignment(cost)

    def test_assignment_is_valid(self):
        cost = np.random.default_rng(2).uniform(0, 1, (4, 6))
        pairs, total = hungarian(cost)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert sorted(rows) == [0, 1, 2, 3]
        assert len(set(cols)) == 4
        assert total == pytest.approx(sum(cost[i, j] for i, j in pairs))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hungarian(np.array([[np.nan, 1.0], [1.0, 2.0]]))

    def test_max_weight_is_negated_min_cost(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 5, (3, 5))
        _, best = max_weight_matching(w)
        assert best == pytest.approx(-brute_force_assignment(-w), abs=1e-9)

    def test_max_weight_transposes_tall_input(self):
        w = np.array([[1.0], [5.0], [2.0]])
        pairs, best = max_weight_matching(w)
        assert best == 5.0


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0

    def test_half_offset_frozen(self):
        # unit squares offset by half in one axis: inter 0.5, union 1.5
        assert iou((0, 0, 1, 1), (0.5, 0, 1, 1)) == pytest.approx(1 / 3)

    def test_degenerate(self):
        assert iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0

    def test_accepts_bounding_boxes(self):
        a = BoundingBox(0, 0, 2, 2, 1)
        assert iou(a, a) == 1.0


def alignment_oracle(layouts):
    """Straight double-loop transcription of the score definition."""
    import math
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
        total = 0.0
        for i in range(n):
            g = min(
                abs(anch[i][k] - anch[j][k])
                for j in range(n) if j != i
                for k in range(6)
            )
            total += -math.log(1.0 - min(g, 1.0 - 1e-12))
        vals.append(100.0 / n * total)
    return sum(vals) / len(vals)


def overlap_oracle(layouts):
    vals = []
    for layout in layouts:
        boxes = [(b.x / layout.W, b.y / layout.H, b.h / layout.H, b.w / layout.W)
                 for b in layout.boxes]
        area = sum(h * w for _, _, h, w in boxes)
        if area <= 0:
            vals.append(0.0)
            continue
        inter = 0.0
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                x1, y1, h1, w1 = boxes[i]
                x2, y2, h2, w2 = boxes[j]
                ix = max(0.0, min(x1 + w1, x2 + w2) - max(x1, x2))
                iy = max(0.0, min(y1 + h1, y2 + h2) - max(y1, y2))
                inter += ix * iy
        vals.append(100.0 * inter / area)
    return sum(vals) / len(vals)


class TestLayoutScores:
    def test_alignment_matches_oracle(self):
        rng = np.random.default_rng(4)
        layouts = [random_layout(rng, int(rng.integers(1, 7))) for _ in range(20)]
        assert alignment_score(layouts) == pytest.approx(
            alignment_oracle(layouts), abs=1e-9)

    def test_overlap_matches_oracle(self):
        rng = np.random.default_rng(5)
        layouts = [random_layout(rng, int(rng.integers(0, 7))) for _ in range(20)]
        assert overlap_score(layouts) == pytest.approx(
            overlap_oracle(layouts), abs=1e-9)

    def test_synthetic_corpus_scores_zero(self):
        for style in ("grid", "columns"):
            _, layouts = synth_layout_corpus(0, 8, style=style)
            assert alignment_score(layouts) == 0.0
            assert overlap_score(layouts) == 0.0

    def test_alignment_detects_jitter(self):
        _, layouts = synth_layout_corpus(1, 8, style="columns")
        rng = np.random.default_rng(6)
        jittered = [
            Layout(H=l.H, W=l.W, boxes=tuple(
                BoundingBox(b.x + float(rng.uniform(0.1, 4)),
                            b.y + float(rng.uniform(0.1, 4)), b.h, b.w, b.c)
                for b in l.boxes))
            for l in layouts
        ]
        assert alignment_score(jittered) > alignment_score(layouts)

    def test_single_box_layout_contributes_zero(self):
        one = Layout(H=100.0, W=100.0,
                     boxes=(BoundingBox(3.0, 3.0, 10.0, 10.0, 1),))
        assert alignment_score([one]) == 0.0

    def test_full_overlap_frozen(self):
        # two identical boxes: intersection == each area, total area doubles
        b = BoundingBox(10.0, 10.0, 50.0, 50.0, 1)
        layout = Layout(H=100.0, W=100.0, boxes=(b, b))
        assert overlap_score([layout]) == pytest.approx(50.0)


def max_iou_oracle(generated, reference):
    """Brute-force transcription with explicit permutation matching."""
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
                s += iou((bi.x / small.W, bi.y / small.H, bi.h / small.H, bi.w / small.W),
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


class TestMaxIou:
    def test_self_similarity_is_one(self):
        _, layouts = synth_layout_corpus(2, 6, style="grid")
        assert max_iou(layouts, layouts) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        gen = [random_layout(rng, int(rng.integers(1, 5))) for _ in range(6)]
        ref = [random_layout(rng, int(rng.integers(1, 5))) for _ in range(6)]
        assert max_iou(gen, ref) == pytest.approx(max_iou_oracle(gen, ref), abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            max_iou([], [random_layout(np.random.default_rng(0), 2)])


class TestDocSim:
    def test_self_similarity_positive(self):
        _, layouts = synth_layout_corpus(3, 4, style="grid")
        assert docsim(layouts, layouts) > 0.0

    def test_identical_pair_weight_formula(self):
        # one box matched with itself: dc = ds = 0, so weight = sqrt(area)
        b = BoundingBox(0.0, 0.0, 64.0, 64.0, 1)
        layout = Layout(H=256.0, W=256.0, boxes=(b,))
        assert docsim([layout], [layout]) == pytest.approx(0.25)  # sqrt(1/16)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        gen = [random_layout(rng, int(rng.integers(1, 5))) for _ in range(5)]
        ref = [random_layout(rng, int(rng.integers(1, 5))) for _ in range(5)]

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
                    alpha = np.sqrt(min(h1 * w1, h2 * w2))
                    dc = np.hypot(x1 + w1 / 2 - x2 - w2 / 2, y1 + h1 / 2 - y2 - h2 / 2)
                    ds = abs(w1 - w2) + abs(h1 - h2)
                    s += alpha * 2.0 ** (-dc - 2 * ds)
                best = max(best, s)
            return best / max(na, nb)

        oracle = float(np.mean([max(pair(g, r) for r in ref) for g in gen]))
        assert docsim(gen, ref) == pytest.approx(oracle, abs=1e-9)


def docsim_oracle(generated, reference):
    """Brute-force DocSim: explicit permutation matching of every pair."""
    def pair(a, b):
        na, nb = len(a.boxes), len(b.boxes)
        if na == 0 or nb == 0:
            return 0.0
        wa = [(bb.x / a.W, bb.y / a.H, bb.h / a.H, bb.w / a.W) for bb in a.boxes]
        wb = [(bb.x / b.W, bb.y / b.H, bb.h / b.H, bb.w / b.W) for bb in b.boxes]
        small, big = (wa, wb) if na <= nb else (wb, wa)
        best = 0.0
        for perm in itertools.permutations(range(len(big)), len(small)):
            s = 0.0
            for i, j in enumerate(perm):
                x1, y1, h1, w1 = small[i]
                x2, y2, h2, w2 = big[j]
                alpha = np.sqrt(min(h1 * w1, h2 * w2))
                dc = np.hypot(x1 + w1 / 2 - x2 - w2 / 2, y1 + h1 / 2 - y2 - h2 / 2)
                ds = abs(w1 - w2) + abs(h1 - h2)
                s += alpha * 2.0 ** (-dc - 2 * ds)
            best = max(best, s)
        return best / max(na, nb)
    return float(np.mean([max(pair(g, r) for r in reference) for g in generated]))


class TestDegenerateBoxes:
    """Zero-area, identical and disjoint boxes through the matrix paths."""

    def layouts(self):
        B = BoundingBox
        zero = B(10.0, 10.0, 0.0, 30.0, 1)
        flat = B(10.0, 10.0, 20.0, 0.0, 2)
        box = B(40.0, 40.0, 30.0, 30.0, 1)
        far = B(200.0, 200.0, 20.0, 20.0, 2)
        def lay(*boxes):
            return Layout(H=256.0, W=256.0, boxes=boxes)
        return [
            lay(zero),
            lay(zero, zero),
            lay(zero, flat, box),
            lay(box, box),
            lay(box, box, box),
            lay(box, far),
            lay(far, zero, box),
            lay(flat),
        ]

    def test_max_iou_matches_brute_force(self):
        layouts = self.layouts()
        for gen in (layouts, layouts[:3], layouts[3:]):
            assert max_iou(gen, layouts) == pytest.approx(
                max_iou_oracle(gen, layouts), abs=1e-12)
            assert max_iou(gen, layouts[::-1]) == pytest.approx(
                max_iou_oracle(gen, layouts[::-1]), abs=1e-12)

    def test_docsim_matches_brute_force(self):
        layouts = self.layouts()
        for gen in (layouts, layouts[:3], layouts[3:]):
            assert docsim(gen, layouts) == pytest.approx(
                docsim_oracle(gen, layouts), abs=1e-12)

    def test_overlap_matches_oracle(self):
        layouts = self.layouts()
        assert overlap_score(layouts) == pytest.approx(overlap_oracle(layouts), abs=1e-12)
        for layout in layouts:
            assert overlap_score([layout]) == pytest.approx(
                overlap_oracle([layout]), abs=1e-12)

    def test_zero_area_pairs_score_zero(self):
        zero = Layout(H=256.0, W=256.0, boxes=(BoundingBox(10.0, 10.0, 0.0, 30.0, 1),))
        assert max_iou([zero], [zero]) == 0.0
        assert docsim([zero], [zero]) == 0.0
        assert overlap_score([zero]) == 0.0


class TestDifference:
    def test_segment_weight_frozen(self):
        a = Segment(0.0, 0.0, 1.0, 1.0)
        b = Segment(0.5, 0.0, 1.0, 0.0)
        assert segment_weight(a, b) == pytest.approx(1.5)

    def test_identity_is_zero(self):
        _, sets = synth_segment_corpus(0, 6, k_segments=5)
        assert difference_score(sets, sets) == 0.0

    def test_matches_nested_brute_force_3x3(self):
        rng = np.random.default_rng(9)
        def rand_sets():
            return [
                [Segment(*rng.uniform(0, 1, 4)) for _ in range(3)]
                for _ in range(3)
            ]
        a, b = rand_sets(), rand_sets()

        def iw(s1, s2):
            return min(
                sum(segment_weight(s1[i], s2[j]) for i, j in enumerate(perm))
                for perm in itertools.permutations(range(3))
            )

        oracle = min(
            sum(iw(a[i], b[j]) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(3))
        ) / 3.0
        assert difference_score(a, b) == pytest.approx(oracle, abs=1e-9)

    def test_count_mismatch_names_offender(self):
        s = [Segment(0, 0, 1, 1)]
        with pytest.raises(ValueError, match=r"B\[1\]"):
            difference_score([s, s], [s, [Segment(0, 0, 1, 1), Segment(0, 0, 0, 1)]])

    def test_image_weight_requires_equal_counts(self):
        with pytest.raises(ValueError):
            image_weight([Segment(0, 0, 1, 1)], [])


class TestFrechet:
    def test_identical_populations_near_zero(self):
        x = np.random.default_rng(10).standard_normal((200, 8))
        assert abs(frechet_gaussian_distance(x, x)) < 1e-8

    def test_unit_mean_shift_1d(self):
        # N(0,1) vs N(1,1): distance = (mu diff)^2 = 1
        rng = np.random.default_rng(11)
        a = rng.standard_normal(200_000)
        b = rng.standard_normal(200_000) + 1.0
        assert frechet_gaussian_distance(a, b) == pytest.approx(1.0, abs=0.05)

    def test_analytic_1d_variance_case(self):
        # exact fit: construct samples with known moments via standardization
        rng = np.random.default_rng(12)
        a = rng.standard_normal(5000)
        a = (a - a.mean()) / a.std(ddof=1)
        b = 2.0 * a  # mean 0, var 4
        # d = 0 + (1 + 4 - 2*2) = 1
        assert frechet_gaussian_distance(a, b) == pytest.approx(1.0, abs=1e-6)

    def test_analytic_multi_feature_case(self):
        # whiten a to sample mean 0 and sample covariance I, then b = a A + m
        # has mean m and covariance A^T A, so tr((S1 S2)^{1/2}) = sum svd(A)
        def whitened(n, d, seed):
            x = np.random.default_rng(seed).standard_normal((n, d))
            x -= x.mean(axis=0)
            chol = np.linalg.cholesky(np.atleast_2d(np.cov(x, rowvar=False)))
            return np.linalg.solve(chol, x.T).T

        cases = [
            (whitened(500, 3, 15),
             np.array([[1.5, 0.3, -0.4], [0.2, 0.8, 0.5], [-0.6, 0.1, 2.0]]),
             np.array([0.5, -1.0, 0.25])),
            (whitened(500, 1, 16), np.array([[2.5]]), np.array([0.5])),
        ]
        for a, A, m in cases:
            b = a @ A + m
            d = a.shape[1]
            expected = (m @ m + d + np.sum(A * A)
                        - 2.0 * np.linalg.svd(A, compute_uv=False).sum())
            assert frechet_gaussian_distance(a, b) == pytest.approx(expected, abs=1e-9)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            frechet_gaussian_distance(np.zeros((1, 4)), np.zeros((5, 4)))

    def test_corruption_ladder(self):
        """Feature distance grows as renders drift from the reference set."""
        from layoutdiff.render import rasterize
        _, layouts = synth_layout_corpus(4, 24, style="grid")
        ref = [rasterize(l, size=32) for l in layouts]
        rng = np.random.default_rng(13)
        dists = []
        for sigma in (0.0, 0.2, 0.6):
            noisy = [im + rng.normal(0, sigma, im.shape) for im in ref]
            dists.append(feature_distance(noisy, ref))
        assert dists[0] < dists[1] < dists[2]

    def test_extractor_deterministic(self):
        ex = RandomProjectionExtractor(dim=8, seed=3)
        im = np.random.default_rng(14).uniform(0, 1, (16, 16, 3))
        assert np.array_equal(ex(im), RandomProjectionExtractor(dim=8, seed=3)(im))


class TestReports:
    def test_layout_report_fields(self):
        _, layouts = synth_layout_corpus(5, 6, style="columns")
        rep = evaluate_layout_corpora(layouts, layouts)
        for key in ("alignment", "overlap", "max_iou", "docsim"):
            assert key in rep.scalars
        assert "feature_distance" not in rep.scalars
        assert len(rep.per_sample["alignment"]) == 6
        assert rep.meta["n_generated"] == 6
        assert "config_hash" in rep.meta

    def test_segment_report_fields(self):
        _, sets = synth_segment_corpus(1, 5, k_segments=4)
        rep = evaluate_segment_corpora(sets, sets)
        assert rep.scalars["difference"] == 0.0

    def test_config_hash_covers_inputs(self):
        _, a = synth_layout_corpus(6, 5, style="grid")
        _, b = synth_layout_corpus(7, 5, style="grid")
        h = lambda gen, ref, **kw: evaluate_layout_corpora(gen, ref, **kw).meta["config_hash"]
        assert h(a, b) == h(list(a), list(b))
        assert len({h(a, b), h(b, a), h(a, a), h(b, b)}) == 4
        _, s1 = synth_segment_corpus(2, 4, k_segments=3)
        _, s2 = synth_segment_corpus(3, 4, k_segments=3)
        hs = lambda gen, ref: evaluate_segment_corpora(gen, ref).meta["config_hash"]
        assert hs(s1, s2) == hs(s1, s2)
        assert hs(s1, s2) != hs(s2, s1)

    def test_config_hash_covers_extractor(self):
        from layoutdiff.render import rasterize
        _, layouts = synth_layout_corpus(8, 4, style="grid")
        images = [rasterize(l, size=16) for l in layouts]
        def h(extractor):
            return evaluate_layout_corpora(
                layouts, layouts, images, images, extractor).meta["config_hash"]
        plain = evaluate_layout_corpora(layouts, layouts).meta["config_hash"]
        default = h(None)
        assert default == h(RandomProjectionExtractor())
        assert len({plain, default, h(RandomProjectionExtractor(dim=16)),
                    h(RandomProjectionExtractor(seed=1))}) == 4

    def test_report_json_roundtrip(self):
        import json
        rep = MetricReport(scalars={"a": 1.0}, meta={"n": 2})
        parsed = json.loads(rep.to_json())
        assert parsed["scalars"]["a"] == 1.0
        assert "a" in rep.to_text()
