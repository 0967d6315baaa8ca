import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layoutdiff import metrics
from layoutdiff.core import BoundingBox, Layout, Segment
from layoutdiff.data import synth_layout_corpus, synth_segment_corpus
from layoutdiff.metrics import (
    FEATURE_DIM,
    FEATURE_SEED,
    MetricReport,
    alignment_score,
    difference_score,
    docsim,
    evaluate_layout_corpora,
    evaluate_segment_corpora,
    feature_distance,
    frechet_gaussian_distance,
    hungarian,
    iou,
    max_iou,
    max_weight_matching,
    overlap_score,
    project_features,
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

    @pytest.mark.parametrize("entries", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                         [np.nan, 1e308]])
    def test_nonfinite_entries_refused_with_one_message(self, entries):
        cost = np.ones((3, 4))
        cost.flat[:len(entries)] = entries
        with pytest.raises(ValueError, match="^cost matrix contains non-finite entries$"):
            hungarian(cost)

    def test_finite_matrix_whose_sum_overflows_is_solved(self):
        """Finiteness is first tested on one reduction, which overflows
        here; the matrix is still accepted, with no warning."""
        cost = np.array([[1e308, 1e308, 1e308], [1e308, 0.0, 1e308]])
        pairs, total = hungarian(cost)
        assert pairs == [(0, 0), (1, 1)] and total == 1e308

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

    def test_segment_count_comes_from_reference(self):
        """Sampled sets of 4 and 3 segments against a 5-segment reference:
        A[0] is the first image off the reference's count."""
        ref = [[Segment(0.0, 0.0, 1.0, 1.0)] * 5] * 2
        gen = [[Segment(0.0, 0.0, 1.0, 1.0)] * 4, [Segment(0.0, 0.0, 1.0, 1.0)] * 3]
        with pytest.raises(ValueError, match=r"^image A\[0\] has 4 segments, expected 5 "):
            difference_score(gen, ref)


# The per-pair code the bulk metrics replaced, kept as oracles: the bulk
# paths must give the same floats, and may skip assignments the pairwise
# code solves but never make more.


def _iou_matrix_pair(a, b):
    """(na, nb) IoU of two (n, 4) box arrays of one layout pair."""
    a3, b3 = a[:, None, :], b[None, :, :]
    lo = np.maximum(a3[..., :2], b3[..., :2])
    hi = np.minimum(a3[..., :2] + a3[..., [3, 2]], b3[..., :2] + b3[..., [3, 2]])
    inter = np.prod(np.maximum(hi - lo, 0.0), axis=-1)
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def _layout_pair_maxiou(a, b):
    na, nb = len(a.boxes), len(b.boxes)
    if na == 0 or nb == 0:
        return 1.0 if na == nb else 0.0
    same_category = np.equal.outer([x.c for x in a.boxes], [y.c for y in b.boxes])
    w = np.where(same_category,
                 _iou_matrix_pair(metrics._norm_boxes(a), metrics._norm_boxes(b)), 0.0)
    _, total = metrics.max_weight_matching(w)
    return total / max(na, nb)


def max_iou_pairwise(generated, reference):
    cats = lambda l: frozenset(Counter(b.c for b in l.boxes).items())
    pools = {}
    for r in reference:
        pools.setdefault(cats(r), []).append(r)
    return float(np.mean([
        max(_layout_pair_maxiou(g, r) for r in pools.get(cats(g), reference)) for g in generated
    ]))


def _docsim_pair(a, b):
    na, nb = len(a.boxes), len(b.boxes)
    if na == 0 or nb == 0:
        return 0.0
    ba, bb = metrics._norm_boxes(a), metrics._norm_boxes(b)
    ca = ba[:, :2] + ba[:, [3, 2]] / 2
    cb = bb[:, :2] + bb[:, [3, 2]] / 2
    alpha = np.sqrt(np.minimum.outer(ba[:, 2] * ba[:, 3], bb[:, 2] * bb[:, 3]))
    dc = np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=-1)
    ds = np.abs(ba[:, None, 2:] - bb[None, :, 2:]).sum(axis=-1)
    w = alpha * 2.0 ** (-dc - 2.0 * ds)
    _, total = metrics.max_weight_matching(w)
    return total / max(na, nb)


def docsim_pairwise(generated, reference):
    return float(np.mean([max(_docsim_pair(g, r) for r in reference) for g in generated]))


def _image_weight_pair(s1, s2):
    if not s1:
        return 0.0
    e1, e2 = (np.array([[s.x1, s.y1, s.x2, s.y2] for s in segs]) for segs in (s1, s2))
    cost = np.abs(e1[:, None, :] - e2[None, :, :]).sum(axis=-1)
    return metrics.hungarian(cost)[1]


def difference_pairwise(set_a, set_b):
    if not set_a:
        return 0.0
    cost = np.array([[_image_weight_pair(a, b) for b in set_b] for a in set_a])
    return metrics.hungarian(cost)[1] / len(set_a)


def with_hungarian_calls(fn, *args):
    """(fn(*args), the number of metrics.hungarian calls it made)."""
    solve, calls = metrics.hungarian, []

    def counting(cost):
        calls.append(1)
        return solve(cost)

    metrics.hungarian = counting
    try:
        return fn(*args), len(calls)
    finally:
        metrics.hungarian = solve


def assert_bulk_equals_pairwise(generated, reference):
    for bulk, pairwise in ((max_iou, max_iou_pairwise), (docsim, docsim_pairwise)):
        value, calls = with_hungarian_calls(bulk, generated, reference)
        expected, pairwise_calls = with_hungarian_calls(pairwise, generated, reference)
        assert value == expected
        assert calls <= pairwise_calls


COORD = st.floats(0.0, 200.0)
SIZE = st.floats(0.0, 56.0)  # zero-area boxes included
BOXES = st.lists(st.builds(BoundingBox, x=COORD, y=COORD, h=SIZE, w=SIZE,
                           c=st.integers(1, 3)), max_size=8)
LAYOUTS = st.builds(lambda boxes, hw: Layout(H=hw[0], W=hw[1], boxes=tuple(boxes)),
                    BOXES, st.sampled_from([(256.0, 256.0), (120.0, 200.0)]))


def moved(layout, boxes):
    """layout's categories on the first len(layout.boxes) of the new boxes:
    a layout in layout's multiset pool."""
    return Layout(H=layout.H, W=layout.W, boxes=tuple(
        BoundingBox(b.x, b.y, b.h, b.w, old.c) for b, old in zip(boxes, layout.boxes)))


class TestBulkEqualsPairwise:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_max_iou_and_docsim(self, data):
        reference = data.draw(st.lists(LAYOUTS, min_size=1, max_size=8))
        # a moved reference shares its multiset pool; a random layout
        # usually misses every pool and is scored against all references
        in_pool = st.tuples(st.sampled_from(reference), st.lists(
            st.builds(BoundingBox, x=COORD, y=COORD, h=SIZE, w=SIZE, c=st.just(1)),
            min_size=8, max_size=8)).map(lambda pair: moved(*pair))
        generated = data.draw(st.lists(st.one_of(LAYOUTS, in_pool), min_size=1, max_size=5))
        assert_bulk_equals_pairwise(generated, reference)

    def test_empty_layouts_and_missed_pools(self):
        B = BoundingBox
        empty = Layout(H=256.0, W=256.0, boxes=())
        one = Layout(H=256.0, W=256.0, boxes=(B(10.0, 10.0, 40.0, 40.0, 1),))
        two = Layout(H=256.0, W=256.0, boxes=(B(10.0, 10.0, 40.0, 40.0, 1),
                                              B(60.0, 10.0, 40.0, 40.0, 2)))
        miss = Layout(H=256.0, W=256.0, boxes=(B(12.0, 10.0, 40.0, 40.0, 3),
                                               B(60.0, 12.0, 40.0, 40.0, 3)))
        for generated, reference in (
            ([empty, one, miss], [empty, one, two]),  # empty matches empty
            ([empty, miss], [one, two]),  # no empty reference: the all-pool
            ([one, two, miss], [empty]),
        ):
            assert_bulk_equals_pairwise(generated, reference)
        assert max_iou([empty], [empty, one]) == 1.0
        assert max_iou([empty], [one]) == 0.0
        assert docsim([empty], [empty, one]) == 0.0

    def test_duplicate_references_tie_their_bounds(self):
        """Copies of one reference share a bound. A layout matched with
        itself takes every row's maximum, so its total meets that bound and
        the other copies are not solved."""
        rng = np.random.default_rng(30)
        layout = random_layout(rng, 5)
        for metric in (max_iou, docsim):
            value = metric([layout], [layout])
            assert with_hungarian_calls(metric, [layout], [layout] * 4) == (value, 1)
        others = [random_layout(rng, 5, categories=2) for _ in range(3)]
        generated = [random_layout(rng, 5, categories=2) for _ in range(4)] + [layout]
        assert_bulk_equals_pairwise(generated, others * 3 + [layout] * 2)

    def test_best_matrix_visited_last(self, monkeypatch):
        """A high bound need not mean a high total: the matrix whose row
        maxima share a column is solved first and loses to the next one, and
        a matrix whose bound is below the best total is never solved."""
        weights = np.array([
            [[0.9, 0.1], [0.9, 0.1]],  # bound 1.8, total 1.0
            [[0.7, 0.0], [0.0, 0.7]],  # bound 1.4: pruned
            [[0.8, 0.0], [0.0, 0.8]],  # bound 1.6, total 1.6, the best
        ])
        solved, solve = [], metrics.hungarian
        monkeypatch.setattr(metrics, "hungarian", lambda cost: solved.append(cost) or solve(cost))
        assert metrics._best_matching(weights, 2, 2) == 0.8
        assert [c.tolist() for c in solved] == [(-weights[0]).tolist(), (-weights[2]).tolist()]

    def test_tall_matrices_bound_by_column_maxima(self):
        """With more rows than columns max_weight_matching solves the
        transpose, so the bound sums column maxima, which is tighter here
        than the row maxima: the second matrix is pruned."""
        weights = np.array([
            [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],  # bound 2.0 = total
            [[0.9, 0.0], [0.0, 0.9], [0.9, 0.9]],  # bound 1.8 (row maxima: 2.7)
        ])
        assert with_hungarian_calls(metrics._best_matching, weights, 3, 2) == (2.0 / 3, 1)

    def test_nine_to_sixteen_boxes(self):
        """numpy sums 8 or more values as 8 interleaved partial sums, in the
        bound as in hungarian's total; the bound's per-row sums along the
        last axis are the sums of each row alone."""
        rng = np.random.default_rng(31)
        for n in range(1, 41):
            maxima = rng.uniform(0.0, 1.0, (5, n))
            assert np.array_equal(maxima.sum(axis=-1), [row.copy().sum() for row in maxima])
        reference = [random_layout(rng, int(n), categories=2) for n in rng.integers(9, 17, 24)]
        # copies of references reach their own bound exactly
        generated = [random_layout(rng, int(n), categories=2) for n in rng.integers(9, 17, 6)]
        assert_bulk_equals_pairwise(generated + reference[:3], reference)

    def test_all_pool_fallback(self):
        """A layout whose category multiset no reference has is scored
        against every box-count group, each pruned on its own."""
        rng = np.random.default_rng(32)
        reference = [random_layout(rng, n, categories=2) for n in (1, 2, 3, 3, 5, 9, 9, 12, 12)]
        generated = [Layout(H=256.0, W=256.0, boxes=tuple(
            BoundingBox(b.x, b.y, b.h, b.w, 3) for b in random_layout(rng, n).boxes))
            for n in (2, 3, 9, 14)]
        assert_bulk_equals_pairwise(generated, reference)

    def test_synthetic_corpus_takes_fewer_solves(self):
        _, reference = synth_layout_corpus(33, 32, style="grid")
        generated = [moved(r, random_layout(np.random.default_rng(i), 8).boxes)
                     for i, r in enumerate(reference[:8])]
        for bulk, pairwise in ((max_iou, max_iou_pairwise), (docsim, docsim_pairwise)):
            (value, calls), (expected, pairwise_calls) = (
                with_hungarian_calls(fn, generated, reference) for fn in (bulk, pairwise))
            assert value == expected and calls < pairwise_calls

    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_difference_score(self, n_images, k, data):
        segments = st.builds(Segment, *[st.floats(0.0, 1.0)] * 4)
        images = st.lists(st.lists(segments, min_size=k, max_size=k),
                          min_size=n_images, max_size=n_images)
        set_a, set_b = data.draw(images), data.draw(images)
        assert with_hungarian_calls(difference_score, set_a, set_b) == with_hungarian_calls(
            difference_pairwise, set_a, set_b)


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
        im = np.random.default_rng(14).uniform(0, 1, (16, 16, 3))
        features = project_features([im])
        assert features.shape == (1, FEATURE_DIM)
        assert np.array_equal(features, project_features([im]))


class TestRandomProjection:
    @pytest.mark.parametrize("shape", [(16, 16, 3), (80, 80, 3)])
    def test_features_match_whole_projection(self, shape):
        """The streamed features equal those of one whole draw; 80x80x3 =
        19200 rows ends part way into the second block."""
        from layoutdiff.metrics import PROJECTION_BLOCK_ROWS
        size = int(np.prod(shape))
        assert (size < PROJECTION_BLOCK_ROWS) == (shape[0] == 16)
        assert size % PROJECTION_BLOCK_ROWS != 0
        images = np.random.default_rng(20).uniform(0, 1, (5,) + shape)
        flat = images.reshape(5, size)
        projection = np.random.default_rng(FEATURE_SEED).standard_normal((size, FEATURE_DIM))
        expected = flat @ projection / np.sqrt(size)
        np.testing.assert_allclose(project_features(images), expected, rtol=1e-12, atol=0)

    def test_features_do_not_depend_on_batch(self):
        images = list(np.random.default_rng(21).uniform(0, 1, (6, 80, 80, 3)))
        batch = project_features(images)
        for i in (0, 3):
            np.testing.assert_allclose(project_features([images[i]])[0], batch[i],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(project_features(images[i:i + 2])[0], batch[i],
                                       rtol=0, atol=1e-12)

    def test_mixed_sizes_rejected(self):
        rng = np.random.default_rng(23)
        images = [rng.uniform(0, 1, (16, 16, 3)) for _ in range(4)]
        images[2] = rng.uniform(0, 1, (32, 32, 3))
        with pytest.raises(ValueError, match=r"image 2 has 3072 values, image 0 has 768"):
            project_features(images)
        with pytest.raises(ValueError, match=r"image 2 has 3072 values"):
            feature_distance(images[:3], images[3:] + images[:1])

    def test_non_finite_features_rejected(self):
        """Checked on the features: 1e308 pixels are finite, their
        projection overflows."""
        rng = np.random.default_rng(24)
        for bad in (np.nan, 1e308):
            images = [rng.uniform(0, 1, (16, 16, 3)) for _ in range(5)]
            images[3][:] = bad
            with pytest.raises(ValueError, match=r"image 3 has non-finite features"):
                project_features(images)
            with pytest.raises(ValueError, match=r"image 3 has non-finite features"):
                feature_distance(images[:2], images[2:])


    def test_generator_equals_list(self):
        images = list(np.random.default_rng(25).uniform(0, 1, (19, 16, 16, 3)))
        assert np.array_equal(project_features(iter(images)), project_features(images))
        assert feature_distance(iter(images[:9]), iter(images[9:])) == feature_distance(
            images[:9], images[9:])

    @pytest.mark.parametrize("wrap", [list, iter], ids=["list", "generator"])
    def test_errors_name_the_global_index(self, wrap):
        """An error's image index counts every image before it, across
        batches and, in feature_distance, the generated images before the
        reference ones."""
        rng = np.random.default_rng(26)
        images = [rng.uniform(0, 1, (16, 16, 3)) for _ in range(20)]
        mixed = images[:17] + [rng.uniform(0, 1, (8, 8, 3))] + images[18:]
        with pytest.raises(ValueError, match=r"^image 17 has 192 values, image 0 has 768$"):
            project_features(wrap(mixed))
        with pytest.raises(ValueError, match=r"^image 17 has 192 values, image 0 has 768$"):
            feature_distance(wrap(mixed[:10]), wrap(mixed[10:]))
        bad = [im.copy() for im in images]
        bad[17][:] = np.nan
        with pytest.raises(ValueError, match=r"^image 17 has non-finite features$"):
            project_features(wrap(bad))
        with pytest.raises(ValueError, match=r"^image 17 has non-finite features$"):
            feature_distance(wrap(bad[:10]), wrap(bad[10:]))

    @pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 15, 17, 40, 41])
    def test_batches_equal_one_gemm(self, n):
        """At the 64 px render size, one projection block, the features of
        n images projected IMAGE_BATCH or more at a time equal those of one
        GEMM over all n: OpenBLAS 0.3.31's GEMM gives a row the same bytes
        whatever the other rows, once a call has 3 rows or more at this K."""
        images = np.random.default_rng(27).uniform(0, 1, (n, 64, 64, 3))
        size = 64 * 64 * 3
        projection = np.random.default_rng(FEATURE_SEED).standard_normal((size, FEATURE_DIM))
        expected = images.reshape(n, size) @ projection / np.sqrt(size)
        assert np.array_equal(project_features(iter(images)), expected)


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

    def test_config_hash_covers_extractor(self, monkeypatch):
        """With renders, the hash covers the projection's width and seed."""
        from layoutdiff.render import rasterize
        _, layouts = synth_layout_corpus(8, 4, style="grid")
        images = [rasterize(l, size=16) for l in layouts]

        def h():
            return evaluate_layout_corpora(layouts, layouts, images, images).meta["config_hash"]
        plain = evaluate_layout_corpora(layouts, layouts).meta["config_hash"]
        default = h()
        hashes = {plain, default}
        for name, value in (("FEATURE_DIM", 16), ("FEATURE_SEED", 1)):
            with monkeypatch.context() as mp:
                mp.setattr(metrics, name, value)
                hashes.add(h())
        assert len(hashes) == 4

    def test_fixed_report_keeps_its_hash_and_distance(self):
        """The config_hash of a fixed input, and its feature distance, as
        recorded when the projection had a settable width and seed (32, 0)."""
        from layoutdiff.render import rasterize
        _, layouts = synth_layout_corpus(0, 6, style="columns", n_max=4)
        images = [rasterize(l) for l in layouts]
        rep = evaluate_layout_corpora(layouts[:3], layouts[3:], images[:3], images[3:])
        assert rep.meta["config_hash"] == "bf37f81630b2"
        assert rep.scalars["feature_distance"] == pytest.approx(0.5800746051967165, rel=1e-9)

    @pytest.mark.parametrize("suite", ["layout", "segment"])
    @pytest.mark.parametrize("missing", ["images_generated", "images_reference"])
    def test_renders_for_one_side_rejected(self, suite, missing):
        from layoutdiff.render import rasterize
        if suite == "layout":
            evaluate, (_, items) = evaluate_layout_corpora, synth_layout_corpus(9, 3, style="grid")
        else:
            evaluate, (_, items) = evaluate_segment_corpora, synth_segment_corpus(9, 3, k_segments=3)
        images = {"images_generated": [rasterize(x) for x in items],
                  "images_reference": [rasterize(x) for x in items]}
        del images[missing]
        with pytest.raises(ValueError, match=rf"one side only: {missing} is missing"):
            evaluate(items, items, **images)

    def test_render_shape_in_meta_and_hash(self):
        from layoutdiff.render import rasterize
        _, layouts = synth_layout_corpus(10, 4, style="grid")

        def meta(images):
            return evaluate_layout_corpora(layouts, layouts, images, images).meta

        default = meta([rasterize(l) for l in layouts])
        small = meta([rasterize(l, size=32) for l in layouts])
        assert default["render_shape"] == [64, 64, 3]
        assert small["render_shape"] == [32, 32, 3]
        assert small["config_hash"] != meta([rasterize(l, size=64) for l in layouts])["config_hash"]
        assert "render_shape" not in evaluate_layout_corpora(layouts, layouts).meta

    def test_render_shape_from_a_generator(self):
        from layoutdiff.render import rasterize
        _, layouts = synth_layout_corpus(10, 4, style="grid")

        def renders():
            return (rasterize(l, size=32) for l in layouts)
        from_generators = evaluate_layout_corpora(layouts, layouts, renders(), renders())
        from_lists = evaluate_layout_corpora(layouts, layouts, list(renders()), list(renders()))
        assert from_generators.meta["render_shape"] == [32, 32, 3]
        assert from_generators.to_json() == from_lists.to_json()

    def test_report_json_roundtrip(self):
        import json
        rep = MetricReport(scalars={"a": 1.0}, meta={"n": 2})
        parsed = json.loads(rep.to_json())
        assert parsed["scalars"]["a"] == 1.0
        assert "a" in rep.to_text()
