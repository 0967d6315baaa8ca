"""Evaluation metrics: alignment, overlap, MaxIoU, DocSim, the two-level
segment Difference score, the assignment wrapper they share, and a pluggable
Frechet feature distance standing in for FID. Its default features are a
fixed-seed Gaussian random projection of the renders, streamed in row blocks
over all renders at once and never held whole.

All box-level formulas operate on per-layout normalized coordinates in [0, 1].
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import Layout, Segment
from .data import _dump, _record_dict


def hungarian(cost) -> tuple[list[tuple[int, int]], float]:
    """Minimum-cost assignment of rows to columns (n <= m) by scipy's
    linear_sum_assignment (Crouse, IEEE TAES 2016).

    Returns (list of (row, col) sorted by row, total cost).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    n, m = cost.shape
    if n > m:
        raise ValueError(f"hungarian requires n <= m, got {n} x {m}")
    # imported here: scipy.optimize adds about 0.35 s to `import layoutdiff`,
    # which every CLI command pays, and only the metrics need it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist())), float(cost[rows, cols].sum())


def max_weight_matching(weights) -> tuple[list[tuple[int, int]], float]:
    """Maximum-weight assignment via hungarian on negated weights."""
    w = np.asarray(weights, dtype=np.float64)
    transposed = w.shape[0] > w.shape[1]
    if transposed:
        w = w.T
    pairs, total = hungarian(-w)
    if transposed:
        pairs = sorted((c, r) for r, c in pairs)
    return pairs, -total


# ---------------------------------------------------------------------------
# box geometry


def _intersections(a, b) -> np.ndarray:
    """(na, nb) intersection areas of two (n, 4) arrays of (x, y, h, w) boxes."""
    a, b = a[:, None, :], b[None, :, :]
    # columns 2:4 are (h, w), so the far corner is (x + w, y + h)
    lo = np.maximum(a[..., :2], b[..., :2])
    hi = np.minimum(a[..., :2] + a[..., [3, 2]], b[..., :2] + b[..., [3, 2]])
    return np.prod(np.maximum(hi - lo, 0.0), axis=-1)


def _iou_matrix(a, b) -> np.ndarray:
    """(na, nb) IoU of two (n, 4) box arrays; degenerate pairs score 0."""
    inter = _intersections(a, b)
    union = (a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def iou(a, b) -> float:
    """Intersection over union of two boxes given as (x, y, h, w) tuples or
    BoundingBox values; degenerate pairs score 0."""
    a, b = (np.array([[v.x, v.y, v.h, v.w] if hasattr(v, "x") else v], dtype=np.float64)
            for v in (a, b))
    return float(_iou_matrix(a, b)[0, 0])


def _norm_boxes(layout: Layout) -> np.ndarray:
    """(N, 4) array of (x, y, h, w) normalized to the unit square."""
    if not layout.boxes:
        return np.zeros((0, 4))
    return np.array(
        [[b.x / layout.W, b.y / layout.H, b.h / layout.H, b.w / layout.W] for b in layout.boxes]
    )


def alignment_score(layouts) -> float:
    """Mean over layouts of (100/N) * sum_i -log(1 - g(i)), where g(i) is the
    minimum over other elements of the six anchor distances (left, x-center,
    right, top, y-center, bottom). Single-element layouts contribute 0."""
    scores = []
    for layout in layouts:
        boxes = _norm_boxes(layout)
        n = boxes.shape[0]
        if n < 2:
            scores.append(0.0)
            continue
        x, y, h, w = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
        anchors = np.stack([x, x + w / 2, x + w, y + h, y + h / 2, y], axis=1)
        d = np.abs(anchors[:, None, :] - anchors[None, :, :])
        d[np.arange(n), np.arange(n)] = np.inf
        g = np.minimum(d.min(axis=(1, 2)), 1.0 - 1e-12)
        scores.append(100.0 / n * float(np.sum(-np.log(1.0 - g))))
    return float(np.mean(scores)) if scores else 0.0


def overlap_score(layouts) -> float:
    """Mean over layouts of 100 * (total pairwise intersection area) /
    (total element area); layouts with zero total area contribute 0."""
    scores = []
    for layout in layouts:
        boxes = _norm_boxes(layout)
        total_area = float(np.sum(boxes[:, 2] * boxes[:, 3]))
        if total_area <= 0.0:
            scores.append(0.0)
            continue
        inter = float(np.sum(np.triu(_intersections(boxes, boxes), k=1)))
        scores.append(100.0 * inter / total_area)
    return float(np.mean(scores)) if scores else 0.0


def _layout_pair_maxiou(a: Layout, b: Layout) -> float:
    """Category-constrained max-IoU matching, normalized by max box count."""
    na, nb = len(a.boxes), len(b.boxes)
    if na == 0 or nb == 0:
        return 1.0 if na == nb else 0.0
    same_category = np.equal.outer([x.c for x in a.boxes], [y.c for y in b.boxes])
    w = np.where(same_category, _iou_matrix(_norm_boxes(a), _norm_boxes(b)), 0.0)
    _, total = max_weight_matching(w)
    return total / max(na, nb)


def _category_multiset(layout: Layout):
    return frozenset(Counter(b.c for b in layout.boxes).items())


def max_iou(generated, reference) -> float:
    """Mean over generated layouts of the best pair similarity against
    reference layouts sharing the same category multiset (all references if
    no multiset match exists)."""
    generated, reference = list(generated), list(reference)
    if not generated or not reference:
        raise ValueError("both corpora must be nonempty")
    by_multiset = {}
    for r in reference:
        by_multiset.setdefault(_category_multiset(r), []).append(r)
    scores = []
    for g in generated:
        pool = by_multiset.get(_category_multiset(g), reference)
        scores.append(max(_layout_pair_maxiou(g, r) for r in pool))
    return float(np.mean(scores))


def _docsim_pair(a: Layout, b: Layout) -> float:
    na, nb = len(a.boxes), len(b.boxes)
    if na == 0 or nb == 0:
        return 0.0
    ba, bb = _norm_boxes(a), _norm_boxes(b)
    ca = ba[:, :2] + ba[:, [3, 2]] / 2
    cb = bb[:, :2] + bb[:, [3, 2]] / 2
    alpha = np.sqrt(np.minimum.outer(ba[:, 2] * ba[:, 3], bb[:, 2] * bb[:, 3]))
    dc = np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=-1)
    ds = np.abs(ba[:, None, 2:] - bb[None, :, 2:]).sum(axis=-1)
    w = alpha * 2.0 ** (-dc - 2.0 * ds)
    _, total = max_weight_matching(w)
    return total / max(na, nb)


def docsim(generated, reference) -> float:
    """Mean over generated layouts of the best DocSim pair score."""
    generated, reference = list(generated), list(reference)
    if not generated or not reference:
        raise ValueError("both corpora must be nonempty")
    return float(np.mean([max(_docsim_pair(g, r) for r in reference) for g in generated]))


# ---------------------------------------------------------------------------
# segment difference


def segment_weight(l1: Segment, l2: Segment) -> float:
    """L1 distance between matched endpoints of two normalized segments."""
    return (
        abs(l1.x1 - l2.x1) + abs(l1.y1 - l2.y1) + abs(l1.x2 - l2.x2) + abs(l1.y2 - l2.y2)
    )


def image_weight(s1, s2) -> float:
    """Min-cost segment matching between two equally sized segment sets."""
    s1, s2 = list(s1), list(s2)
    if len(s1) != len(s2):
        raise ValueError(f"segment counts differ: {len(s1)} vs {len(s2)}")
    if not s1:
        return 0.0
    e1, e2 = (np.array([[s.x1, s.y1, s.x2, s.y2] for s in segs]) for segs in (s1, s2))
    cost = np.abs(e1[:, None, :] - e2[None, :, :]).sum(axis=-1)
    _, total = hungarian(cost)
    return total


def difference_score(set_a, set_b) -> float:
    """Two-level min-cost matching: segments within image pairs, then image
    pairs across the two collections; the score is the average matched
    inter-image weight."""
    set_a, set_b = list(set_a), list(set_b)
    if len(set_a) != len(set_b):
        raise ValueError(f"image counts differ: {len(set_a)} vs {len(set_b)}")
    if not set_a:
        return 0.0
    k = len(set_a[0])
    for side, images in (("A", set_a), ("B", set_b)):
        for idx, s in enumerate(images):
            if len(s) != k:
                raise ValueError(
                    f"image {side}[{idx}] has {len(s)} segments, expected {k}"
                )
    cost = np.array([[image_weight(a, b) for b in set_b] for a in set_a])
    _, total = hungarian(cost)
    return total / len(set_a)


# ---------------------------------------------------------------------------
# Frechet feature distance


# Rows of the projection drawn and applied at a time: 16384 x 32 float64 is
# 4 MiB, where the whole projection of a 256 px render is 48 MiB.
PROJECTION_BLOCK_ROWS = 16384


class RandomProjectionExtractor:
    """Documented default feature proxy: a fixed-seed Gaussian projection of
    the flattened image. Deterministic; NOT comparable with Inception FID.

    The (D, dim) projection is drawn from default_rng(seed) and scaled by
    1/sqrt(D). It is drawn and applied PROJECTION_BLOCK_ROWS rows at a time,
    in one pass for a whole batch of images, and never held whole. Successive
    draws from one generator give the numbers of one whole draw, so the
    blocks are the rows of the same matrix."""

    def __init__(self, dim=32, seed=0):
        self.dim = dim
        self.seed = seed

    def features(self, images) -> np.ndarray:
        """(n, dim) features of n images of one size. Raises ValueError
        naming the first image whose size differs from image 0's, or whose
        features are not finite."""
        flats = [np.asarray(im, dtype=np.float64).ravel() for im in images]
        size = flats[0].size if flats else 0
        for i, flat in enumerate(flats):
            if flat.size != size:
                raise ValueError(f"image {i} has {flat.size} values, image 0 has {size}")
        rng = np.random.default_rng(self.seed)
        out = np.zeros((len(flats), self.dim))
        # overflow and NaN pixels show as non-finite features, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, size, PROJECTION_BLOCK_ROWS):
                block = rng.standard_normal((min(PROJECTION_BLOCK_ROWS, size - lo), self.dim))
                out += np.stack([flat[lo:lo + len(block)] for flat in flats]) @ block
        out /= np.sqrt(size)
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        if bad.size:
            raise ValueError(f"image {bad[0]} has non-finite features")
        return out

    def __call__(self, image) -> np.ndarray:
        return self.features([image])[0]


def frechet_gaussian_distance(feats_a, feats_b) -> float:
    """||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S1 S2)^{1/2}) of Gaussian fits."""
    a = np.asarray(feats_a, dtype=np.float64)
    b = np.asarray(feats_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("need at least 2 samples per side to fit a Gaussian")
    mu1, mu2 = a.mean(axis=0), b.mean(axis=0)
    s1 = np.cov(a, rowvar=False)
    s2 = np.cov(b, rowvar=False)
    s1 = np.atleast_2d(s1)
    s2 = np.atleast_2d(s2)
    diff = mu1 - mu2
    # tr((S1 S2)^{1/2}) is the sum of square roots of the eigenvalues of S1 S2,
    # which are real and >= 0 for PSD S1, S2; drop round-off below that.
    eig = np.linalg.eigvals(s1 @ s2).real
    tr_covmean = np.sqrt(np.clip(eig, 0.0, None)).sum()
    return float(diff @ diff + np.trace(s1) + np.trace(s2) - 2.0 * tr_covmean)


def feature_distance(generated_images, reference_images, extractor=None) -> float:
    """Frechet distance between feature populations of two render sets.

    `extractor` is any object with `features(images) -> (n, dim)` array;
    the default is RandomProjectionExtractor(). Both sets go through one
    `features` call, generated first, so the projection is drawn once and
    an image index in its errors counts the reference images after the
    generated ones."""
    if extractor is None:
        extractor = RandomProjectionExtractor()
    generated_images = list(generated_images)
    feats = extractor.features(generated_images + list(reference_images))
    n = len(generated_images)
    return frechet_gaussian_distance(feats[:n], feats[n:])


# ---------------------------------------------------------------------------
# report


@dataclass
class MetricReport:
    scalars: dict = field(default_factory=dict)
    per_sample: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"scalars": self.scalars, "per_sample": self.per_sample, "meta": self.meta},
            indent=2,
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [f"{k:>18s}: {v:.6f}" for k, v in sorted(self.scalars.items())]
        lines += [f"{k:>18s}: {v}" for k, v in sorted(self.meta.items())]
        return "\n".join(lines)


def _finish_report(report, generated, reference, images_generated, images_reference,
                   extractor) -> MetricReport:
    """Add the feature distance when renders are supplied, then the meta: the
    corpus sizes and a hash of the canonical records of both corpora plus the
    feature extractor's parameters."""
    inputs = {"generated": [_record_dict(r) for r in generated],
              "reference": [_record_dict(r) for r in reference]}
    if images_generated is not None and images_reference is not None:
        if extractor is None:
            extractor = RandomProjectionExtractor()
        report.scalars["feature_distance"] = feature_distance(
            images_generated, images_reference, extractor
        )
        inputs["extractor"] = {"dim": getattr(extractor, "dim", None),
                               "seed": getattr(extractor, "seed", None)}
    report.meta = {
        "n_generated": len(generated),
        "n_reference": len(reference),
        "config_hash": hashlib.sha256(_dump(inputs).encode()).hexdigest()[:12],
    }
    return report


def evaluate_layout_corpora(generated, reference, images_generated=None,
                            images_reference=None, extractor=None) -> MetricReport:
    """Full layout metric suite; feature distance only when renders supplied."""
    generated, reference = list(generated), list(reference)
    report = MetricReport()
    # max_iou rejects an empty corpus, so each mean below has a layout to average
    report.scalars["max_iou"] = max_iou(generated, reference)
    report.scalars["docsim"] = docsim(generated, reference)
    for name, score in (("alignment", alignment_score), ("overlap", overlap_score)):
        report.per_sample[name] = [score([g]) for g in generated]
        report.scalars[name] = float(np.mean(report.per_sample[name]))
    return _finish_report(report, generated, reference, images_generated,
                          images_reference, extractor)


def evaluate_segment_corpora(generated, reference, images_generated=None,
                             images_reference=None, extractor=None) -> MetricReport:
    generated, reference = list(generated), list(reference)
    report = MetricReport()
    report.scalars["difference"] = difference_score(generated, reference)
    return _finish_report(report, generated, reference, images_generated,
                          images_reference, extractor)
