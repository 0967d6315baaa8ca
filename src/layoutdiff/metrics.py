"""Evaluation metrics: alignment, overlap, MaxIoU, DocSim, the two-level
segment Difference score, the assignment wrapper they share, and a Frechet
feature distance standing in for FID. Its features are one fixed-seed
Gaussian random projection of the renders (project_features), drawn once per
call and applied to the renders a fixed batch at a time, so the renders of a
corpus are never held whole.

All box-level formulas operate on per-layout normalized coordinates in [0, 1].
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
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
    # a finite sum of squares means every entry is finite; only when it is
    # not (a non-finite entry, or an overflow) does the exact test run.
    # np.vdot checks no floating-point flags, so an overflow or inf - inf
    # raises no RuntimeWarning, and it is faster than isfinite + all
    if not math.isfinite(np.vdot(cost, cost)) and not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    n, m = cost.shape
    if n > m:
        raise ValueError(f"hungarian requires n <= m, got {n} x {m}")
    # imported here: scipy.optimize adds about 0.35 s to `import layoutdiff`,
    # which every CLI command pays, and only the metrics need it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    # np.add.reduce is the sum ndarray.sum runs, without its Python wrapper
    return list(zip(rows.tolist(), cols.tolist())), float(np.add.reduce(cost[rows, cols]))


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


def _best_matching(weights, na: int, nb: int) -> float:
    """Best max-weight matching total over max(na, nb) among the (na, nb)
    matrices of a (k, na, nb) stack, solving only the matrices that can win.

    A matrix's total is at most the sum of its row maxima, rows taken as
    max_weight_matching hands them to hungarian (the shorter side) and
    summed in the order of the numpy sum that gives hungarian's total: float
    addition is monotone, so no partial sum of the total exceeds the bound's.
    The matrices are solved in descending bound order until a bound is no
    more than the best total found, so the result is that of solving all."""
    bounds = weights.max(axis=-2 if na > nb else -1).sum(axis=-1)
    best = -np.inf
    for j in np.argsort(-bounds, kind="stable"):
        if bounds[j] <= best:
            break
        best = max(best, max_weight_matching(weights[j])[1])
    return best / max(na, nb)


# ---------------------------------------------------------------------------
# box geometry


def _intersections(a, b) -> np.ndarray:
    """(..., na, nb) intersection areas of (..., na, 4) and (..., nb, 4)
    arrays of (x, y, h, w) boxes; leading axes broadcast."""
    a, b = a[..., :, None, :], b[..., None, :, :]
    # columns 2:4 are (h, w), so the far corner is (x + w, y + h)
    lo = np.maximum(a[..., :2], b[..., :2])
    hi = np.minimum(a[..., :2] + a[..., [3, 2]], b[..., :2] + b[..., [3, 2]])
    return np.prod(np.maximum(hi - lo, 0.0), axis=-1)


def _areas(boxes) -> np.ndarray:
    return boxes[..., 2] * boxes[..., 3]


def _iou_matrix(a, b) -> np.ndarray:
    """(..., na, nb) IoU of (..., na, 4) and (..., nb, 4) box arrays; leading
    axes broadcast and degenerate pairs score 0."""
    inter = _intersections(a, b)
    union = _areas(a)[..., :, None] + _areas(b)[..., None, :] - inter
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


def _categories(layout: Layout) -> np.ndarray:
    return np.array([b.c for b in layout.boxes], dtype=np.int64)


def _stacks(items, keys) -> dict:
    """key -> ((k, n, 4) boxes, (k, n) category codes) of the k layouts that
    share the key, from each layout's ((n, 4) normalized boxes, (n,)
    category codes); layouts sharing a key must share their box count n."""
    groups = {}
    for item, key in zip(items, keys):
        groups.setdefault(key, []).append(item)
    return {key: tuple(np.stack(part) for part in zip(*group))
            for key, group in groups.items()}


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


def _best_maxiou(boxes, cats, ref_boxes, ref_cats) -> float:
    """Best MaxIoU pair score of one layout, given by its (na, 4) normalized
    boxes and (na,) category codes, against k references of nb boxes given
    as (k, nb, 4) boxes and (k, nb) category codes: category-constrained
    max-IoU matching over max(na, nb). Both layouts empty score 1.0, one
    empty 0.0."""
    na, nb = len(cats), ref_cats.shape[1]
    if na == 0 or nb == 0:
        return 1.0 if na == nb else 0.0
    same_category = cats[:, None] == ref_cats[:, None, :]
    return _best_matching(np.where(same_category, _iou_matrix(boxes, ref_boxes), 0.0), na, nb)


def _category_multiset(layout: Layout):
    return frozenset(Counter(b.c for b in layout.boxes).items())


def max_iou(generated, reference) -> float:
    """Mean over generated layouts of the best pair similarity against
    reference layouts sharing the same category multiset (all references if
    no multiset match exists). Each multiset pool, and the references of
    each box count, are scored against a generated layout in one broadcast."""
    generated, reference = list(generated), list(reference)
    if not generated or not reference:
        raise ValueError("both corpora must be nonempty")
    items = [(_norm_boxes(r), _categories(r)) for r in reference]
    pools = _stacks(items, [_category_multiset(r) for r in reference])
    everything = list(_stacks(items, [len(r.boxes) for r in reference]).values())
    scores = []
    for g in generated:
        pool = pools.get(_category_multiset(g))
        groups = everything if pool is None else [pool]
        boxes, cats = _norm_boxes(g), _categories(g)
        scores.append(max(_best_maxiou(boxes, cats, *group) for group in groups))
    return float(np.mean(scores))


def _best_docsim(boxes, ref_boxes) -> float:
    """Best DocSim pair score of one layout's (na, 4) normalized boxes
    against k references given as (k, nb, 4) boxes; 0.0 if either side is
    empty."""
    na, nb = len(boxes), ref_boxes.shape[1]
    if na == 0 or nb == 0:
        return 0.0
    ca = boxes[:, :2] + boxes[:, [3, 2]] / 2
    cb = ref_boxes[..., :2] + ref_boxes[..., [3, 2]] / 2
    alpha = np.sqrt(np.minimum(_areas(boxes)[:, None], _areas(ref_boxes)[:, None, :]))
    dc = np.linalg.norm(ca[:, None, :] - cb[:, None, :, :], axis=-1)
    ds = np.abs(boxes[:, None, 2:] - ref_boxes[:, None, :, 2:]).sum(axis=-1)
    return _best_matching(alpha * 2.0 ** (-dc - 2.0 * ds), na, nb)


def docsim(generated, reference) -> float:
    """Mean over generated layouts of the best DocSim pair score. The
    references of each box count are scored against a generated layout in
    one broadcast."""
    generated, reference = list(generated), list(reference)
    if not generated or not reference:
        raise ValueError("both corpora must be nonempty")
    items = [(_norm_boxes(r), _categories(r)) for r in reference]
    groups = [boxes for boxes, _ in _stacks(items, [len(r.boxes) for r in reference]).values()]
    return float(np.mean([
        max(_best_docsim(_norm_boxes(g), ref_boxes) for ref_boxes in groups) for g in generated
    ]))


# ---------------------------------------------------------------------------
# segment difference


def segment_weight(l1: Segment, l2: Segment) -> float:
    """L1 distance between matched endpoints of two normalized segments."""
    return (
        abs(l1.x1 - l2.x1) + abs(l1.y1 - l2.y1) + abs(l1.x2 - l2.x2) + abs(l1.y2 - l2.y2)
    )


def _endpoints(segments) -> np.ndarray:
    """(k, 4) array of the (x1, y1, x2, y2) endpoints of k segments."""
    return np.array([[s.x1, s.y1, s.x2, s.y2] for s in segments],
                    dtype=np.float64).reshape(-1, 4)


def _segment_costs(a, b) -> np.ndarray:
    """(..., ka, kb) segment_weight of every segment pair of (..., ka, 4) and
    (..., kb, 4) endpoint arrays; leading axes broadcast."""
    return np.abs(a[..., :, None, :] - b[..., None, :, :]).sum(axis=-1)


def difference_score(set_a, set_b) -> float:
    """Two-level min-cost matching: segments within image pairs, then image
    pairs across the two collections; the score is the average matched
    inter-image weight. set_b is the reference: its first image sets the
    segment count k that every image on both sides must have."""
    set_a, set_b = list(set_a), list(set_b)
    if len(set_a) != len(set_b):
        raise ValueError(f"image counts differ: {len(set_a)} vs {len(set_b)}")
    if not set_a:
        return 0.0
    k = len(set_b[0])
    for side, images in (("A", set_a), ("B", set_b)):
        for idx, s in enumerate(images):
            if len(s) != k:
                raise ValueError(f"image {side}[{idx}] has {len(s)} segments, "
                                 f"expected {k} as in reference image B[0]")
    cost = np.zeros((len(set_a), len(set_b)))
    if k:
        ends_b = np.stack([_endpoints(s) for s in set_b])
        # one (|B|, k, k) block per image of A: the whole (|A|, |B|, k, k, 4)
        # difference would grow with both corpora at once
        for i, s in enumerate(set_a):
            cost[i] = [hungarian(c)[1] for c in _segment_costs(_endpoints(s), ends_b)]
    _, total = hungarian(cost)
    return total / len(set_a)


# ---------------------------------------------------------------------------
# Frechet feature distance


# Rows of the projection drawn, and summed over by one GEMM, at a time: the
# block boundaries fix the order of the sums, and so the features' bytes.
PROJECTION_BLOCK_ROWS = 16384
# Renders projected at a time, so a call holds at most 2 * IMAGE_BATCH - 1 of
# them. The last batch takes the remainder, so no GEMM has fewer rows unless
# there are fewer images. OpenBLAS 0.3.31 then gives each row the bytes of
# one GEMM over every image whenever both calls take its large-matrix
# kernel: at 64 and 256 px always, but not for a short last block (32 or
# 80 px renders), where a GEMM of few multiply-adds takes the small-matrix
# kernel and a feature can move by up to about 1e-14.
IMAGE_BATCH = 8
# a report's config_hash covers both
FEATURE_DIM = 32
FEATURE_SEED = 0


def _project_batch(flats, blocks) -> np.ndarray:
    """(len(flats), FEATURE_DIM) unscaled projections of flattened images,
    one GEMM per block of projection rows."""
    out = np.zeros((len(flats), FEATURE_DIM))
    lo = 0
    for block in blocks:
        out += np.stack([flat[lo:lo + len(block)] for flat in flats]) @ block
        lo += len(block)
    return out


def project_features(images) -> np.ndarray:
    """(n, FEATURE_DIM) features of an iterable of n images of one size: a
    Gaussian projection of each flattened image. Deterministic; NOT
    comparable with Inception FID. Raises ValueError naming the first image
    whose size differs from image 0's, or whose features are not finite.

    The (D, FEATURE_DIM) projection is drawn from default_rng(FEATURE_SEED)
    once per call, PROJECTION_BLOCK_ROWS rows at a time (successive draws
    from one generator give the numbers of one whole draw), held for the
    call (3 MiB for a 64 px render, 48 MiB at 256 px) and scaled by
    1/sqrt(D). The images are read as they come and projected IMAGE_BATCH
    at a time, so a generator of renders is never held whole."""
    blocks, parts, batch = [], [], []
    size = 0
    # overflow and NaN pixels show as non-finite features, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, im in enumerate(images):
            flat = np.asarray(im, dtype=np.float64).ravel()
            if i == 0:
                size = flat.size
                rng = np.random.default_rng(FEATURE_SEED)
                blocks = [rng.standard_normal((min(PROJECTION_BLOCK_ROWS, size - lo),
                                               FEATURE_DIM))
                          for lo in range(0, size, PROJECTION_BLOCK_ROWS)]
            elif flat.size != size:
                raise ValueError(f"image {i} has {flat.size} values, image 0 has {size}")
            batch.append(flat)
            if len(batch) == 2 * IMAGE_BATCH:
                parts.append(_project_batch(batch[:IMAGE_BATCH], blocks))
                del batch[:IMAGE_BATCH]
        if batch:
            parts.append(_project_batch(batch, blocks))
    out = np.concatenate(parts) if parts else np.zeros((0, FEATURE_DIM))
    out /= np.sqrt(size)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ValueError(f"image {bad[0]} has non-finite features")
    return out


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


def feature_distance(generated_images, reference_images) -> float:
    """Frechet distance between the project_features populations of two
    render sets, each any iterable of renders. Both sets go through one
    project_features call, generated first, so the projection is drawn once
    and an image index in its errors counts the reference images after the
    generated ones."""
    n_generated = 0

    def generated():
        nonlocal n_generated
        for image in generated_images:
            n_generated += 1
            yield image

    feats = project_features(itertools.chain(generated(), reference_images))
    return frechet_gaussian_distance(feats[:n_generated], feats[n_generated:])


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


def _finish_report(report, generated, reference, images_generated,
                   images_reference) -> MetricReport:
    """Add the feature distance when renders are supplied, then the meta: the
    corpus sizes, the render shape, and a hash of the canonical records of
    both corpora plus the render shape and the projection's FEATURE_DIM and
    FEATURE_SEED. Renders for one side only raise ValueError naming the
    missing one."""
    inputs = {"generated": [_record_dict(r) for r in generated],
              "reference": [_record_dict(r) for r in reference]}
    meta = {"n_generated": len(generated), "n_reference": len(reference)}
    if (images_generated is None) != (images_reference is None):
        missing = "images_generated" if images_generated is None else "images_reference"
        raise ValueError(f"renders were given for one side only: {missing} is missing")
    if images_generated is not None:
        images_generated = iter(images_generated)
        first = list(itertools.islice(images_generated, 1))
        report.scalars["feature_distance"] = feature_distance(
            itertools.chain(first, images_generated), images_reference)
        # feature_distance has checked that every render has image 0's size,
        # and needs 2 renders a side, so `first` holds one
        meta["render_shape"] = inputs["render_shape"] = list(np.shape(first[0]))
        inputs["extractor"] = {"dim": FEATURE_DIM, "seed": FEATURE_SEED}
    meta["config_hash"] = hashlib.sha256(_dump(inputs).encode()).hexdigest()[:12]
    report.meta = meta
    return report


def evaluate_layout_corpora(generated, reference, images_generated=None,
                            images_reference=None) -> MetricReport:
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
                          images_reference)


def evaluate_segment_corpora(generated, reference, images_generated=None,
                             images_reference=None) -> MetricReport:
    generated, reference = list(generated), list(reference)
    report = MetricReport()
    report.scalars["difference"] = difference_score(generated, reference)
    return _finish_report(report, generated, reference, images_generated,
                          images_reference)
