"""Canonical dataset file format, converters, and synthetic corpora.

The canonical format is line-oriented JSON: a header object on the first
line, one record object per subsequent line. Field order is normalized
(sorted keys, compact separators) so loader output re-serializes byte for
byte.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .core import BoundingBox, DatasetConfig, Layout, Segment, ValidationError, normalize_box

FORMAT_VERSION = 1
# header fields besides the version, one per DatasetConfig field
HEADER_KEYS = ("mode", "n_max", "num_categories", "h_max", "w_max")
# record fields by mode; any record may also carry a "split" tag
RECORD_KEYS = {"layout": ("H", "W", "boxes"), "segment": ("segments",)}
# train / val / test shares of a converted corpus
SPLITS = (0.85, 0.05, 0.10)


class FormatError(ValueError):
    """A corpus file's fault; load_canonical raises it as
    "<path>: line N: <message>", with N in .line."""

    def __init__(self, message, line=None, path=None):
        self.message, self.line = message, line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(f"{path}: {message}" if path is not None else message)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file + rename so interrupted runs leave no partials."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header_dict(cfg: DatasetConfig) -> dict:
    return {
        "version": FORMAT_VERSION,
        "mode": cfg.mode,
        "n_max": cfg.n_max,
        "num_categories": cfg.num_categories,
        "h_max": cfg.h_max,
        "w_max": cfg.w_max,
    }


def _record_dict(item, split=None) -> dict:
    if isinstance(item, Layout):
        rec = {
            "H": item.H,
            "W": item.W,
            "boxes": [[b.x, b.y, b.h, b.w, b.c] for b in item.boxes],
        }
    else:
        rec = {"segments": [[s.x1, s.y1, s.x2, s.y2] for s in item]}
    if split is not None:
        rec["split"] = split
    return rec


def _check_record(item, cfg: DatasetConfig) -> None:
    """Raise ValidationError unless item is a record of cfg's corpus that
    tokenizes: in layout mode a Layout whose boxes have categories in
    [1, num_categories] and lie inside the scene as normalize_box requires,
    in segment mode a sequence of Segments; at most n_max of either."""
    if cfg.mode == "layout":
        if not isinstance(item, Layout):
            raise ValidationError(f"a {type(item).__name__} is not a layout")
        for b in item.boxes:
            if not 1 <= b.c <= cfg.num_categories:
                raise ValidationError(f"category {b.c} outside [1, {cfg.num_categories}]",
                                      field="c")
            normalize_box(b, item)
        count, kind = len(item.boxes), "boxes"
    else:
        if isinstance(item, Layout) or not all(isinstance(s, Segment) for s in item):
            raise ValidationError(f"a {type(item).__name__} is not a sequence of segments")
        count, kind = len(item), "segments"
    if count > cfg.n_max:
        raise ValidationError(f"{count} {kind} exceed n_max {cfg.n_max}")


def serialize_canonical(cfg: DatasetConfig, records, splits=None) -> str:
    """The canonical text of a corpus. A record that load_canonical would
    refuse raises ValueError naming its index."""
    records = list(records)
    for i, r in enumerate(records):
        try:
            _check_record(r, cfg)
        except ValueError as e:
            raise ValueError(f"record {i}: {e}") from e
    if splits is None:
        splits = [None] * len(records)
    lines = [_dump(_header_dict(cfg))]
    lines += [_dump(_record_dict(r, s)) for r, s in zip(records, splits)]
    return "\n".join(lines) + "\n"


def save_canonical(path: str, cfg: DatasetConfig, records, splits=None) -> None:
    """Write a corpus atomically; a record that load_canonical would refuse
    raises ValueError naming its index before anything is written."""
    atomic_write_text(path, serialize_canonical(cfg, records, splits))


def _category(c):
    """A record's category as written; a bool or a float such as 2.7 is
    refused, as the record would not re-serialize byte for byte."""
    if isinstance(c, bool) or not isinstance(c, int):
        raise ValidationError(f"category {c!r} is not an integer", field="c")
    return c


def _parse_record(rec: dict, cfg: DatasetConfig, line_no):
    try:
        unknown = sorted(rec.keys() - {*RECORD_KEYS[cfg.mode], "split"})
        if unknown:
            raise ValidationError(f"record has unknown key {', '.join(map(repr, unknown))}")
        if cfg.mode == "layout":
            boxes = tuple(BoundingBox(x, y, h, w, _category(c)) for x, y, h, w, c in rec["boxes"])
            item = Layout(H=rec["H"], W=rec["W"], boxes=boxes)
        else:
            item = tuple(Segment(*s) for s in rec["segments"])
        _check_record(item, cfg)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(str(e), line=line_no) from e
    return item


def load_canonical(path: str, split: str | None = None):
    """Load (DatasetConfig, records[, filtered by split]); a fault raises
    FormatError naming path and its 1-based line."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    try:
        return _parse_canonical(lines, split)
    except FormatError as e:
        raise FormatError(e.message, line=e.line, path=path) from e


def _parse_canonical(lines, split):
    if not lines:
        raise FormatError("empty file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed header JSON: {e}", line=1) from e
    if not isinstance(header, dict):
        raise FormatError(f"header is a JSON {type(header).__name__}, not an object", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"format version {header.get('version')} != {FORMAT_VERSION}", line=1
        )
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise FormatError(f"header has no {', '.join(map(repr, missing))}", line=1)
    unknown = sorted(header.keys() - {"version", *HEADER_KEYS})
    if unknown:
        raise FormatError(f"header has unknown key {', '.join(map(repr, unknown))}", line=1)
    try:
        cfg = DatasetConfig(**{k: header[k] for k in HEADER_KEYS})
    except (TypeError, ValueError) as e:
        raise FormatError(f"header: {e}", line=1) from e
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"malformed JSON: {e}", line=i) from e
        if not isinstance(rec, dict):
            raise FormatError(f"record is a JSON {type(rec).__name__}, not an object", line=i)
        if split is not None and rec.get("split") not in (split, None):
            continue
        records.append(_parse_record(rec, cfg, i))
    return cfg, records


# ---------------------------------------------------------------------------
# detection-annotation converter


def convert_publaynet_like(annotations: dict, n_max=16, num_categories=5, seed=0):
    """Convert a detection-style annotation dict to a canonical corpus.

    Expects {"images": [{"id", "height", "width"}], "annotations":
    [{"image_id", "bbox": [x, y, w, h] (top-left origin), "category_id"}]}.
    Source boxes are flipped to a bottom-left origin. A layout with more
    than n_max elements, or with a box that does not lie inside its image (a
    field outside it, as normalize_box checks, or a right or top edge past
    it), is dropped whole and counted, never truncated or clipped. The kept
    layouts are tagged train / val / test in the SPLITS shares, in a seeded
    random order.

    Returns (DatasetConfig, layouts, split_tags, dropped), where dropped maps
    each reason, "oversize" and "outside_image", to its count.
    """
    images = {im["id"]: im for im in annotations["images"]}
    boxes_by_image = {}
    for ann in annotations["annotations"]:
        c = int(ann["category_id"])
        if not (1 <= c <= num_categories):
            raise ValidationError(f"unknown category id {c}", field="category_id")
        boxes_by_image.setdefault(ann["image_id"], []).append(ann)
    h_max = max((im["height"] for im in images.values()), default=1.0)
    w_max = max((im["width"] for im in images.values()), default=1.0)
    cfg = DatasetConfig(
        n_max=n_max, num_categories=num_categories, mode="layout",
        h_max=float(h_max), w_max=float(w_max),
    )
    layouts = []
    dropped = {"oversize": 0, "outside_image": 0}
    for image_id in sorted(images):
        im = images[image_id]
        anns = boxes_by_image.get(image_id, [])
        if len(anns) > n_max:
            dropped["oversize"] += 1
            continue
        H, W = float(im["height"]), float(im["width"])
        boxes = []
        # normalize_box bounds each field alone; the far edges are checked
        # here, on the source values, since sampled boxes may cross them
        inside = True
        for ann in anns:
            x, y_top, w, h = (float(v) for v in ann["bbox"])
            inside = inside and x + w <= W and y_top >= 0.0
            boxes.append(
                BoundingBox(x=x, y=H - (y_top + h), h=h, w=w, c=int(ann["category_id"]))
            )
        layout = Layout(H=H, W=W, boxes=tuple(boxes))
        try:
            for b in boxes:
                normalize_box(b, layout)
        except ValidationError:
            inside = False
        if not inside:
            dropped["outside_image"] += 1
            continue
        layouts.append(layout)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(layouts))
    n_train = int(round(SPLITS[0] * len(layouts)))
    n_val = int(round(SPLITS[1] * len(layouts)))
    tags = [""] * len(layouts)
    for rank, idx in enumerate(order):
        tags[idx] = "train" if rank < n_train else ("val" if rank < n_train + n_val else "test")
    return cfg, layouts, tags, dropped


# ---------------------------------------------------------------------------
# synthetic corpora


def synth_layout_corpus(seed: int, n: int, style: str = "columns",
                        n_max: int = 8, num_categories: int = 5):
    """Deterministic well-aligned, non-overlapping layouts.

    By construction both the alignment and the overlap scores are exactly 0:
    boxes tile grid cells or column slots, sharing edges and never
    intersecting. Coordinates land on a 1/1024 grid of a power-of-two scene,
    so the token codec roundtrips exactly.

    Returns (DatasetConfig, layouts).
    """
    if n < 1:
        raise ValueError(f"corpus size must be >= 1, got {n}")
    if style not in ("grid", "columns"):
        raise ValueError(f"unknown style {style!r}")
    rng = np.random.default_rng(seed)
    cfg = DatasetConfig(
        n_max=n_max, num_categories=num_categories, mode="layout",
        h_max=256.0, w_max=256.0,
    )
    q = 1024  # coordinate grid denominator
    layouts = []
    for _ in range(n):
        H = W = 256.0
        boxes = []
        if style == "grid":
            rows = int(rng.integers(2, 4))
            cols = max(2, min(n_max // rows, int(rng.integers(2, 4))))
            rows = min(rows, n_max // cols)
            cell_h = (q // rows) / q * H
            cell_w = (q // cols) / q * W
            pad_h = (q // (rows * 16)) / q * H
            pad_w = (q // (cols * 16)) / q * W
            for r in range(rows):
                for c in range(cols):
                    boxes.append(BoundingBox(
                        x=c * cell_w + pad_w, y=r * cell_h + pad_h,
                        h=cell_h - 2 * pad_h, w=cell_w - 2 * pad_w,
                        c=int(rng.integers(1, num_categories + 1)),
                    ))
        else:  # columns: two columns of stacked, left-aligned boxes
            per_col = max(2, n_max // 2)
            col_w = 112.0  # 448/1024 * 256
            margins = (16.0, 128.0)
            slot_h = (q // per_col) / q * H
            for col in range(2):
                x0 = margins[col]
                for s in range(per_col):
                    gap = 8.0
                    boxes.append(BoundingBox(
                        x=x0, y=s * slot_h + gap,
                        h=slot_h - 2 * gap, w=col_w,
                        c=int(rng.integers(1, num_categories + 1)),
                    ))
        layouts.append(Layout(H=H, W=W, boxes=tuple(boxes[:n_max])))
    return cfg, layouts


def synth_segment_corpus(seed: int, n: int, k_segments: int = 8, n_max: int = 8):
    """Deterministic room-like segment sets: an axis-aligned rectangle plus
    rectilinear partitions and a few diagonals; k segments per image, all
    coordinates in [0, 1] on a 1/1024 grid."""
    if n < 1:
        raise ValueError(f"corpus size must be >= 1, got {n}")
    if k_segments < 1:
        raise ValueError(f"k_segments must be >= 1, got {k_segments}")
    if k_segments > n_max:
        raise ValueError(f"k_segments {k_segments} exceeds n_max {n_max}")
    rng = np.random.default_rng(seed)
    cfg = DatasetConfig(n_max=n_max, num_categories=1, mode="segment",
                        h_max=1.0, w_max=1.0)
    out = []

    def snap(v):
        return float(np.round(v * 1024) / 1024)

    for _ in range(n):
        x0, y0 = snap(rng.uniform(0.05, 0.2)), snap(rng.uniform(0.05, 0.2))
        x1, y1 = snap(rng.uniform(0.8, 0.95)), snap(rng.uniform(0.8, 0.95))
        segs = [
            Segment(x0, y0, x1, y0), Segment(x1, y0, x1, y1),
            Segment(x1, y1, x0, y1), Segment(x0, y1, x0, y0),
        ]
        while len(segs) < k_segments:
            if rng.random() < 0.7:  # rectilinear partition wall
                if rng.random() < 0.5:
                    xm = snap(rng.uniform(x0, x1))
                    segs.append(Segment(xm, y0, xm, y1))
                else:
                    ym = snap(rng.uniform(y0, y1))
                    segs.append(Segment(x0, ym, x1, ym))
            else:  # diagonal
                segs.append(Segment(
                    snap(rng.uniform(x0, x1)), snap(rng.uniform(y0, y1)),
                    snap(rng.uniform(x0, x1)), snap(rng.uniform(y0, y1)),
                ))
        out.append(tuple(segs[:k_segments]))
    return cfg, out
