"""Domain types for layouts and line segments, and the token codec.

Every layout element is encoded as a flat 16-vector (a flattened 4x4 tile):
entries 0-3 hold the normalized box (x, y, h, w), entries 4-5 hold the
normalized scene height/width, entries 6-7 are fixed filler (-1), and
entries 8-15 carry the category as an 8-bit +/-1 code (LSB first).

Line segments use the same 16-wide rows: entries 0-3 hold the two endpoint
coordinates mapped to [-1, 1], entry 4 acts as a PAD sentinel (+1 on PAD
rows, -1 on real rows), and everything else is fixed at -1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

TOKEN_DIM = 16
CATEGORY_BITS = 8
PAD_CATEGORY = 0
MAX_CATEGORY = 255

# index layout of a token row
BOX_SLICE = slice(0, 4)
SIZE_SLICE = slice(2, 4)  # the box's (h, w)
SCENE_H_IDX = 4
SCENE_W_IDX = 5
FILLER_SLICE = slice(6, 8)
CAT_SLICE = slice(8, 16)
SEG_PAD_IDX = 4  # segment-mode PAD sentinel entry


class ValidationError(ValueError):
    """A domain value violates its invariants; `field` names the offender."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require_integers(cfg, names, error=ValidationError) -> None:
    """Raise error(message, field=name) for the first of the named fields of
    cfg that is not an int or numpy integer. These fields size arrays or
    count steps, so a bool or a float such as a JSON 16.0 is refused, not
    used."""
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{name} must be an integer, got {value!r}", field=name)


class CapacityError(ValueError):
    """More elements than the configured token count."""

    def __init__(self, message, count=None, capacity=None):
        super().__init__(message)
        self.count = count
        self.capacity = capacity


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: bottom-left corner (x, y), extent (h, w), category c."""

    x: float
    y: float
    h: float
    w: float
    c: int

    def __post_init__(self):
        if not (self.h >= 0):
            raise ValidationError(f"box height must be >= 0, got {self.h}", field="h")
        if not (self.w >= 0):
            raise ValidationError(f"box width must be >= 0, got {self.w}", field="w")
        if not (1 <= self.c <= MAX_CATEGORY):
            raise ValidationError(
                f"category must be in [1, {MAX_CATEGORY}] (0 is PAD), got {self.c}",
                field="c",
            )


@dataclass(frozen=True)
class Layout:
    """A scene of category-labeled boxes with global dimensions H x W."""

    H: float
    W: float
    boxes: tuple[BoundingBox, ...] = ()

    def __post_init__(self):
        if not (self.H > 0):
            raise ValidationError(f"scene height must be > 0, got {self.H}", field="H")
        if not (self.W > 0):
            raise ValidationError(f"scene width must be > 0, got {self.W}", field="W")
        object.__setattr__(self, "boxes", tuple(self.boxes))


@dataclass(frozen=True)
class Segment:
    """A line segment with normalized endpoint coordinates in [0, 1]."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            v = getattr(self, name)
            if not np.isfinite(v) or not (0.0 <= v <= 1.0):
                raise ValidationError(
                    f"segment coordinate {name}={v} must be finite and in [0, 1]",
                    field=name,
                )


@dataclass(frozen=True)
class DatasetConfig:
    """Token-count and normalization constants shared by a corpus."""

    n_max: int = 16
    num_categories: int = 5
    mode: str = "layout"  # "layout" | "segment"
    h_max: float = 1.0
    w_max: float = 1.0

    def __post_init__(self):
        require_integers(self, ("n_max", "num_categories"))
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}", field="n_max")
        if not (1 <= self.num_categories <= MAX_CATEGORY):
            raise ValidationError(
                f"num_categories must be in [1, {MAX_CATEGORY}], got {self.num_categories}",
                field="num_categories",
            )
        if self.mode not in ("layout", "segment"):
            raise ValidationError(f"unknown mode {self.mode!r}", field="mode")
        if not (self.h_max > 0 and self.w_max > 0):
            raise ValidationError("normalization bounds must be positive", field="h_max")


def normalize_box(box: BoundingBox, layout: Layout) -> np.ndarray:
    """Map a box inside an H x W scene to the [-1, 1]^4 vector (x, y, h, w)."""
    H, W = layout.H, layout.W
    for name, value, bound in (
        ("x", box.x, W),
        ("y", box.y, H),
        ("h", box.h, H),
        ("w", box.w, W),
    ):
        if not (0.0 <= value <= bound):
            raise ValidationError(
                f"box field {name}={value} outside scene bound [0, {bound}]",
                field=name,
            )
    return np.array(
        [
            2.0 * box.x / W - 1.0,
            2.0 * box.y / H - 1.0,
            2.0 * box.h / H - 1.0,
            2.0 * box.w / W - 1.0,
        ]
    )


def _scene_units(v, H: float, W: float) -> np.ndarray:
    """Box entries (x, y, h, w) in [-1, 1] in the units of an H x W scene; an
    (n, 4) stack of boxes comes back as the four columns."""
    return ((np.asarray(v, dtype=float) + 1.0) * (W, H, H, W) / 2.0).T


def denormalize_box(v, layout_h: float, layout_w: float, c: int) -> BoundingBox:
    """Inverse of normalize_box; expects v already clamped to [-1, 1]. A box
    past the scene's far edge keeps its decoded h and w and is moved inside:
    x = min(x, W - w), y = min(y, H - h). As w <= W, x stays >= 0."""
    x, y, h, w = _scene_units(v, layout_h, layout_w).tolist()
    return BoundingBox(x=min(x, layout_w - w), y=min(y, layout_h - h), h=h, w=w, c=c)


def encode_category(c: int) -> np.ndarray:
    """8-bit +/-1 code of a category id, least-significant bit first."""
    if not (0 <= c <= MAX_CATEGORY):
        raise ValidationError(f"category id {c} outside [0, {MAX_CATEGORY}]", field="c")
    bits = (int(c) >> np.arange(CATEGORY_BITS)) & 1
    return bits * 2.0 - 1.0


def decode_category(v) -> int:
    """Inverse of encode_category; thresholds at 0 (entry > 0 means bit 1)."""
    v = np.asarray(v, dtype=float)
    bits = (v > 0).astype(int)
    return int(np.dot(bits, 1 << np.arange(CATEGORY_BITS)))


def _pad_token_layout(h_norm: float, w_norm: float) -> np.ndarray:
    row = np.full(TOKEN_DIM, -1.0)
    row[SCENE_H_IDX] = h_norm
    row[SCENE_W_IDX] = w_norm
    row[CAT_SLICE] = encode_category(PAD_CATEGORY)
    return row


def tokenize_layout(layout: Layout, cfg: DatasetConfig) -> np.ndarray:
    """Encode a layout as an (n_max, 16) matrix; trailing rows are PAD."""
    if len(layout.boxes) > cfg.n_max:
        raise CapacityError(
            f"layout has {len(layout.boxes)} boxes but n_max is {cfg.n_max}",
            count=len(layout.boxes),
            capacity=cfg.n_max,
        )
    h_norm = 2.0 * layout.H / cfg.h_max - 1.0
    w_norm = 2.0 * layout.W / cfg.w_max - 1.0
    m = np.tile(_pad_token_layout(h_norm, w_norm), (cfg.n_max, 1))
    for i, box in enumerate(layout.boxes):
        m[i, BOX_SLICE] = normalize_box(box, layout)
        m[i, CAT_SLICE] = encode_category(box.c)
    return m


def _median(col) -> float:
    """np.median of a nonempty 1-D array, NaN if any value is NaN. Written
    out because numpy's first np.median in a process imports numpy.ma."""
    s = np.sort(col)
    mid = s.size // 2
    if np.isnan(s[-1]):  # sorting puts NaN last
        return float(s[-1])
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def detokenize_layout(m, cfg: DatasetConfig) -> Layout:
    """Decode an (n_max, 16) matrix back to a layout.

    Total by design: out-of-range entries are clamped to [-1, 1], categories
    are sign-thresholded, rows decoding to the PAD category are dropped, any
    other code c is folded into the vocabulary as (c - 1) % num_categories + 1,
    and a box past its scene's far edge is moved inside (see denormalize_box).
    The counts of clamped entries, folded codes and moved boxes are logged at
    debug level.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (cfg.n_max, TOKEN_DIM):
        raise ValidationError(
            f"token matrix shape {m.shape} != ({cfg.n_max}, {TOKEN_DIM})"
        )
    n_clamped = int(np.sum((m[:, :6] < -1.0) | (m[:, :6] > 1.0)))
    geo = np.clip(m[:, :6], -1.0, 1.0)
    # the scene dims are replicated on every row; the median is exact on clean
    # data and robust on generated data
    H = (_median(geo[:, SCENE_H_IDX]) + 1.0) * cfg.h_max / 2.0
    W = (_median(geo[:, SCENE_W_IDX]) + 1.0) * cfg.w_max / 2.0
    H = max(H, 1e-6 * cfg.h_max)
    W = max(W, 1e-6 * cfg.w_max)
    x, y, h, w = _scene_units(geo[:, BOX_SLICE], H, W)
    moved = (x > W - w) | (y > H - h)
    boxes = []
    n_folded = n_moved = 0
    for i in range(cfg.n_max):
        code = decode_category(m[i, CAT_SLICE])
        if code == PAD_CATEGORY:
            continue
        c = (code - 1) % cfg.num_categories + 1
        boxes.append(denormalize_box(geo[i, BOX_SLICE], H, W, c))
        n_folded += c != code
        n_moved += moved[i]
    if n_clamped or n_folded or n_moved:
        logger.debug("detokenize_layout clamped %d entries, folded %d category codes, "
                     "moved %d boxes inside the scene", n_clamped, n_folded, n_moved)
    return Layout(H=H, W=W, boxes=tuple(boxes))


def tokenize_segments(segments, cfg: DatasetConfig) -> np.ndarray:
    """Encode a sequence of segments as an (n_max, 16) matrix.

    Real rows carry (2x1-1, 2y1-1, 2x2-1, 2y2-1) and -1 everywhere else;
    PAD rows flip entry 4 to +1 so the segment count survives a roundtrip.
    """
    segments = tuple(segments)
    if len(segments) > cfg.n_max:
        raise CapacityError(
            f"{len(segments)} segments exceed n_max {cfg.n_max}",
            count=len(segments),
            capacity=cfg.n_max,
        )
    m = np.full((cfg.n_max, TOKEN_DIM), -1.0)
    m[len(segments):, SEG_PAD_IDX] = 1.0
    for i, s in enumerate(segments):
        m[i, 0] = 2.0 * s.x1 - 1.0
        m[i, 1] = 2.0 * s.y1 - 1.0
        m[i, 2] = 2.0 * s.x2 - 1.0
        m[i, 3] = 2.0 * s.y2 - 1.0
    return m


def detokenize_segments(m, cfg: DatasetConfig) -> tuple[Segment, ...]:
    """Decode an (n_max, 16) matrix back to segments, dropping PAD rows."""
    m = np.asarray(m, dtype=float)
    if m.shape != (cfg.n_max, TOKEN_DIM):
        raise ValidationError(
            f"token matrix shape {m.shape} != ({cfg.n_max}, {TOKEN_DIM})"
        )
    out = []
    for row in m:
        if row[SEG_PAD_IDX] > 0:
            continue
        v = np.clip(row[:4], -1.0, 1.0)
        out.append(
            Segment(
                x1=float((v[0] + 1.0) / 2.0),
                y1=float((v[1] + 1.0) / 2.0),
                x2=float((v[2] + 1.0) / 2.0),
                y2=float((v[3] + 1.0) / 2.0),
            )
        )
    return tuple(out)
