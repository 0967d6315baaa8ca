"""Deterministic SVG rendering for layouts, segment sets, and trajectories,
plus a minimal rasterizer (64 px by default) feeding the feature-distance proxy.

SVG output is plain text with fixed number formatting, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import os

import numpy as np

from .core import DatasetConfig, Layout, detokenize_layout, detokenize_segments
from .data import atomic_write_text

# deterministic palette, indexed by (category - 1) mod len
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

STROKE_WIDTH = 1.0
OPACITY = 0.6
CANVAS = 256  # canvas size for segment sets (unit-square coordinates)


def fill(category: int) -> str:
    """The palette colour of a category code; codes past the palette wrap."""
    return PALETTE[(category - 1) % len(PALETTE)]


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def render_svg(item) -> str:
    """Render a Layout or a sequence of Segments as an SVG 1.1 document."""
    if isinstance(item, Layout):
        return _render_layout(item)
    return _render_segments(item)


def _svg_open(w, h):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">\n'
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="#ffffff"/>\n'
    )


def _render_layout(layout: Layout) -> str:
    # scene origin is bottom-left; SVG's is top-left, so flip y
    parts = [_svg_open(layout.W, layout.H)]
    for b in layout.boxes:
        y_svg = layout.H - (b.y + b.h)
        parts.append(
            f'<rect x="{_fmt(b.x)}" y="{_fmt(y_svg)}" width="{_fmt(b.w)}" '
            f'height="{_fmt(b.h)}" fill="{fill(b.c)}" '
            f'fill-opacity="{_fmt(OPACITY)}" stroke="{fill(b.c)}" '
            f'stroke-width="{_fmt(STROKE_WIDTH)}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def _render_segments(segments) -> str:
    s = float(CANVAS)
    parts = [_svg_open(s, s)]
    for seg in segments:
        parts.append(
            f'<line x1="{_fmt(seg.x1 * s)}" y1="{_fmt((1.0 - seg.y1) * s)}" '
            f'x2="{_fmt(seg.x2 * s)}" y2="{_fmt((1.0 - seg.y2) * s)}" '
            f'stroke="#222222" stroke-width="{_fmt(STROKE_WIDTH)}"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


def render_trajectory(trajectory, data_cfg: DatasetConfig, outdir: str) -> list:
    """Write one SVG per (t, token matrix) snapshot of a trajectory from
    sampling.sample_tokens, named by diffusion steps completed.

    A trajectory starts at t = T - 1, so T is its first t plus one.
    Filenames zero-pad the step count so lexicographic order equals step
    order. Returns the written paths.
    """
    if not trajectory:
        raise ValueError("trajectory is empty")
    os.makedirs(outdir, exist_ok=True)
    T = trajectory[0][0] + 1
    width = max(4, len(str(T)))
    paths = []
    for t, matrix in trajectory:
        steps_done = T - 1 - t
        if data_cfg.mode == "segment":
            item = detokenize_segments(matrix, data_cfg)
        else:
            item = detokenize_layout(matrix, data_cfg)
        path = os.path.join(outdir, f"step_{steps_done:0{width}d}.svg")
        atomic_write_text(path, render_svg(item))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# minimal rasterizer for the feature-distance proxy, 64x64 by default: the
# projection of a 64 px render is 12288 x 32 (3 MiB, one block) where a
# 256 px render's is 48 MiB, and a 96 KiB render stays below glibc's mmap
# threshold, so it is not mapped and faulted in on every call. The price is
# resolution: a shift below one pixel (W / 64 scene units) may not show.

_HEX = {c: tuple(int(c[i : i + 2], 16) / 255.0 for i in (1, 3, 5)) for c in PALETTE}


def rasterize(item, size: int = 64) -> np.ndarray:
    """Rasterize a Layout or segment sequence to a (size, size, 3) float image
    in [0, 1], white background, row 0 at the top (matching the SVG)."""
    img = np.ones((size, size, 3))
    if isinstance(item, Layout):
        for b in item.boxes:
            x0 = int(min(max(round(b.x / item.W * size), 0), size))
            x1 = int(min(max(round((b.x + b.w) / item.W * size), 0), size))
            y1 = int(min(max(round((1.0 - b.y / item.H) * size), 0), size))
            y0 = int(min(max(round((1.0 - (b.y + b.h) / item.H) * size), 0), size))
            color = np.array(_HEX[fill(b.c)])
            img[y0:y1, x0:x1] = (1 - OPACITY) * img[y0:y1, x0:x1] + OPACITY * color
    else:
        for seg in item:
            n = 2 * size
            xs = np.linspace(seg.x1, seg.x2, n)
            ys = np.linspace(seg.y1, seg.y2, n)
            px = np.clip((xs * size).astype(int), 0, size - 1)
            py = np.clip(((1.0 - ys) * size).astype(int), 0, size - 1)
            img[py, px] = 0.13
    return img
