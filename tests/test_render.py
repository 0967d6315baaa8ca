import numpy as np
import pytest

from layoutdiff.core import BoundingBox, DatasetConfig, Layout, Segment
from layoutdiff.render import OPACITY, PALETTE, fill, render_svg, render_trajectory, rasterize

DCFG = DatasetConfig(n_max=4, num_categories=5, h_max=256.0, w_max=256.0)


def layout():
    return Layout(H=200.0, W=100.0, boxes=(
        BoundingBox(10.0, 20.0, 30.0, 40.0, 1),
        BoundingBox(50.0, 100.0, 25.0, 25.0, 7),
    ))


class TestRenderSvg:
    def test_deterministic(self):
        assert render_svg(layout()) == render_svg(layout())

    def test_one_rect_per_box_plus_background(self):
        svg = render_svg(layout())
        assert svg.count("<rect") == 3
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")

    def test_viewbox_matches_scene(self):
        svg = render_svg(layout())
        assert 'viewBox="0 0 100 200"' in svg

    def test_y_axis_flip(self):
        # box at y=20, h=30 in a 200-high scene sits at svg y = 150
        svg = render_svg(layout())
        assert '<rect x="10" y="150"' in svg

    def test_palette_wraps(self):
        assert fill(1) == PALETTE[0]
        assert fill(11) == PALETTE[0]
        assert fill(7) == PALETTE[6]

    def test_segments_render_lines(self):
        segs = [Segment(0.0, 0.0, 1.0, 1.0), Segment(0.5, 0.0, 0.5, 1.0)]
        svg = render_svg(segs)
        assert svg.count("<line") == 2
        # y flipped: y=0 is the bottom, drawn at canvas height
        assert 'x1="0" y1="256"' in svg

    def test_empty_layout_is_just_background(self):
        svg = render_svg(Layout(H=64.0, W=64.0))
        assert svg.count("<rect") == 1


class TestRenderTrajectory:
    def make_traj(self):
        rng = np.random.default_rng(0)
        return [(t, rng.uniform(-1, 1, (4, 16))) for t in (99, 49, -1)]

    def test_filenames_sorted_by_steps_done(self, tmp_path):
        """T = 100 is the first t plus one."""
        paths = render_trajectory(self.make_traj(), DCFG, str(tmp_path))
        names = [p.split("/")[-1] for p in paths]
        assert names == ["step_0000.svg", "step_0050.svg", "step_0100.svg"]
        assert names == sorted(names)

    def test_empty_trajectory_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_trajectory([], DCFG, str(tmp_path))

    def test_files_are_valid_svg(self, tmp_path):
        for p in render_trajectory(self.make_traj(), DCFG, str(tmp_path)):
            text = open(p).read()
            assert text.startswith('<?xml') and text.rstrip().endswith("</svg>")


class TestRasterize:
    def test_shape_and_range(self):
        img = rasterize(layout(), size=64)
        assert img.shape == (64, 64, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_empty_layout_is_white(self):
        img = rasterize(Layout(H=64.0, W=64.0), size=32)
        assert np.array_equal(img, np.ones((32, 32, 3)))

    def test_box_marks_pixels(self):
        lay = Layout(H=64.0, W=64.0,
                     boxes=(BoundingBox(0.0, 0.0, 32.0, 32.0, 1),))
        img = rasterize(lay, size=64)
        # bottom-left quarter of the scene = bottom-left of the image
        assert not np.allclose(img[32:, :32], 1.0)
        assert np.allclose(img[:32, 32:], 1.0)

    def test_segments_mark_pixels(self):
        img = rasterize([Segment(0.0, 0.0, 1.0, 1.0)], size=32)
        assert (img < 1.0).any()

    def test_deterministic(self):
        assert np.array_equal(rasterize(layout(), 32), rasterize(layout(), 32))

    def test_default_size_is_64(self):
        assert rasterize(layout()).shape == (64, 64, 3)


PALETTE_RGB = {c: tuple(int(c[i:i + 2], 16) / 255.0 for i in (1, 3, 5)) for c in PALETTE}


def _rasterize_layout_oracle(item, size):
    """The layout branch, clamping each edge with np.clip."""
    img = np.ones((size, size, 3))
    for b in item.boxes:
        x0 = int(np.clip(round(b.x / item.W * size), 0, size))
        x1 = int(np.clip(round((b.x + b.w) / item.W * size), 0, size))
        y1 = int(np.clip(round((1.0 - b.y / item.H) * size), 0, size))
        y0 = int(np.clip(round((1.0 - (b.y + b.h) / item.H) * size), 0, size))
        color = np.array(PALETTE_RGB[fill(b.c)])
        a = OPACITY
        img[y0:y1, x0:x1] = (1 - a) * img[y0:y1, x0:x1] + a * color
    return img


@pytest.mark.parametrize("size", [16, 64, 256])
def test_rasterize_clamps_like_np_clip(size):
    """Boxes past every edge of the scene (negative x and y, x + w > W,
    y + h > H), wholly outside it, and random ones give the oracle's bytes."""
    rng = np.random.default_rng(size)
    edges = (
        BoundingBox(-30.0, 40.0, 50.0, 60.0, 1),   # past the left edge
        BoundingBox(20.0, -25.0, 70.0, 30.0, 2),   # past the bottom edge
        BoundingBox(80.0, 90.0, 40.0, 55.0, 3),    # past the right edge
        BoundingBox(35.0, 170.0, 60.0, 20.0, 4),   # past the top edge
        BoundingBox(-10.0, -10.0, 230.0, 130.0, 5),  # past all four
        BoundingBox(-50.0, -60.0, 20.0, 30.0, 6),  # wholly outside
        BoundingBox(150.0, 250.0, 10.0, 10.0, 7),  # wholly outside
    )
    random = tuple(BoundingBox(*rng.uniform(-80.0, 260.0, 2), *rng.uniform(0.0, 150.0, 2),
                               int(rng.integers(1, 12))) for _ in range(40))
    for boxes in (edges, random):
        item = Layout(H=200.0, W=100.0, boxes=boxes)
        got = rasterize(item, size)
        assert got.tobytes() == _rasterize_layout_oracle(item, size).tobytes()
