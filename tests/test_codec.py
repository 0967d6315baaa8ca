import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import layoutdiff
from layoutdiff.core import (
    BoundingBox,
    CapacityError,
    DatasetConfig,
    Layout,
    Segment,
    ValidationError,
    decode_category,
    detokenize_layout,
    detokenize_segments,
    encode_category,
    normalize_box,
    tokenize_layout,
    tokenize_segments,
)
from layoutdiff.core import _median

CFG = DatasetConfig(n_max=8, num_categories=5, h_max=256.0, w_max=256.0)
SEG_CFG = DatasetConfig(n_max=8, num_categories=1, mode="segment")


def dyadic_layout(rng, n_boxes, scene=256.0):
    """Coordinates on a 1/1024 grid of a power-of-two scene roundtrip exactly."""
    boxes = []
    for _ in range(n_boxes):
        x = rng.integers(0, 513) / 1024 * scene
        y = rng.integers(0, 513) / 1024 * scene
        h = rng.integers(1, 512) / 1024 * scene
        w = rng.integers(1, 512) / 1024 * scene
        boxes.append(BoundingBox(x=x, y=y, h=h, w=w, c=int(rng.integers(1, 6))))
    return Layout(H=scene, W=scene, boxes=tuple(boxes))


class TestNormalizeBox:
    def test_full_scene_box(self):
        layout = Layout(H=100.0, W=200.0)
        v = normalize_box(BoundingBox(0, 0, 100.0, 200.0, 1), layout)
        assert np.array_equal(v, [-1.0, -1.0, 1.0, 1.0])

    def test_center_point(self):
        layout = Layout(H=100.0, W=200.0)
        v = normalize_box(BoundingBox(100.0, 50.0, 0.0, 0.0, 1), layout)
        assert np.array_equal(v, [0.0, 0.0, -1.0, -1.0])

    def test_affine_maps(self):
        layout = Layout(H=100.0, W=200.0)
        v = normalize_box(BoundingBox(10.0, 20.0, 30.0, 40.0, 1), layout)
        assert np.allclose(v, [-0.9, -0.6, -0.4, -0.6])

    def test_out_of_scene_rejected_with_field(self):
        layout = Layout(H=100.0, W=200.0)
        with pytest.raises(ValidationError) as exc:
            normalize_box(BoundingBox(250.0, 0.0, 10.0, 10.0, 1), layout)
        assert exc.value.field == "x"


class TestCategoryCodec:
    def test_pad_is_all_minus_one(self):
        assert np.array_equal(encode_category(0), [-1.0] * 8)

    def test_255_is_all_plus_one(self):
        assert np.array_equal(encode_category(255), [1.0] * 8)

    def test_five_lsb_first(self):
        assert np.array_equal(encode_category(5), [1, -1, 1, -1, -1, -1, -1, -1])

    def test_decode_examples(self):
        assert decode_category([1, -1, 1, -1, -1, -1, -1, -1]) == 5
        assert decode_category(np.zeros(8)) == 0  # ties at 0 decode as bit 0
        assert decode_category([0.9, -0.2, 0.7, -0.8, -1, -1, -1, -1]) == 5

    def test_bijective_on_range(self):
        codes = {tuple(encode_category(c)) for c in range(256)}
        assert len(codes) == 256
        for c in range(256):
            assert decode_category(encode_category(c)) == c

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            encode_category(256)

    @given(st.integers(0, 255), st.integers(0, 2**32 - 1))
    def test_sign_robustness(self, c, seed):
        # any perturbation of magnitude < 1 keeps the decoded category
        noise = np.random.default_rng(seed).uniform(-0.999, 0.999, 8)
        assert decode_category(encode_category(c) + noise) == c


class TestLayoutCodec:
    def test_empty_layout_is_all_pad(self):
        m = tokenize_layout(Layout(H=256.0, W=256.0), CFG)
        assert m.shape == (8, 16)
        assert np.array_equal(m, np.tile(m[0], (8, 1)))
        assert decode_category(m[0, 8:]) == 0
        assert detokenize_layout(m, CFG).boxes == ()

    def test_clean_tokens_in_unit_cube(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = tokenize_layout(dyadic_layout(rng, 5), CFG)
            assert np.all(m >= -1.0) and np.all(m <= 1.0)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            layout = dyadic_layout(rng, int(rng.integers(0, 9)))
            back = detokenize_layout(tokenize_layout(layout, CFG), CFG)
            assert back == layout

    def test_publaynet_style_row_count(self):
        cfg = DatasetConfig(n_max=16, num_categories=5, h_max=1024.0, w_max=1024.0)
        m = tokenize_layout(Layout(H=512.0, W=512.0), cfg)
        assert m.shape == (16, 16)

    def test_capacity_error(self):
        rng = np.random.default_rng(2)
        layout = dyadic_layout(rng, 9)
        with pytest.raises(CapacityError) as exc:
            tokenize_layout(layout, CFG)
        assert exc.value.count == 9 and exc.value.capacity == 8

    def test_out_of_range_entries_clamped(self):
        m = tokenize_layout(dyadic_layout(np.random.default_rng(3), 2), CFG)
        m2 = m.copy()
        m2[0, 2] = 1.3
        back = detokenize_layout(m2, CFG)
        m[0, 2] = 1.0
        assert back == detokenize_layout(m, CFG)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed, n_boxes):
        layout = dyadic_layout(np.random.default_rng(seed), n_boxes)
        assert detokenize_layout(tokenize_layout(layout, CFG), CFG) == layout

    @pytest.mark.parametrize("col", [
        [0.25, -0.5, 0.75],  # odd
        [0.25, -0.5, 0.75, 0.1],  # even
        [1.7, -3.0, 1.0, 0.3, -1.0, 2.5],  # clamped: ties at the bounds
    ])
    def test_scene_median_equals_numpy(self, col):
        col = np.clip(np.array(col), -1.0, 1.0)
        assert _median(col) == np.median(col)
        rng = np.random.default_rng(len(col))
        for n in range(1, 17):
            col = np.clip(rng.uniform(-1.5, 1.5, n), -1.0, 1.0)
            assert _median(col) == np.median(col)

    def test_scene_median_propagates_nan(self):
        col = np.array([0.5, np.nan, 0.25, 0.0])
        assert np.isnan(np.median(col)) and np.isnan(_median(col))

    def test_detokenize_leaves_numpy_ma_unloaded(self):
        """numpy's first np.median in a process imports numpy.ma (11-15 ms),
        which the first sampled layout of a timed run used to pay."""
        src = os.path.dirname(os.path.dirname(layoutdiff.__file__))
        code = ("import sys, numpy as np; from layoutdiff.core import DatasetConfig, "
                "detokenize_layout; cfg = DatasetConfig(n_max=8, h_max=256.0, w_max=256.0); "
                "detokenize_layout(np.zeros((8, 16)), cfg); print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "False"


def dyadic_segments(rng, n):
    return tuple(
        Segment(*(rng.integers(0, 1025, 4) / 1024.0)) for _ in range(n)
    )


class TestSegmentCodec:
    def test_corner_to_corner_prefix(self):
        m = tokenize_segments([Segment(0, 0, 1, 1)], SEG_CFG)
        assert np.array_equal(m[0, :4], [-1.0, -1.0, 1.0, 1.0])
        assert m[0, 4] == -1.0

    def test_empty_set_all_pad_sentinel(self):
        m = tokenize_segments([], SEG_CFG)
        assert np.all(m[:, 4] == 1.0)
        assert detokenize_segments(m, SEG_CFG) == ()

    def test_capacity(self):
        with pytest.raises(CapacityError):
            tokenize_segments(dyadic_segments(np.random.default_rng(0), 9), SEG_CFG)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed, n):
        segs = dyadic_segments(np.random.default_rng(seed), n)
        assert detokenize_segments(tokenize_segments(segs, SEG_CFG), SEG_CFG) == segs
