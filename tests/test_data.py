import json

import numpy as np
import pytest

from layoutdiff.core import (
    BoundingBox,
    DatasetConfig,
    Layout,
    Segment,
    detokenize_layout,
    tokenize_layout,
)
from layoutdiff.data import (
    FormatError,
    atomic_write_text,
    convert_publaynet_like,
    load_canonical,
    save_canonical,
    serialize_canonical,
    synth_layout_corpus,
    synth_segment_corpus,
)
from layoutdiff.metrics import alignment_score, difference_score, max_iou, overlap_score

LCFG = DatasetConfig(n_max=4, num_categories=5, h_max=256.0, w_max=256.0)
SCFG = DatasetConfig(n_max=4, num_categories=1, mode="segment")

LAYOUTS = [
    Layout(H=256.0, W=256.0, boxes=(
        BoundingBox(16.0, 16.0, 64.0, 96.0, 1),
        BoundingBox(128.0, 16.0, 64.0, 96.0, 3),
    )),
    Layout(H=128.0, W=256.0, boxes=()),
]
SEGSETS = [
    (Segment(0.0, 0.0, 1.0, 1.0), Segment(0.25, 0.0, 0.25, 1.0)),
    (),
]


class TestCanonicalFormat:
    def test_header_line_is_first(self, tmp_path):
        text = serialize_canonical(LCFG, LAYOUTS)
        header = json.loads(text.splitlines()[0])
        assert header == {"version": 1, "mode": "layout", "n_max": 4,
                          "num_categories": 5, "h_max": 256.0, "w_max": 256.0}

    def test_roundtrip_byte_identical(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        save_canonical(str(p), LCFG, LAYOUTS)
        first = p.read_bytes()
        cfg, records = load_canonical(str(p))
        save_canonical(str(p), cfg, records)
        assert p.read_bytes() == first
        assert cfg == LCFG and records == LAYOUTS

    def test_segment_roundtrip(self, tmp_path):
        p = tmp_path / "segs.jsonl"
        save_canonical(str(p), SCFG, SEGSETS)
        cfg, records = load_canonical(str(p))
        assert cfg == SCFG
        assert [tuple(r) for r in records] == [tuple(s) for s in SEGSETS]

    def test_split_filter(self, tmp_path):
        p = tmp_path / "c.jsonl"
        save_canonical(str(p), LCFG, LAYOUTS, splits=["train", "test"])
        _, train = load_canonical(str(p), split="train")
        _, everything = load_canonical(str(p))
        assert train == [LAYOUTS[0]]
        assert everything == LAYOUTS

    def test_category_zero_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        text = serialize_canonical(LCFG, LAYOUTS)
        lines = text.splitlines()
        lines[1] = lines[1].replace('96.0,1]', '96.0,0]')
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            load_canonical(str(p))

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v9.jsonl"
        p.write_text('{"version":9,"mode":"layout","n_max":4,'
                     '"num_categories":5,"h_max":1.0,"w_max":1.0}\n')
        with pytest.raises(FormatError, match="version"):
            load_canonical(str(p))

    @pytest.mark.parametrize("header,message", [
        ('{"version":1,"n_max":4,"num_categories":5,"h_max":1.0,"w_max":1.0}',
         "header has no 'mode'"),
        ("[1]", "header is a JSON list, not an object"),
        ('{"version":1,"mode":"layout","n_max":0,"num_categories":5,"h_max":1.0,'
         '"w_max":1.0}', "header: n_max must be >= 1, got 0"),
        ('{"version":1,"mode":"layout","n_max":"4","num_categories":5,"h_max":1.0,'
         '"w_max":1.0}', "header: "),
    ], ids=["no-mode", "list", "n_max-0", "n_max-string"])
    def test_bad_header_raises_at_line_1(self, tmp_path, header, message):
        p = tmp_path / "h.jsonl"
        p.write_text(header + "\n")
        with pytest.raises(FormatError, match=f"^line 1: {message}") as e:
            load_canonical(str(p))
        assert e.value.line == 1

    def test_malformed_record_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        text = serialize_canonical(LCFG, LAYOUTS)
        p.write_text(text + "{not json\n")
        with pytest.raises(FormatError, match="line 4"):
            load_canonical(str(p))

    def test_too_many_elements_rejected(self, tmp_path):
        big = Layout(H=256.0, W=256.0, boxes=tuple(
            BoundingBox(8.0 * i, 8.0, 4.0, 4.0, 1) for i in range(5)))
        p = tmp_path / "big.jsonl"
        save_canonical(str(p), LCFG, [big])
        with pytest.raises(FormatError, match="n_max"):
            load_canonical(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(FormatError):
            load_canonical(str(p))

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_text(str(p), "hello\n")
        assert p.read_text() == "hello\n"
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


def detection_fixture():
    return {
        "images": [
            {"id": 2, "height": 100.0, "width": 200.0},
            {"id": 1, "height": 80.0, "width": 120.0},
            {"id": 3, "height": 60.0, "width": 60.0},
        ],
        "annotations": [
            # image 2: one box, top-left origin
            {"image_id": 2, "bbox": [10.0, 20.0, 40.0, 30.0], "category_id": 1},
            # image 1: two boxes
            {"image_id": 1, "bbox": [0.0, 0.0, 10.0, 10.0], "category_id": 2},
            {"image_id": 1, "bbox": [5.0, 5.0, 10.0, 10.0], "category_id": 5},
            # image 3: three boxes (over n_max=2, dropped)
            {"image_id": 3, "bbox": [0.0, 0.0, 5.0, 5.0], "category_id": 1},
            {"image_id": 3, "bbox": [10.0, 0.0, 5.0, 5.0], "category_id": 1},
            {"image_id": 3, "bbox": [20.0, 0.0, 5.0, 5.0], "category_id": 1},
        ],
    }


class TestConverter:
    def test_y_axis_flip(self):
        cfg, layouts, tags, dropped = convert_publaynet_like(
            detection_fixture(), n_max=2)
        # image id 2: bbox y_top=20, h=30 in a 100-high scene -> y = 50
        by_h = {l.H: l for l in layouts}
        box = by_h[100.0].boxes[0]
        assert (box.x, box.y, box.h, box.w, box.c) == (10.0, 50.0, 30.0, 40.0, 1)

    def test_oversize_layouts_dropped_and_counted(self):
        cfg, layouts, tags, dropped = convert_publaynet_like(
            detection_fixture(), n_max=2)
        assert dropped == 1
        assert len(layouts) == 2
        assert len(tags) == 2

    def test_scene_max_dims(self):
        cfg, _, _, _ = convert_publaynet_like(detection_fixture(), n_max=2)
        assert cfg.h_max == 100.0 and cfg.w_max == 200.0

    def test_split_tags_deterministic_and_complete(self):
        fixture = {
            "images": [{"id": i, "height": 10.0, "width": 10.0} for i in range(40)],
            "annotations": [],
        }
        _, _, tags_a, _ = convert_publaynet_like(fixture, seed=1)
        _, _, tags_b, _ = convert_publaynet_like(fixture, seed=1)
        assert tags_a == tags_b
        assert set(tags_a) <= {"train", "val", "test"}
        assert tags_a.count("train") == 34  # round(0.85 * 40)
        assert tags_a.count("val") == 2

    def test_unknown_category_rejected(self):
        bad = detection_fixture()
        bad["annotations"][0]["category_id"] = 9
        from layoutdiff.core import ValidationError
        with pytest.raises(ValidationError):
            convert_publaynet_like(bad, n_max=2)

    def test_converted_corpus_tokenizes(self, tmp_path):
        cfg, layouts, tags, _ = convert_publaynet_like(detection_fixture(), n_max=2)
        p = tmp_path / "conv.jsonl"
        save_canonical(str(p), cfg, layouts, splits=tags)
        cfg2, loaded = load_canonical(str(p))
        for layout in loaded:
            tokenize_layout(layout, cfg2)


class TestSynthLayouts:
    def test_deterministic(self):
        a = synth_layout_corpus(7, 10, style="grid")
        b = synth_layout_corpus(7, 10, style="grid")
        assert a == b

    def test_construction_guarantees(self):
        for style in ("grid", "columns"):
            _, layouts = synth_layout_corpus(0, 16, style=style)
            assert alignment_score(layouts) == 0.0
            assert overlap_score(layouts) == 0.0

    def test_self_max_iou_is_one(self):
        _, layouts = synth_layout_corpus(2, 8, style="grid")
        assert max_iou(layouts, layouts) == pytest.approx(1.0)

    def test_exact_codec_roundtrip(self):
        cfg, layouts = synth_layout_corpus(3, 16, style="columns")
        for layout in layouts:
            assert detokenize_layout(tokenize_layout(layout, cfg), cfg) == layout

    def test_respects_n_max(self):
        cfg, layouts = synth_layout_corpus(4, 16, style="grid", n_max=6)
        assert all(len(l.boxes) <= 6 for l in layouts)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            synth_layout_corpus(0, 0)
        with pytest.raises(ValueError):
            synth_layout_corpus(0, 4, style="spiral")


class TestSynthSegments:
    def test_deterministic(self):
        assert synth_segment_corpus(5, 6) == synth_segment_corpus(5, 6)

    def test_self_difference_zero(self):
        _, sets = synth_segment_corpus(6, 8, k_segments=6)
        assert difference_score(sets, sets) == 0.0

    def test_counts_and_bounds(self):
        cfg, sets = synth_segment_corpus(7, 10, k_segments=5, n_max=8)
        assert len(sets) == 10
        for s in sets:
            assert len(s) == 5
            for seg in s:
                for v in (seg.x1, seg.y1, seg.x2, seg.y2):
                    assert 0.0 <= v <= 1.0

    def test_k_over_capacity(self):
        with pytest.raises(ValueError):
            synth_segment_corpus(0, 2, k_segments=9, n_max=8)

    @pytest.mark.parametrize("n,k,message", [
        (0, 4, "corpus size must be >= 1, got 0"),
        (2, 0, "k_segments must be >= 1, got 0"),
    ])
    def test_empty_corpus_or_set_rejected(self, n, k, message):
        with pytest.raises(ValueError, match=message):
            synth_segment_corpus(0, n, k_segments=k)
