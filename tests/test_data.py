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
        # counts size arrays: a float or a bool is refused, not used
        ('{"version":1,"mode":"layout","n_max":4.0,"num_categories":5,"h_max":1.0,'
         '"w_max":1.0}', r"header: n_max must be an integer, got 4\.0$"),
        ('{"version":1,"mode":"layout","n_max":true,"num_categories":5,"h_max":1.0,'
         '"w_max":1.0}', "header: n_max must be an integer, got True$"),
        ('{"version":1,"mode":"layout","n_max":4,"num_categories":5.0,"h_max":1.0,'
         '"w_max":1.0}', r"header: num_categories must be an integer, got 5\.0$"),
        ('{"version":1,"mode":"layout","n_max":4,"num_categories":true,"h_max":1.0,'
         '"w_max":1.0}', "header: num_categories must be an integer, got True$"),
    ], ids=["no-mode", "list", "n_max-0", "n_max-string", "n_max-float", "n_max-bool",
            "num_categories-float", "num_categories-bool"])
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
        p = tmp_path / "big.jsonl"
        header = serialize_canonical(LCFG, []).splitlines()[0]
        boxes = [[8.0 * i, 8.0, 4.0, 4.0, 1] for i in range(5)]
        p.write_text(header + "\n" + json.dumps({"H": 256.0, "W": 256.0, "boxes": boxes}) + "\n")
        with pytest.raises(FormatError, match="line 2: 5 boxes exceed n_max 4"):
            load_canonical(str(p))

    @pytest.mark.parametrize("split", [None, "train"])
    @pytest.mark.parametrize("record,message", [
        ("[1, 2]", "record is a JSON list, not an object"),
        ('{"H":256.0,"W":256.0,"boxes":[[300.0,16.0,64.0,96.0,1]]}',
         r"box field x=300\.0 outside scene bound \[0, 256\.0\]"),
        ('{"H":256.0,"W":256.0,"boxes":[["a",16.0,64.0,96.0,1]]}', "not supported"),
        # int() would load these as 2 and 1, which re-serialize as other bytes
        ('{"H":256.0,"W":256.0,"boxes":[[16.0,16.0,64.0,96.0,2.7]]}',
         r"category 2\.7 is not an integer$"),
        ('{"H":256.0,"W":256.0,"boxes":[[16.0,16.0,64.0,96.0,true]]}',
         "category True is not an integer$"),
    ], ids=["list", "box-outside-scene", "x-string", "category-float", "category-bool"])
    def test_bad_record_raises_at_its_line(self, tmp_path, split, record, message):
        """Every record that loads also tokenizes; one that does not is
        refused at its line, with or without a split filter."""
        p = tmp_path / "r.jsonl"
        p.write_text(serialize_canonical(LCFG, LAYOUTS) + record + "\n")
        with pytest.raises(FormatError, match=f"^line 4: .*{message}"):
            load_canonical(str(p), split=split)

    @pytest.mark.parametrize("cfg,record,message", [
        (LCFG, Layout(H=256.0, W=256.0, boxes=(BoundingBox(16.0, 16.0, 8.0, 8.0, 131),)),
         r"category 131 outside \[1, 5\]"),
        (LCFG, Layout(H=256.0, W=256.0, boxes=tuple(
            BoundingBox(8.0 * i, 8.0, 4.0, 4.0, 1) for i in range(5))),
         "5 boxes exceed n_max 4"),
        (LCFG, Layout(H=128.0, W=256.0, boxes=(BoundingBox(16.0, 130.0, 8.0, 8.0, 1),)),
         r"box field y=130\.0 outside scene bound \[0, 128\.0\]"),
        (LCFG, SEGSETS[0], "a tuple is not a layout"),
        (SCFG, LAYOUTS[0], "a Layout is not a sequence of segments"),
        (SCFG, tuple(SEGSETS[0] * 3), "6 segments exceed n_max 4"),
    ], ids=["category", "n_max", "box-outside-scene", "segments-in-layouts",
            "layout-in-segments", "segments-n_max"])
    def test_save_refuses_what_load_refuses(self, tmp_path, cfg, record, message):
        """One ValueError naming the record's index, before anything is written."""
        good = LAYOUTS[1] if cfg.mode == "layout" else SEGSETS[1]
        with pytest.raises(ValueError, match=f"^record 1: {message}"):
            save_canonical(str(tmp_path / "c.jsonl"), cfg, [good, record])
        assert list(tmp_path.iterdir()) == []

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
        assert dropped == {"oversize": 1, "outside_image": 0}
        assert len(layouts) == 2
        assert len(tags) == 2

    def test_layout_with_box_outside_its_image_dropped_and_counted(self):
        """bbox [10, 90, 20, 30] reaches 20 below its 100-high image (y = -20).
        The layout is dropped whole, not clipped, so the rest converts."""
        fixture = detection_fixture()
        fixture["annotations"][0]["bbox"] = [10.0, 90.0, 20.0, 30.0]
        cfg, layouts, tags, dropped = convert_publaynet_like(fixture, n_max=2)
        assert dropped == {"oversize": 1, "outside_image": 1}
        assert [l.H for l in layouts] == [80.0] and len(tags) == 1
        serialize_canonical(cfg, layouts, tags)

    @pytest.mark.parametrize("bbox", [
        [190.0, 10.0, 20.0, 30.0],  # right edge 210 in a 200-wide image
        [10.0, -5.0, 20.0, 30.0],  # top edge 105 in a 100-high image
    ])
    def test_box_past_the_right_or_top_edge_dropped_and_counted(self, bbox):
        """Every field of these boxes lies in its own bound, which is all that
        normalize_box checks, but the box ends outside its image."""
        fixture = detection_fixture()
        fixture["annotations"][0]["bbox"] = bbox
        _, layouts, _, dropped = convert_publaynet_like(fixture, n_max=2)
        assert dropped == {"oversize": 1, "outside_image": 1}
        assert [l.H for l in layouts] == [80.0]

    def test_box_touching_every_edge_kept(self):
        fixture = detection_fixture()
        fixture["annotations"][0]["bbox"] = [0.0, 0.0, 200.0, 100.0]
        _, layouts, _, dropped = convert_publaynet_like(fixture, n_max=2)
        assert dropped == {"oversize": 1, "outside_image": 0}
        assert layouts[1].boxes[0] == BoundingBox(x=0.0, y=0.0, h=100.0, w=200.0, c=1)

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
