import json
import os
import subprocess
import sys

import pytest

import layoutdiff
from layoutdiff.cli import cli
from layoutdiff.data import load_canonical, save_canonical


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    code, _, _ = run(capsys, "synth", "--seed", "0", "--n", "12",
                     "--n-max", "4", "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def checkpoint(tmp_path, corpus, capsys):
    out = tmp_path / "run"
    code, _, err = run(
        capsys, "train", "--data", corpus, "--out", str(out), "--seed", "1",
        "--train-steps", "3", "--steps", "10", "--layers", "1", "--heads", "2",
        "--hidden", "8", "--batch-size", "4")
    assert code == 0, err
    return str(out / "model.ckpt")


class TestSynth:
    def test_writes_loadable_corpus(self, corpus):
        cfg, records = load_canonical(corpus)
        assert len(records) == 12
        assert cfg.n_max == 4

    def test_announces_resolved_config(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--n", "3",
                           "--out", str(tmp_path / "s.jsonl"))
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("resolved config:"))
        resolved = json.loads(line.split("resolved config: ", 1)[1])
        assert resolved["command"] == "synth" and resolved["n"] == 3

    def test_identical_seed_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "synth", "--seed", "5", "--n", "6", "--out", str(a))
        run(capsys, "synth", "--seed", "5", "--n", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_segment_mode(self, tmp_path, capsys):
        p = tmp_path / "segs.jsonl"
        code, _, _ = run(capsys, "synth", "--mode", "segment", "--n", "4",
                         "--k-segments", "5", "--out", str(p))
        assert code == 0
        cfg, records = load_canonical(str(p))
        assert cfg.mode == "segment" and len(records) == 4


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n": 3, "seed": 9}))
        p = tmp_path / "out.jsonl"
        code, out, _ = run(capsys, "synth", "--config", str(cfg_file),
                           "--n", "5", "--out", str(p))
        assert code == 0
        _, records = load_canonical(str(p))
        assert len(records) == 5  # flag wins
        line = next(l for l in out.splitlines() if l.startswith("resolved config:"))
        assert json.loads(line.split(": ", 1)[1])["seed"] == 9  # file beats default


    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"count": 3}))
        p = tmp_path / "out.jsonl"
        code, _, err = run(capsys, "synth", "--config", str(cfg_file), "--out", str(p))
        assert code == 1 and not p.exists()
        assert err.count("\n") == 1
        assert f"{cfg_file}: unknown key 'count' for synth" in err

    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps([3]))
        code, _, err = run(capsys, "synth", "--config", str(cfg_file),
                           "--out", str(tmp_path / "out.jsonl"))
        assert code == 1 and err.count("\n") == 1
        assert f"{cfg_file}: holds a JSON list, not an object" in err

    def test_config_for_another_command_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"command": "train", "n": 3}))
        code, _, err = run(capsys, "synth", "--config", str(cfg_file),
                           "--out", str(tmp_path / "out.jsonl"))
        assert code == 1 and f"{cfg_file}: unknown key 'command'" in err

    @pytest.mark.parametrize("command, values, key", [
        ("synth", {"n": 2.5}, "n"),
        ("synth", {"style": "spiral"}, "style"),
        ("train", {"lr": "fast"}, "lr"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, command, values, key):
        """A file's value gets its flag's type and choices check, before
        anything is written."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(values))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_file), "--out", str(out)]
        if command == "train":
            argv += ["--data", str(tmp_path / "corpus.jsonl")]  # required, never read
        code, _, err = run(capsys, *argv)
        assert code == 1 and not out.exists()
        assert err.count("\n") == 1 and f"{cfg_file}: key {key!r} takes " in err

    def test_resolved_config_reruns_the_command(self, tmp_path, checkpoint, capsys):
        """A resolved_config.json names its own command and is a valid
        --config for that command: the rerun writes the same checkpoint."""
        resolved = os.path.join(os.path.dirname(checkpoint), "resolved_config.json")
        data = json.load(open(resolved))["data"]  # --data is a required flag
        again = tmp_path / "again"
        code, _, err = run(capsys, "train", "--config", resolved, "--data", data,
                           "--out", str(again))
        assert code == 0, err
        assert (again / "model.ckpt").read_bytes() == open(checkpoint, "rb").read()


def printed_config(out: str) -> dict:
    line = next(l for l in out.splitlines() if l.startswith("resolved config: "))
    return json.loads(line.split(": ", 1)[1])


class TestSingleDeclaration:
    @pytest.mark.parametrize("command", ["synth", "convert", "train", "sample", "eval", "render"])
    def test_printed_config_feeds_back(self, tmp_path, corpus, checkpoint, capsys, command):
        """The resolved config a run prints, given back as --config, resolves
        to the same values: every option is declared, checked and defaulted
        in one place."""
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({
            "images": [{"id": 0, "height": 10.0, "width": 10.0}], "annotations": []}))
        small = ["--layers", "1", "--heads", "2", "--hidden", "8", "--steps", "5"]
        argv = {
            "synth": ["--n", "3", "--n-max", "4", "--style", "grid"],
            "convert": ["--src", str(annotations), "--num-categories", "3"],
            "train": ["--data", corpus, "--train-steps", "1", "--batch-size", "4",
                      "--variance-head", "--lr", "1e-3", *small],
            "sample": ["--checkpoint", checkpoint, "--n", "1", "--method", "ddim"],
            "eval": ["--timing", "--n", "1", "--n-max", "4", *small],
            "render": ["--data", corpus],
        }[command]
        code, out, err = run(capsys, command, *argv, "--out", str(tmp_path / "first"))
        assert code == 0, err
        first = printed_config(out)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(first))
        code, out, err = run(capsys, command, "--config", str(cfg_file),
                             "--out", str(tmp_path / "again"))
        assert code == 0, err
        again = printed_config(out)
        assert again.pop("out") == str(tmp_path / "again")
        first.pop("out")
        assert again == first


REQUIRED = [("train", "data"), ("sample", "checkpoint"), ("convert", "src"), ("render", "data")]


class TestRequiredValues:
    """A required value may come from the flag or from --config."""

    @pytest.mark.parametrize("command, key", REQUIRED)
    def test_value_from_config_file(self, tmp_path, corpus, checkpoint, capsys,
                                    command, key):
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({
            "images": [{"id": 0, "height": 10.0, "width": 10.0}], "annotations": []}))
        resolved = json.load(open(os.path.join(os.path.dirname(checkpoint),
                                               "resolved_config.json")))
        cfg = {
            "train": {**resolved, "train_steps": 1},  # the fixture's small model
            "sample": {"checkpoint": checkpoint, "n": 1},
            "convert": {"src": str(annotations)},
            "render": {"data": corpus},
        }[command]
        assert key in cfg
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--config", str(cfg_file), "--out", str(out))
        assert code == 0, err
        assert out.exists()

    @pytest.mark.parametrize("with_config", [False, True], ids=["no_config", "config_without_key"])
    @pytest.mark.parametrize("command, key", REQUIRED)
    def test_value_from_neither_exits_2(self, tmp_path, capsys, command, key, with_config):
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        if with_config:
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps({"out": str(out)}))
            argv += ["--config", str(cfg_file)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.splitlines()[-1] == (
            f"layoutdiff {command}: error: the following arguments are required: --{key}")
        assert not out.exists()


class TestRecord:
    @pytest.mark.parametrize("command,key", [("train", "--data"), ("sample", "--checkpoint")])
    def test_run_failing_on_its_input_leaves_no_record(self, tmp_path, capsys, command, key):
        """resolved_config.json marks a run whose inputs loaded; a run that
        cannot read its input still prints its config first."""
        out = tmp_path / "s"
        code, printed, err = run(capsys, command, key, str(tmp_path / "nope"),
                                 "--out", str(out))
        assert code == 1 and err.startswith("error: FileNotFoundError")
        assert printed_config(printed)["command"] == command
        assert not (out / "resolved_config.json").exists()

    @pytest.mark.parametrize("command,args", [
        ("sample", ["--n", "0"]),
        ("sample", ["--n", "-1"]),
        ("sample", ["--capture-stride", "0"]),
        ("sample", ["--eta", "1.5", "--method", "ddim"]),
        ("train", ["--train-steps", "-3"]),
        ("train", ["--train-steps", "2", "--checkpoint-every", "-1"]),
        ("train", ["--variant", "ar", "--variance-head"]),
        ("eval", ["--timing", "--n", "0"]),
    ], ids=["n-0", "n-neg", "stride-0", "eta", "train-steps-neg", "checkpoint-every-neg",
            "ar-variance-head", "timing-n-0"])
    def test_rejected_argument_leaves_no_record(self, tmp_path, corpus, checkpoint,
                                                capsys, command, args):
        """The input loads, but the run is refused before any output."""
        out = tmp_path / "x"
        small = ["--steps", "10", "--layers", "1", "--heads", "2", "--hidden", "8"]
        source = {"sample": ["--checkpoint", checkpoint],
                  "train": ["--data", corpus, "--batch-size", "4", *small],
                  "eval": ["--n-max", "4", *small]}[command]
        code, _, err = run(capsys, command, *source, "--out", str(out), *args)
        assert code == 1 and err.count("\n") == 1
        assert not (out / "resolved_config.json").exists()


class TestTrain:
    def test_produces_checkpoint_and_log(self, tmp_path, checkpoint):
        assert os.path.exists(checkpoint)
        log = os.path.join(os.path.dirname(checkpoint), "loss.log")
        lines = open(log).read().strip().splitlines()
        assert len(lines) == 3
        step, loss, millis = lines[0].split("\t")
        float(loss), float(millis)

    def test_resolved_config_written_to_out_dir(self, tmp_path, checkpoint):
        d = os.path.dirname(checkpoint)
        resolved = json.load(open(os.path.join(d, "resolved_config.json")))
        assert resolved["command"] == "train"
        assert resolved["seed"] == 1

    def test_trains_on_the_train_split_only(self, tmp_path, capsys):
        """A converted corpus holds val and test records: training on it
        writes the checkpoint that training on its train records alone does."""
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({
            "images": [{"id": i, "height": 100.0, "width": 80.0} for i in range(20)],
            "annotations": [{"image_id": i, "bbox": [i, 10.0, 20.0 + i, 30.0],
                             "category_id": 1 + i % 3} for i in range(20)]}))
        converted = tmp_path / "converted.jsonl"
        code, _, err = run(capsys, "convert", "--src", str(annotations), "--n-max", "2",
                           "--num-categories", "3", "--out", str(converted))
        assert code == 0, err
        splits = [json.loads(l).get("split") for l in converted.read_text().splitlines()[1:]]
        assert splits.count("train") == 17 and len(splits) == 20
        cfg, train = load_canonical(str(converted), split="train")
        train_only = tmp_path / "train_only.jsonl"
        save_canonical(str(train_only), cfg, train)
        ckpts = []
        for data in (converted, train_only):
            out = tmp_path / data.stem
            code, _, err = run(capsys, "train", "--data", str(data), "--out", str(out),
                               "--train-steps", "2", "--steps", "10", "--layers", "1",
                               "--heads", "2", "--hidden", "8", "--batch-size", "4")
            assert code == 0, err
            ckpts.append((out / "model.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]

    def test_missing_data_is_error_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "nope.jsonl"),
                           "--out", str(tmp_path / "r"))
        assert code == 1
        assert err.startswith("error:")


class TestSample:
    def test_writes_samples(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "samples"
        code, _, err = run(capsys, "sample", "--checkpoint", checkpoint,
                           "--out", str(out), "--n", "2", "--seed", "3")
        assert code == 0, err
        cfg, records = load_canonical(str(out / "samples.jsonl"))
        assert len(records) == 2

    def test_deterministic_output_bytes(self, tmp_path, checkpoint, capsys):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code, _, _ = run(capsys, "sample", "--checkpoint", checkpoint,
                             "--out", str(out), "--n", "2", "--seed", "3")
            assert code == 0
            outs.append((out / "samples.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_trajectory_directories(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "traj"
        code, _, _ = run(capsys, "sample", "--checkpoint", checkpoint,
                         "--out", str(out), "--n", "1", "--seed", "0",
                         "--capture-stride", "5")
        assert code == 0
        tdir = out / "trajectory_000"
        names = sorted(os.listdir(tdir))
        # T=10, stride 5 -> snapshots at 0, 5, 10 steps done
        assert names == ["step_0000.svg", "step_0005.svg", "step_0010.svg"]

    def test_conditioning_flags(self, tmp_path, corpus, checkpoint, capsys):
        out = tmp_path / "cond"
        code, _, err = run(capsys, "sample", "--checkpoint", checkpoint,
                           "--out", str(out), "--n", "2", "--mask", "cate",
                           "--cond-data", corpus, "--cond-index", "1")
        assert code == 0, err
        ref_cfg, refs = load_canonical(corpus)
        _, samples = load_canonical(str(out / "samples.jsonl"))
        want = [b.c for b in refs[1].boxes]
        for s in samples:
            assert [b.c for b in s.boxes] == want

    @pytest.mark.parametrize("index", ["12", "1000", "-1"])
    def test_cond_index_outside_corpus_fails(self, tmp_path, corpus, checkpoint,
                                             capsys, index):
        code, _, err = run(capsys, "sample", "--checkpoint", checkpoint,
                           "--out", str(tmp_path / "x"), "--mask", "cate",
                           "--cond-data", corpus, "--cond-index", index)
        assert code == 1 and err.count("\n") == 1
        assert f"--cond-index {index} outside [0, 12) for {corpus}" in err

    def test_empty_cond_corpus_fails(self, tmp_path, corpus, checkpoint, capsys):
        cfg, _ = load_canonical(corpus)
        empty = tmp_path / "empty.jsonl"
        save_canonical(str(empty), cfg, [])
        code, _, err = run(capsys, "sample", "--checkpoint", checkpoint,
                           "--out", str(tmp_path / "x"), "--mask", "cate",
                           "--cond-data", str(empty))
        assert code == 1 and "--cond-index 0 outside [0, 0)" in err

    def test_mask_without_cond_data_fails(self, tmp_path, checkpoint, capsys):
        code, _, err = run(capsys, "sample", "--checkpoint", checkpoint,
                           "--out", str(tmp_path / "x"), "--mask", "cate")
        assert code == 1 and "cond-data" in err

    def test_mask_on_a_segment_checkpoint_fails(self, tmp_path, corpus, capsys):
        """A layout corpus's category codes cannot pin a segment model's
        samples; the run names the checkpoint and its mode."""
        segments = tmp_path / "segments.jsonl"
        run(capsys, "synth", "--mode", "segment", "--n", "4", "--k-segments", "3",
            "--n-max", "4", "--out", str(segments))
        code, _, err = run(capsys, "train", "--data", str(segments),
                           "--out", str(tmp_path / "seg"), "--train-steps", "1",
                           "--steps", "10", "--layers", "1", "--heads", "2",
                           "--hidden", "8", "--batch-size", "4")
        assert code == 0, err
        ckpt = str(tmp_path / "seg" / "model.ckpt")
        out = tmp_path / "x"
        code, _, err = run(capsys, "sample", "--checkpoint", ckpt, "--out", str(out),
                           "--mask", "cate", "--cond-data", corpus)
        assert code == 1 and err.count("\n") == 1
        assert err == (f"error: ValueError: --mask cate conditions a layout model; "
                       f"{ckpt} is a segment model\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--n", "0"], "n_samples must be >= 1, got 0"),
        (["--n", "-1"], "n_samples must be >= 1, got -1"),
        (["--capture-stride", "-3"], "capture_stride must be >= 1, got -3"),
        (["--capture-stride", "0"], "capture_stride must be >= 1, got 0"),
        (["--eta", "1.5", "--method", "ddim"], "eta must be in [0, 1], got 1.5"),
    ], ids=["n-0", "n-neg", "stride-neg", "stride-0", "eta"])
    def test_bad_sampler_argument_fails(self, tmp_path, checkpoint, capsys, args, message):
        code, _, err = run(capsys, "sample", "--checkpoint", checkpoint,
                           "--out", str(tmp_path / "x"), *args)
        assert code == 1 and err.count("\n") == 1
        assert err == f"error: ValueError: {message}\n"


class TestEval:
    def test_metric_report(self, tmp_path, corpus, capsys):
        out = tmp_path / "eval"
        code, printed, err = run(capsys, "eval", "--generated", corpus,
                                 "--reference", corpus, "--out", str(out))
        assert code == 0, err
        report = json.load(open(out / "report.json"))
        scalars = report["report"]["scalars"]
        assert scalars["alignment"] == 0.0
        assert scalars["overlap"] == 0.0
        assert scalars["max_iou"] == pytest.approx(1.0)
        assert scalars["feature_distance"] == pytest.approx(0.0, abs=1e-6)
        assert report["report"]["meta"]["render_shape"] == [64, 64, 3]
        assert "alignment" in printed

    @pytest.mark.parametrize("given", [["--generated"], ["--reference"], []],
                             ids=["generated-only", "reference-only", "neither"])
    def test_run_with_nothing_to_score_fails(self, tmp_path, corpus, capsys, given):
        """A corpus is scored against another one, and a run with neither
        corpus nor --timing does nothing: both are refused before any output."""
        out = tmp_path / "eval"
        argv = [arg for flag in given for arg in (flag, corpus)]
        code, _, err = run(capsys, "eval", *argv, "--out", str(out))
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: ValueError: ")
        assert not out.exists()

    def test_timing_reports_both_variants(self, tmp_path, capsys):
        out = tmp_path / "timing"
        code, printed, err = run(
            capsys, "eval", "--timing", "--out", str(out), "--n", "2",
            "--steps", "5", "--layers", "1", "--heads", "2", "--hidden", "8",
            "--n-max", "4")
        assert code == 0, err
        timing = json.load(open(out / "report.json"))["timing"]
        assert timing["nonar_seconds_per_sample"] > 0
        assert timing["ar_seconds_per_sample"] > timing["nonar_seconds_per_sample"]


class TestRender:
    def test_renders_every_record(self, tmp_path, corpus, capsys):
        out = tmp_path / "renders"
        code, _, _ = run(capsys, "render", "--data", corpus, "--out", str(out))
        assert code == 0
        files = sorted(f for f in os.listdir(out) if f.endswith(".svg"))
        assert len(files) == 12
        assert files[0] == "item_0000.svg"

    def test_byte_identical_across_runs(self, tmp_path, corpus, capsys):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(capsys, "render", "--data", corpus, "--out", str(out))
            blobs.append(b"".join(
                open(out / f, "rb").read()
                for f in sorted(os.listdir(out)) if f.endswith(".svg")))
        assert blobs[0] == blobs[1]


class TestStartup:
    def test_import_loads_no_scipy(self):
        """Every command pays the package import; scipy (about 0.3 s for
        scipy.special alone) is imported only where a function needs it, and
        nothing loads concurrent.futures."""
        src = os.path.dirname(os.path.dirname(layoutdiff.__file__))
        code = ("import sys, layoutdiff, layoutdiff.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'concurrent')))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestParsing:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(capsys, "explode")[0] == 2

    def test_no_subcommand_exit_2(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_choice_exit_2(self, capsys):
        assert run(capsys, "synth", "--style", "spiral")[0] == 2

    def test_render_takes_no_seed(self, tmp_path, corpus, capsys):
        out = tmp_path / "renders"
        assert run(capsys, "render", "--seed", "1", "--data", corpus, "--out", str(out))[0] == 2
        assert not out.exists()
