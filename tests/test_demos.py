"""The quick demos run end to end, each as its own process.

Each demo runs in place, from a temporary working directory. Demo 06 is
given a temporary output directory, so demos/out is left untouched. Demos
03 and 04 train models for minutes and are left to be run by hand. The
record scripts, which measure for minutes and write a BENCH_*.json at the
root of the repository, run only with --help here, and their shared
harness's writer is tested on a temporary file.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(name, tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(DEMOS / f"{name}.py"), *map(str, args)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", [
    "01_tokens_and_files", "02_forward_and_reverse", "05_metrics",
])
def test_demo_exits_0(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_segments_demo_writes_the_committed_svg(tmp_path):
    proc = run_demo("06_segments", tmp_path, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "out" / "segments_0.svg").read_bytes()
    assert written == (DEMOS / "out" / "segments_0.svg").read_bytes()


@pytest.mark.parametrize("name", [
    "07_eval_scaling", "08_checkpoint_io", "10_ar_sampling", "11_train_memory",
    "12_onepass_sampling",
])
def test_record_script_help_exits_0(name, tmp_path):
    """--help imports the harness and the package, and measures nothing."""
    proc = run_demo(name, tmp_path, "--help")
    assert proc.returncode == 0, proc.stderr


def test_write_run_replaces_its_label_and_keeps_the_others(tmp_path, monkeypatch):
    # importing the harness pins the BLAS threads; the test restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("_record", DEMOS / "_record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    path = tmp_path / "BENCH_x.json"
    record.write_run(path, "b", {"z": 1, "y": {"x": 2, "w": 3}})
    record.write_run(path, "a", {"old": True})
    record.write_run(path, "a", {"new": True})
    runs = {"runs": {"a": {"new": True}, "b": {"y": {"w": 3, "x": 2}, "z": 1}}}
    # written in label order b, a and keys z, y: the file's order is sorted
    assert path.read_text() == json.dumps(runs, indent=2, sort_keys=True) + "\n"
