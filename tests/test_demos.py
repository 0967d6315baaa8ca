"""The quick demos run end to end, each as its own process.

Each demo runs in place, from a temporary working directory. Demo 06 is
given a temporary output directory, so demos/out is left untouched. Demos
03 and 04 train models for minutes and are left to be run by hand.
"""

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
