"""Checkpoint save and load cost: the time and the peak memory of
save_checkpoint and load_checkpoint at two model sizes, each call in a fresh
process, recorded in BENCH_checkpoint_io.json at the root of the repository
under a label, so runs of two versions sit side by side.

Run:  python3 demos/08_checkpoint_io.py [--label NAME] [--repeats N]

The layoutdiff it measures is the one on the import path; to measure another
checkout, put its src/ first on PYTHONPATH. A call's peak memory is the
process's high-water RSS after the call minus its RSS just before it (VmHWM
and VmRSS in /proc/self/status, so Linux only). The checkpoints go to a
temporary directory, removed at the end. One BLAS thread. Takes about a
minute, and a process holds up to about 700 MiB at the larger shape.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layoutdiff import data, model, schedule, training  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_checkpoint_io.json"
SHAPES = {
    # the benchmark's `sample` workload model
    "sample": {"layers": 4, "heads": 4, "hidden": 128, "n_max": 16},
    # `layoutdiff train`'s default model, on `layoutdiff synth`'s default corpus
    "train_default": {"layers": 4, "heads": 8, "hidden": 512, "n_max": 8},
}
T = 100
SEED = 8


def build_state(shape):
    """A nonar training state whose every array, moments too, holds small
    random values drawn in place: all of it is resident, as after training,
    and building it leaves no peak above its own size."""
    cfg = model.ModelConfig(**SHAPES[shape])
    dcfg = data.synth_layout_corpus(SEED, 1, style="columns", n_max=cfg.n_max)[0]
    state = training.init_state(training.TrainConfig(seed=SEED), cfg, dcfg,
                                schedule.build_schedule(T))
    rng = np.random.default_rng(SEED)
    for group in (state.params, state.adam_m, state.adam_v):
        for a in group.values():
            rng.standard_normal(dtype=a.dtype, out=a)
            a *= 0.02
    return state


def status_mib(field):
    """VmRSS or VmHWM of this process, in MiB."""
    with open("/proc/self/status") as f:
        line = next(line for line in f if line.startswith(field + ":"))
    return int(line.split()[1]) / 1024


def child(op, shape, path):
    """One timed call in this process; prints its ms and peak RSS rise."""
    state = build_state(shape) if op == "save" else None
    before = status_mib("VmRSS")
    t0 = time.perf_counter()
    if op == "save":
        training.save_checkpoint(path, state)
    else:
        training.load_checkpoint(path)
    ms = (time.perf_counter() - t0) * 1e3
    print(json.dumps({"ms": ms, "peak_rss_over_start_mib": status_mib("VmHWM") - before}))


def measure(op, shape, path):
    proc = subprocess.run(
        [sys.executable, __file__, "--child", op, "--shape", shape, "--path", path],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def git_describe():
    """The commit of the checkout whose layoutdiff is imported, if it is one."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=Path(training.__file__).parent, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", choices=["save", "load"], help=argparse.SUPPRESS)
    parser.add_argument("--shape", choices=sorted(SHAPES), help=argparse.SUPPRESS)
    parser.add_argument("--path", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.shape, args.path)
        return
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for shape in SHAPES:
            path = os.path.join(tmp, f"{shape}.ckpt")
            runs = {"save": [], "load": []}
            digests = set()
            for _ in range(args.repeats):
                for op in runs:
                    runs[op].append(measure(op, shape, path))
                with open(path, "rb") as f:
                    digests.add(hashlib.file_digest(f, "sha256").hexdigest())
            if len(digests) != 1:
                raise SystemExit(f"{shape}: saves of one state differ between runs")
            row = {"model": SHAPES[shape], "T": T, "file_bytes": os.path.getsize(path),
                   "file_sha256": digests.pop()}
            for op, results in runs.items():
                row[f"{op}_ms"] = statistics.median(r["ms"] for r in results)
                row[f"{op}_peak_rss_over_start_mib"] = statistics.median(
                    r["peak_rss_over_start_mib"] for r in results)
            rows[shape] = row
            print(f"{shape:14s} {row['file_bytes'] / 2**20:7.1f} MiB   "
                  f"save {row['save_ms']:7.1f} ms +{row['save_peak_rss_over_start_mib']:6.1f} MiB   "
                  f"load {row['load_ms']:7.1f} ms +{row['load_peak_rss_over_start_mib']:6.1f} MiB")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "config": {"shapes": SHAPES, "T": T, "seed": SEED, "repeats": args.repeats,
                   "statistic": "median over repeats, each call in a fresh process; "
                                "peak RSS is VmHWM after the call minus VmRSS before it"},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "git": git_describe(),
        "training_py_sha256": hashlib.sha256(
            Path(training.__file__).read_bytes()).hexdigest()[:12],
        "rows": rows,
    }
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else {}
    runs[args.label] = record
    OUT.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} to {OUT.name}")


if __name__ == "__main__":
    main()
