"""Training step memory and time: the workspace a train step keeps, the traced
peak of a warm step, the process's peak RSS and ms per step at three model
shapes, recorded in BENCH_train_memory.json at the root of the repository
under a label, so runs of two versions sit side by side.

Run:  python3 demos/11_train_memory.py [--label NAME] [--repeats N]

The layoutdiff it measures is the one on the import path; to measure
another checkout, put its src/ first on PYTHONPATH. Each shape runs in its
own child process, so its `ru_maxrss` is that shape's alone: the state is
built and warmed by two steps, then each repeat times a block of steps as
ms per step (median and quartiles over the repeats); after that the child
reads `ru_maxrss`, counts the minor page faults of one more warm step (its
`ru_minflt` delta), and last it traces one more warm step with tracemalloc
and records its peak above the step's start. Before the counted step,
glibc's malloc_trim(0) hands the heap's free pages back to the kernel, so
each fault is a page the step allocates afresh; without it, a step would
reuse the pages the step before it freed and take no fault. The workspace
is the summed bytes of TrainState.workspace's arrays; each row also gives
it in MiB per key, the keys of every block summed under one `blocks.<i>.`
key, so a change can see where the workspace goes. Each shape also records
the sha256 of its losses and of its parameters and AdamW moments after the
last step, so two versions can be checked for equal bytes. One BLAS
thread; Linux with glibc. Takes about two minutes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layoutdiff import core, model, schedule, training  # noqa: E402
from layoutdiff.data import synth_layout_corpus  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_train_memory.json"
SHAPES = {
    # the benchmark's `train` workload: its one-pass step and its AR step
    "train_onepass": {"model": {"layers": 4, "heads": 4, "hidden": 128, "n_max": 16},
                      "batch": 32, "steps_per_repeat": 10},
    "train_ar": {"model": {"layers": 3, "heads": 4, "hidden": 96, "n_max": 2, "ar_mode": True},
                 "batch": 32, "steps_per_repeat": 50},
    # `layoutdiff train`'s default model and batch size on an n_max 16 corpus
    "cli_default": {"model": {"layers": 4, "heads": 8, "hidden": 512, "n_max": 16},
                    "batch": 64, "steps_per_repeat": 1},
}
SEED = 10
MIB = 2.0**20


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def measure(name, repeats):
    """One shape's row; run in a child process of its own."""
    spec = SHAPES[name]
    cfg = model.ModelConfig(**spec["model"])
    dcfg, layouts = synth_layout_corpus(SEED, 64, style="columns", n_max=cfg.n_max)
    tokens = np.stack([core.tokenize_layout(lay, dcfg) for lay in layouts]).astype(np.float32)
    variant = "ar" if cfg.ar_mode else "nonar"
    state = training.init_state(
        training.TrainConfig(seed=SEED, batch_size=spec["batch"], variant=variant),
        cfg, dcfg, schedule.build_schedule(100))
    train_step = training.train_step_ar if cfg.ar_mode else training.train_step_nonar
    losses = []

    def step():
        idx = state.rng.integers(0, len(tokens), size=spec["batch"])
        losses.append(train_step(state, tokens[idx]))

    for _ in range(2):
        step()
    workspace = sum(a.nbytes for a in state.workspace.values())
    by_key = {}
    for key, a in state.workspace.items():
        key = re.sub(r"blocks\.\d+\.", "blocks.<i>.", key)
        by_key[key] = by_key.get(key, 0) + a.nbytes / MIB
    step_ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(spec["steps_per_repeat"]):
            step()
        step_ms.append((time.perf_counter() - t0) * 1e3 / spec["steps_per_repeat"])
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ctypes.CDLL(None).malloc_trim(0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        traced = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(np.array(losses).tobytes())
    for group in (state.params, state.adam_m, state.adam_v):
        for key in sorted(group):
            digest.update(group[key].tobytes())
    return {**spec, "steps": len(losses),
            "workspace_mib": workspace / MIB, "workspace_arrays": len(state.workspace),
            "workspace_mib_by_key": dict(sorted(by_key.items())),
            "warm_step_traced_peak_mib": traced / MIB, "warm_step_minor_faults": faults,
            "ru_maxrss_mib": maxrss,
            "ms_per_step": quartiles(step_ms), "state_sha256": digest.hexdigest()}


def git_describe():
    """The commit of the checkout whose layoutdiff is imported, if it is one."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=Path(model.__file__).parent, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--shape", choices=sorted(SHAPES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2 for quartiles")
    if args.shape:
        print(json.dumps(measure(args.shape, args.repeats)))
        return
    rows = {}
    for name in SHAPES:
        proc = subprocess.run([sys.executable, __file__, "--shape", name,
                               "--repeats", str(args.repeats)],
                              capture_output=True, text=True, check=True)
        row = rows[name] = json.loads(proc.stdout)
        ms = row["ms_per_step"]
        print(f"{name:14s} workspace {row['workspace_mib']:7.1f} MiB   "
              f"warm step peak {row['warm_step_traced_peak_mib']:6.2f} MiB, "
              f"{row['warm_step_minor_faults']:5d} faults   "
              f"maxrss {row['ru_maxrss_mib']:6.1f} MiB   "
              f"{ms['median']:8.2f} ms/step [{ms['q1']:.2f}, {ms['q3']:.2f}]")
    record = {
        "config": {"seed": SEED, "repeats": args.repeats, "dtype": "float32", "T": 100,
                   "corpus": "synth_layout_corpus columns x 64",
                   "statistic": "median and quartiles of ms per step over repeats, "
                                "after two untimed steps; one child process per shape"},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "git": git_describe(),
        "model_py_sha256": hashlib.sha256(Path(model.__file__).read_bytes()).hexdigest()[:12],
        "rows": rows,
    }
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else {}
    runs[args.label] = record
    OUT.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} to {OUT.name}")


if __name__ == "__main__":
    main()
