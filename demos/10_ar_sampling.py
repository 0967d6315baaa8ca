"""Autoregressive sampling cost: ms per predictor step (one diffusion step of
sampling.ar_predictor, n_max cached forward_ar calls) and sample_ar seconds
per sample at three model shapes, recorded in BENCH_ar_sampling.json at the
root of the repository under a label, so runs of two versions sit side by
side.

Run:  python3 demos/10_ar_sampling.py [--label NAME] [--repeats N]

The layoutdiff it times is the one on the import path; to time another
checkout, put its src/ first on PYTHONPATH. Each statistic is the median and
quartiles over the repeats, after one untimed call, and the shapes take
turns within each repeat. A repeat times a block of predictor steps, as ms
per step, and one sample_ar call (DDIM, eta 0, a `cate` mask) over the
shape's batch, as seconds per sample. Each shape also records the sha256 of
its sampled tokens, so two versions can be checked for equal bytes. Weights
are random (scale 0.02, float32), as in the benchmark's sampling workloads.
One BLAS thread. Takes about two minutes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layoutdiff import model, sampling, schedule  # noqa: E402
from layoutdiff.data import synth_layout_corpus  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_ar_sampling.json"
SHAPES = {
    # the benchmark's `sample_ar` workload
    "sample_ar": {"model": {"layers": 2, "heads": 4, "hidden": 64, "n_max": 8},
                  "batch": 2, "T": 50, "steps_per_repeat": 50},
    # acceptance criterion c05's AR model
    "c05_ar": {"model": {"layers": 3, "heads": 4, "hidden": 96, "n_max": 2},
               "batch": 8, "T": 100, "steps_per_repeat": 100},
    # `layoutdiff train`'s default model and `sample`'s default --n; T is 10
    # of the CLI's default 100, as each step costs the same
    "cli_default": {"model": {"layers": 4, "heads": 8, "hidden": 512, "n_max": 16},
                    "batch": 8, "T": 10, "steps_per_repeat": 2},
}
SEED = 10


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


class Shape:
    """One shape's model, inputs and timings; warm after construction."""

    def __init__(self, name):
        self.name = name
        self.spec = spec = SHAPES[name]
        self.cfg = cfg = model.ModelConfig(**spec["model"], ar_mode=True)
        rng = np.random.default_rng(SEED)
        self.params = {n: (0.02 * rng.standard_normal(s)).astype(np.float32)
                       for n, s in model.param_shapes(cfg).items()}
        self.sched = schedule.build_schedule(spec["T"])
        self.dcfg, layouts = synth_layout_corpus(SEED, 1, style="columns", n_max=cfg.n_max)
        self.mask = sampling.mask_from_layout(layouts[0], self.dcfg, "cate")
        table, _ = model.timestep_modulations(self.params, cfg, np.arange(self.sched.T))
        self.predictor = sampling.ar_predictor(self.params, cfg, table)
        self.x = rng.standard_normal((spec["batch"], cfg.n_max, 16))
        self.step_ms, self.per_sample_s = [], []
        self.predictor(self.x, 0)
        self.tokens = self.sample()

    def sample(self):
        return sampling.sample_ar(self.params, self.cfg, self.sched, self.dcfg,
                                  self.spec["batch"], seed=SEED, mask=self.mask,
                                  method="ddim")[1]

    def repeat(self):
        """One timed block of predictor steps and one timed sample_ar call."""
        n_steps = self.spec["steps_per_repeat"]
        t0 = time.perf_counter()
        for i in range(n_steps):
            self.predictor(self.x, i % self.sched.T)
        self.step_ms.append((time.perf_counter() - t0) * 1e3 / n_steps)
        t0 = time.perf_counter()
        again = self.sample()
        self.per_sample_s.append((time.perf_counter() - t0) / self.spec["batch"])
        if again.tobytes() != self.tokens.tobytes():
            raise SystemExit(f"{self.name}: two sample_ar runs of one seed differ")

    def row(self):
        return {**self.spec, "predictor_step_ms": quartiles(self.step_ms),
                "sample_ar_s_per_sample": quartiles(self.per_sample_s),
                "tokens_sha256": hashlib.sha256(self.tokens.tobytes()).hexdigest()}


def git_describe():
    """The commit of the checkout whose layoutdiff is imported, if it is one."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=Path(model.__file__).parent, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2 for quartiles")
    shapes = [Shape(name) for name in SHAPES]
    # the shapes take turns, so a change in the host's speed during the run
    # reaches every shape alike
    for _ in range(args.repeats):
        for shape in shapes:
            shape.repeat()
    rows = {}
    for shape in shapes:
        row = rows[shape.name] = shape.row()
        step, per = row["predictor_step_ms"], row["sample_ar_s_per_sample"]
        print(f"{shape.name:12s} step {step['median']:8.2f} ms [{step['q1']:.2f}, {step['q3']:.2f}]   "
              f"sample_ar {per['median']:7.3f} s/sample [{per['q1']:.3f}, {per['q3']:.3f}]")
    record = {
        "config": {"seed": SEED, "repeats": args.repeats, "dtype": "float32",
                   "statistic": "median and quartiles over repeats, after one untimed call"},
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
