"""One-pass sampling cost: ms per forward_nonar call, given a modulation table
row as sampling.sample_nonar passes it, and sample_nonar seconds per sample at
two model shapes, recorded in BENCH_onepass_sampling.json at the root of the
repository under a label, so runs of two versions sit side by side.

Run:  python3 demos/12_onepass_sampling.py [--label NAME] [--repeats N]

The layoutdiff it times is the one on the import path; to time another
checkout, put its src/ first on PYTHONPATH. Each statistic is the median and
quartiles over the repeats, after one untimed call, and the shapes take
turns within each repeat. A repeat times a block of forward_nonar calls, as
ms per call, and one sample_nonar call (DDPM, a `cate` mask) over the shape's
batch, as seconds per sample. Each shape also records the sha256 of its
sampled tokens, so two versions can be checked for equal bytes. Weights are
random (scale 0.02, float32), as in the benchmark's sampling workloads. One
BLAS thread. Takes under a minute.
"""

import hashlib
import time

import _record  # before numpy: it pins the BLAS threads
import numpy as np

from layoutdiff import model, sampling, schedule
from layoutdiff.data import synth_layout_corpus

OUT = _record.ROOT / "BENCH_onepass_sampling.json"
SHAPES = {
    # the benchmark's `sample` workload
    "sample": {"model": {"layers": 4, "heads": 4, "hidden": 128, "n_max": 16},
               "batch": 4, "T": 100, "calls_per_repeat": 100},
    # `layoutdiff train`'s default model and `sample`'s default --n; T is 10
    # of the CLI's default 100, as each step costs the same
    "cli_default": {"model": {"layers": 4, "heads": 8, "hidden": 512, "n_max": 16},
                    "batch": 8, "T": 10, "calls_per_repeat": 10},
}
SEED = 10


class Shape:
    """One shape's model, inputs and timings; warm after construction."""

    def __init__(self, name):
        self.name = name
        self.spec = spec = SHAPES[name]
        self.cfg = cfg = model.ModelConfig(**spec["model"])
        rng = np.random.default_rng(SEED)
        self.params = {n: (0.02 * rng.standard_normal(s)).astype(np.float32)
                       for n, s in model.param_shapes(cfg).items()}
        self.sched = schedule.build_schedule(spec["T"])
        self.dcfg, layouts = synth_layout_corpus(SEED, 1, style="columns", n_max=cfg.n_max)
        self.mask = sampling.mask_from_layout(layouts[0], self.dcfg, "cate")
        self.table, _ = model.timestep_modulations(self.params, cfg, np.arange(self.sched.T))
        self.x = rng.standard_normal((spec["batch"], cfg.n_max, 16))
        self.call_ms, self.per_sample_s = [], []
        self.forward(0)
        self.tokens = self.sample()

    def forward(self, t):
        return model.forward_nonar(self.params, self.cfg, self.x, t,
                                   mods=model.modulation_row(self.table, t))

    def sample(self):
        return sampling.sample_nonar(self.params, self.cfg, self.sched, self.dcfg,
                                     self.spec["batch"], seed=SEED, mask=self.mask,
                                     method="ddpm")[1]

    def repeat(self):
        """One timed block of forward_nonar calls and one timed sample_nonar call."""
        n_calls = self.spec["calls_per_repeat"]
        t0 = time.perf_counter()
        for i in range(n_calls):
            self.forward(i % self.sched.T)
        self.call_ms.append((time.perf_counter() - t0) * 1e3 / n_calls)
        t0 = time.perf_counter()
        again = self.sample()
        self.per_sample_s.append((time.perf_counter() - t0) / self.spec["batch"])
        if again.tobytes() != self.tokens.tobytes():
            raise SystemExit(f"{self.name}: two sample_nonar runs of one seed differ")

    def row(self):
        return {**self.spec, "forward_nonar_ms": _record.quartiles(self.call_ms),
                "sample_nonar_s_per_sample": _record.quartiles(self.per_sample_s),
                "tokens_sha256": hashlib.sha256(self.tokens.tobytes()).hexdigest()}


def main():
    parser = _record.Parser(__doc__, repeats=9, quartiles=True)
    args = parser.parse_args()
    shapes = [Shape(name) for name in SHAPES]
    # the shapes take turns, so a change in the host's speed during the run
    # reaches every shape alike
    for _ in range(args.repeats):
        for shape in shapes:
            shape.repeat()
    rows = {}
    for shape in shapes:
        row = rows[shape.name] = shape.row()
        call, per = row["forward_nonar_ms"], row["sample_nonar_s_per_sample"]
        print(f"{shape.name:12s} forward {call['median']:8.3f} ms [{call['q1']:.3f}, {call['q3']:.3f}]   "
              f"sample_nonar {per['median']:7.4f} s/sample [{per['q1']:.4f}, {per['q3']:.4f}]")
    _record.write_run(OUT, args.label, {
        "config": {"seed": SEED, "repeats": args.repeats, "dtype": "float32",
                   "statistic": "median and quartiles over repeats, after one untimed call"},
        **_record.environment(model),
        "rows": rows,
    })


if __name__ == "__main__":
    main()
