"""Sampling cost of both samplers, recorded at the root of the repository
under a label, so runs of two versions sit side by side:
- one-pass: ms per forward_nonar call, given a modulation table row as
  sampling.sample_nonar passes it, and sample_nonar (DDPM) seconds per
  sample at two model shapes, in BENCH_onepass_sampling.json;
- AR: ms per predictor step (one diffusion step of sampling.ar_predictor,
  n_max cached forward_ar calls) and sample_ar (DDIM, eta 0) seconds per
  sample at three model shapes, in BENCH_ar_sampling.json.

Run:  python3 demos/10_sampling.py [--label NAME] [--repeats N]

The layoutdiff it times is the one on the import path; to time another
checkout, put its src/ first on PYTHONPATH. Each statistic is the median and
quartiles over the repeats, after one untimed call, and all five shapes take
turns within each repeat. A repeat times a block of model calls, as ms per
call, and one sampler call with a `cate` mask over the shape's batch, as
seconds per sample. Each shape also records the sha256 of its sampled
tokens, so two versions can be checked for equal bytes. Weights are random
(scale 0.02, float32), as in the benchmark's sampling workloads. One BLAS
thread. Takes about a minute.
"""

import hashlib
import time

import _record  # before numpy: it pins the BLAS threads
import numpy as np

from layoutdiff import model, sampling, schedule
from layoutdiff.data import synth_layout_corpus


def forward_nonar_step(params, cfg, table):
    """forward_nonar given a modulation table row, as sample_nonar calls it."""
    return lambda x, t: model.forward_nonar(params, cfg, x, t,
                                            mods=model.modulation_row(table, t))


# `layoutdiff train`'s default model and `sample`'s default --n; T is 10 of
# the CLI's default 100, as each step costs the same
CLI_DEFAULT = {"model": {"layers": 4, "heads": 8, "hidden": 512, "n_max": 16},
               "batch": 8, "T": 10}
# per sampler: its record file, model calls, sampler and method, and its row
# keys: the spec's count of calls per repeat, ms per call, s per sample
SAMPLERS = {
    "onepass": {
        "out": "BENCH_onepass_sampling.json", "ar_mode": False, "step": forward_nonar_step,
        "sample": sampling.sample_nonar, "method": "ddpm",
        "keys": ("calls_per_repeat", "forward_nonar_ms", "sample_nonar_s_per_sample"),
        "shapes": {
            # the benchmark's `sample` workload
            "sample": {"model": {"layers": 4, "heads": 4, "hidden": 128, "n_max": 16},
                       "batch": 4, "T": 100, "calls_per_repeat": 100},
            "cli_default": {**CLI_DEFAULT, "calls_per_repeat": 10},
        },
    },
    "ar": {
        "out": "BENCH_ar_sampling.json", "ar_mode": True, "step": sampling.ar_predictor,
        "sample": sampling.sample_ar, "method": "ddim",
        "keys": ("steps_per_repeat", "predictor_step_ms", "sample_ar_s_per_sample"),
        "shapes": {
            # the benchmark's `sample_ar` workload
            "sample_ar": {"model": {"layers": 2, "heads": 4, "hidden": 64, "n_max": 8},
                          "batch": 2, "T": 50, "steps_per_repeat": 50},
            # acceptance criterion c05's AR model
            "c05_ar": {"model": {"layers": 3, "heads": 4, "hidden": 96, "n_max": 2},
                       "batch": 8, "T": 100, "steps_per_repeat": 100},
            "cli_default": {**CLI_DEFAULT, "steps_per_repeat": 2},
        },
    },
}
SEED = 10


class Shape:
    """One sampler's shape: its model, inputs and timings; warm after
    construction."""

    def __init__(self, sampler, name):
        self.sampler, self.name = SAMPLERS[sampler], name
        self.spec = spec = self.sampler["shapes"][name]
        self.cfg = cfg = model.ModelConfig(**spec["model"], ar_mode=self.sampler["ar_mode"])
        rng = np.random.default_rng(SEED)
        self.params = {n: (0.02 * rng.standard_normal(s)).astype(np.float32)
                       for n, s in model.param_shapes(cfg).items()}
        self.sched = schedule.build_schedule(spec["T"])
        self.dcfg, layouts = synth_layout_corpus(SEED, 1, style="columns", n_max=cfg.n_max)
        self.mask = sampling.mask_from_layout(layouts[0], self.dcfg, "cate")
        table, _ = model.timestep_modulations(self.params, cfg, np.arange(self.sched.T))
        self.step = self.sampler["step"](self.params, cfg, table)
        self.x = rng.standard_normal((spec["batch"], cfg.n_max, 16))
        self.call_ms, self.per_sample_s = [], []
        self.step(self.x, 0)
        self.tokens = self.sample()

    def sample(self):
        return self.sampler["sample"](self.params, self.cfg, self.sched, self.dcfg,
                                      self.spec["batch"], seed=SEED, mask=self.mask,
                                      method=self.sampler["method"])[1]

    def repeat(self):
        """One timed block of model calls and one timed sampler call."""
        n_calls = self.spec[self.sampler["keys"][0]]
        t0 = time.perf_counter()
        for i in range(n_calls):
            self.step(self.x, i % self.sched.T)
        self.call_ms.append((time.perf_counter() - t0) * 1e3 / n_calls)
        t0 = time.perf_counter()
        again = self.sample()
        self.per_sample_s.append((time.perf_counter() - t0) / self.spec["batch"])
        if again.tobytes() != self.tokens.tobytes():
            raise SystemExit(f"{self.name}: two {self.sampler['sample'].__name__} runs "
                             "of one seed differ")

    def row(self):
        _, call_key, sample_key = self.sampler["keys"]
        return {**self.spec, call_key: _record.quartiles(self.call_ms),
                sample_key: _record.quartiles(self.per_sample_s),
                "tokens_sha256": hashlib.sha256(self.tokens.tobytes()).hexdigest()}


def main():
    parser = _record.Parser(__doc__, repeats=9, quartiles=True)
    args = parser.parse_args()
    shapes = [Shape(sampler, name) for sampler in SAMPLERS
              for name in SAMPLERS[sampler]["shapes"]]
    # the shapes take turns, so a change in the host's speed during the run
    # reaches every shape alike
    for _ in range(args.repeats):
        for shape in shapes:
            shape.repeat()
    for sampler in SAMPLERS.values():
        rows = {}
        for shape in (s for s in shapes if s.sampler is sampler):
            row = rows[shape.name] = shape.row()
            call, per = (row[key] for key in sampler["keys"][1:])
            print(f"{sampler['sample'].__name__:13s}{shape.name:12s} "
                  f"call {call['median']:8.3f} ms [{call['q1']:.3f}, {call['q3']:.3f}]   "
                  f"{per['median']:7.4f} s/sample [{per['q1']:.4f}, {per['q3']:.4f}]")
        _record.write_run(_record.ROOT / sampler["out"], args.label, {
            "config": {"seed": SEED, "repeats": args.repeats, "dtype": "float32",
                       "statistic": "median and quartiles over repeats, after one untimed call"},
            **_record.environment(model),
            "rows": rows,
        })


if __name__ == "__main__":
    main()
