"""Eval-suite time against corpus size: the layout and segment metric suites
(no renders) at three sizes, recorded in BENCH_eval_scaling.json at the root
of the repository under a label, so runs of two versions sit side by side.

Run:  python3 demos/07_eval_scaling.py [--label NAME] [--repeats N]

The layoutdiff it times is the one on the import path; to time another
checkout, put its src/ first on PYTHONPATH. One BLAS thread, as in the
benchmark. Takes about a minute.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layoutdiff import metrics  # noqa: E402
from layoutdiff.data import synth_layout_corpus, synth_segment_corpus  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "BENCH_eval_scaling.json"
# (generated, reference) layouts; the first is the benchmark's eval size.
# The segment suite scores 2 x generated images on each side (16 at the
# benchmark's size), 8 segments each.
SIZES = ((8, 32), (32, 128), (64, 512))
K_SEGMENTS = 8


def layouts(seed, n):
    """n synthetic layouts, half grid (4 or 6 boxes) and half columns."""
    return (synth_layout_corpus(seed, n // 2, style="grid")[1]
            + synth_layout_corpus(seed + 1, n - n // 2, style="columns")[1])


def median_ms(fn, repeats):
    """Median ms of fn() over the repeats, after one untimed call (the
    first call imports scipy.optimize), and the scalars of its report."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalars = fn().scalars
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), scalars


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="run")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rows = []
    for n_gen, n_ref in SIZES:
        gen, ref = layouts(1, n_gen), layouts(2, n_ref)
        seg_gen = synth_segment_corpus(3, 2 * n_gen, K_SEGMENTS)[1]
        seg_ref = synth_segment_corpus(4, 2 * n_gen, K_SEGMENTS)[1]
        layout_ms, layout_scalars = median_ms(
            lambda: metrics.evaluate_layout_corpora(gen, ref), args.repeats)
        segment_ms, segment_scalars = median_ms(
            lambda: metrics.evaluate_segment_corpora(seg_gen, seg_ref), args.repeats)
        rows.append({"generated": n_gen, "reference": n_ref, "segment_images": 2 * n_gen,
                     "layout_ms": layout_ms, "segment_ms": segment_ms,
                     "scalars": {**layout_scalars, **segment_scalars}})
        print(f"{n_gen:4d} x {n_ref:4d}  layout {layout_ms:9.1f} ms   "
              f"segment {2 * n_gen:4d} x {2 * n_gen:4d}  {segment_ms:9.1f} ms")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "config": {"sizes": SIZES, "k_segments": K_SEGMENTS, "repeats": args.repeats,
                   "statistic": "median ms per evaluate_* call, no renders"},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "metrics_py_sha256": hashlib.sha256(Path(metrics.__file__).read_bytes()).hexdigest()[:12],
        "rows": rows,
    }
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else {}
    runs[args.label] = record
    OUT.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} to {OUT.name}")


if __name__ == "__main__":
    main()
