"""Eval cost against corpus size, recorded in BENCH_eval_scaling.json at the
root of the repository under a label, so runs of two versions sit side by
side:

- time and metrics.hungarian solves of the layout and segment metric suites
  (no renders) at three sizes;
- the peak traced memory (tracemalloc) of rasterizing two corpora through
  generators into feature_distance, at 500 and 2000 layouts a side.

Run:  python3 demos/07_eval_scaling.py [--label NAME] [--repeats N]

The layoutdiff it measures is the one on the import path; to measure another
checkout, put its src/ first on PYTHONPATH. One BLAS thread, as in the
benchmark. Takes under a minute.
"""

import statistics
import time
import tracemalloc

import _record  # before numpy: it pins the BLAS threads

from layoutdiff import metrics, render
from layoutdiff.data import synth_layout_corpus, synth_segment_corpus

OUT = _record.ROOT / "BENCH_eval_scaling.json"
# (generated, reference) layouts; the first is the benchmark's eval size.
# The segment suite scores 2 x generated images on each side (16 at the
# benchmark's size), 8 segments each.
SIZES = ((8, 32), (32, 128), (64, 512))
K_SEGMENTS = 8
# layouts a side whose renders go through feature_distance
MEMORY_SIZES = (500, 2000)


def layouts(seed, n):
    """n synthetic layouts, half grid (4 or 6 boxes) and half columns."""
    return (synth_layout_corpus(seed, n // 2, style="grid")[1]
            + synth_layout_corpus(seed + 1, n - n // 2, style="columns")[1])


def median_ms(fn, repeats):
    """Median ms of fn() over the repeats, after one untimed call (the
    first call imports scipy.optimize), the scalars of its report and the
    metrics.hungarian solves of one call."""
    solve, solves = metrics.hungarian, []

    def counting(cost):
        solves.append(1)
        return solve(cost)

    metrics.hungarian = counting
    try:
        fn()
    finally:
        metrics.hungarian = solve
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalars = fn().scalars
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), scalars, len(solves)


def render_peak(n):
    """Peak traced MiB and result of feature_distance on the renders of two
    corpora of n layouts, rasterized by generators as feature_distance reads
    them."""
    gen, ref = layouts(1, n), layouts(2, n)
    tracemalloc.start()
    try:
        distance = metrics.feature_distance((render.rasterize(g) for g in gen),
                                            (render.rasterize(r) for r in ref))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"per_side": n, "peak_mib": peak / 2**20, "feature_distance": distance}


def main():
    args = _record.Parser(__doc__, repeats=5).parse_args()
    rows = []
    for n_gen, n_ref in SIZES:
        gen, ref = layouts(1, n_gen), layouts(2, n_ref)
        seg_gen = synth_segment_corpus(3, 2 * n_gen, K_SEGMENTS)[1]
        seg_ref = synth_segment_corpus(4, 2 * n_gen, K_SEGMENTS)[1]
        layout_ms, layout_scalars, layout_solves = median_ms(
            lambda: metrics.evaluate_layout_corpora(gen, ref), args.repeats)
        segment_ms, segment_scalars, segment_solves = median_ms(
            lambda: metrics.evaluate_segment_corpora(seg_gen, seg_ref), args.repeats)
        rows.append({"generated": n_gen, "reference": n_ref, "segment_images": 2 * n_gen,
                     "layout_ms": layout_ms, "segment_ms": segment_ms,
                     "layout_solves": layout_solves, "segment_solves": segment_solves,
                     "scalars": {**layout_scalars, **segment_scalars}})
        print(f"{n_gen:4d} x {n_ref:4d}  layout {layout_ms:9.1f} ms {layout_solves:6d} solves   "
              f"segment {2 * n_gen:4d} x {2 * n_gen:4d}  {segment_ms:9.1f} ms "
              f"{segment_solves:6d} solves")
    memory = []
    for n in MEMORY_SIZES:
        memory.append(render_peak(n))
        print(f"{n:4d} a side  rasterize + feature_distance peak {memory[-1]['peak_mib']:7.1f} MiB")
    _record.write_run(OUT, args.label, {
        "config": {"sizes": SIZES, "k_segments": K_SEGMENTS, "repeats": args.repeats,
                   "statistic": "median ms per evaluate_* call, no renders; "
                                "hungarian solves of one call",
                   "memory_sizes": MEMORY_SIZES,
                   "memory_statistic": "tracemalloc peak MiB of feature_distance on "
                                       "generators of 64 px renders, both sides"},
        **_record.environment(metrics),
        "rows": rows,
        "memory": memory,
    })


if __name__ == "__main__":
    main()
