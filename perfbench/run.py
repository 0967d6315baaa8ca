"""Run one layoutdiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` is the separate traced run: it times half of its operations
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead. ``--workload all`` runs every workload in turn, each in
its own process, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (name -> value and
unit). Each run also writes its record (versions, BLAS, shapes, checks,
errors) and, when traced, its spans under ``.perfbench/`` at the root of
the checkout. README.md describes the workloads and the metrics.
"""

import os
import time

_T0 = time.perf_counter()  # set-up is timed from here, so it includes imports

# One BLAS thread, fixed before numpy is first imported, so that every run
# does the same single-threaded work whatever the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train", "sample", "sample_ar", "eval")
SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh ones
ERRORS_KEPT = 20

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_ms_p90": "ms",
}
# Printed and recorded but not end-to-end metrics: on a host whose speed
# flips between two levels, the median lands on either level from run to
# run, while the 90th percentile stays on the slower one (README.md).
REPORTED = {
    "op_ms_p50": "ms",
    "items_per_s": "1/s",
}
PER_LAYER = {
    "model.forward_core.self_ms": "ms",
    "model.backward_core.self_ms": "ms",
    "model.gelu.self_ms": "ms",
    "model.layernorm.self_ms": "ms",
    "model.forward_core.calls": "count",
    "model.forward_core.rows": "count",
    "sampling.ar_useful_row_frac": "ratio",
    "training.adamw_update.self_ms": "ms",
    "training.save_checkpoint.ms": "ms",
    "training.load_checkpoint.ms": "ms",
    "data.load_canonical.ms": "ms",
    "schedule.ddpm_step.self_ms": "ms",
    "schedule.ddim_step.self_ms": "ms",
    "schedule.q_sample.self_ms": "ms",
    "sampling.apply_condition.self_ms": "ms",
    "sampling.sample_tokens.self_ms": "ms",
    "core.detokenize_layout.self_ms": "ms",
    "metrics.docsim.self_ms": "ms",
    "metrics.max_iou.self_ms": "ms",
    "metrics.hungarian.self_ms": "ms",
    "metrics.hungarian.calls": "count",
    "metrics.feature_distance.self_ms": "ms",
    "metrics.alignment_score.self_ms": "ms",
    "metrics.overlap_score.self_ms": "ms",
    "metrics.difference_score.self_ms": "ms",
    "render.rasterize.self_ms": "ms",
    "trace.overhead.ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up once, print the set-up seconds and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run record


def git_sha():
    """HEAD's commit, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Hash of the layoutdiff sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "layoutdiff").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info(np):
    """The BLAS numpy was built with, and the thread count each loaded
    OpenBLAS reports (queried from the library itself)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def run_record(args, wl, np):
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "shape": wl.shape,
        "git_sha": git_sha(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(np),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "load": "closed loop, one client, one process",
    }


# ---------------------------------------------------------------------------
# measurement


def closed_loop(wl, seconds, first_op, outputs, errors, tracer=None):
    """Call wl.op back to back until ``seconds`` have passed (at least once).

    An operation that raises counts as failed; its one-line error is kept and
    the loop goes on. Returns (ms of each successful op, attempted, elapsed s).
    """
    times_ms = []
    i = first_op
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = i
            root = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
            errors.append(f"op {i}: {type(e).__name__}: {e}".splitlines()[0])
        else:
            times_ms.append((time.perf_counter() - t0) * 1e3)
            outputs.append((i, out))
        finally:
            if tracer is not None:
                tracer.close(root)
        i += 1
        if time.perf_counter() - start >= seconds:
            return times_ms, i - first_op, time.perf_counter() - start


def fresh_setup_seconds(args):
    """Set-up time of a fresh process: this script with --setup-only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def emit(args, record, metrics, units, checks, attempted, errors, reported=None):
    """Print the table, keep the run's record, print the result line."""
    failed = len(errors)
    correct = all(c["ok"] for c in checks)
    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  operations {attempted} attempted, {failed} failed "
          f"(error_rate {failed / attempted:.4g})")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for name, value in (reported or {}).items():
        print(f"  {name:36s} {value:14.6g} {REPORTED[name]}  (reported, no bound)")
    for c in checks:
        print(f"  check {c['check']:28s} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    for line in errors[:ERRORS_KEPT]:
        print(f"  error {line}")
    record.update({
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "errors": errors[:ERRORS_KEPT], "checks": checks, "metrics": metrics,
        "reported": reported or {},
    })
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_one(args, workdir):
    import numpy as np
    import workloads as W  # imports layoutdiff; part of the timed set-up
    from spans import SETUP_OP, Tracer, layer_stats

    wl = W.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer is None:
        wl.setup(args.seed, workdir)
    else:
        with tracer.installed(W.MODULES):
            wl.setup(args.seed, workdir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outputs, errors = [], []
    if tracer is None:
        times_ms, attempted, elapsed = closed_loop(wl, args.seconds, 0, outputs, errors)
    else:
        plain_ms, plain_n, _ = closed_loop(wl, args.seconds / 2, 0, outputs, errors)
        with tracer.installed(W.MODULES):
            times_ms, traced_n, _ = closed_loop(
                wl, args.seconds / 2, plain_n, outputs, errors, tracer)
        attempted = plain_n + traced_n
    if not outputs:
        print(f"perfbench: every operation failed; first error: {errors[0]}", file=sys.stderr)
        return 1
    checks = wl.checks(outputs)
    record = run_record(args, wl, np)
    record["op_ms"] = times_ms

    if tracer is None:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup_s] + [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        record["setup_samples_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
            "op_ms_p90": float(np.percentile(times_ms, 90)),
        }
        reported = {
            "op_ms_p50": float(np.percentile(times_ms, 50)),
            "items_per_s": wl.items_per_op * len(times_ms) / elapsed,
        }
        return emit(args, record, metrics, END_TO_END, checks, attempted, errors, reported)

    stats = layer_stats(tracer.spans, traced_n)
    stats["trace.overhead.ms"] = (
        statistics.median(times_ms) - statistics.median(plain_ms)
        if times_ms and plain_ms else 0.0
    )
    metrics = {name: float(stats.get(name, 0.0)) for name in PER_LAYER}
    record["layer_stats"] = stats  # every traced layer, not only PER_LAYER
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    record["spans"] = {
        "total": len(tracer.spans), "file": str(spans_path.relative_to(ROOT)),
        "written": tracer.write(str(spans_path), ops=(SETUP_OP, plain_n)),
        "ops_traced": traced_n, "ops_untraced": plain_n,
        "op_ms_p50_traced": statistics.median(times_ms) if times_ms else None,
        "op_ms_p50_untraced": statistics.median(plain_ms) if plain_ms else None,
    }
    return emit(args, record, metrics, PER_LAYER, checks, attempted, errors)


def run_all(args):
    """Every workload in its own process; one table and one combined result."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        if proc.returncode != 0:
            print(f"perfbench: workload {name} failed: {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':14s} {'metric':36s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:14s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:14s} {'error_rate':36s} {res['failed'] / res['attempted']:14.6g} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "layoutdiff" / "__init__.py").is_file():
        print(f"perfbench: no layoutdiff sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
