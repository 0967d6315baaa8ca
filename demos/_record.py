"""The harness the record scripts (demos 07, 08, 10 and 11) share.

A record script imports this module before numpy: the import pins the BLAS
to one thread, as in the benchmark. The script then parses its flags with
`Parser`, times its shapes, and writes its config, its rows and
`environment(module)` to a BENCH_*.json at the root of the repository with
`write_run`, which keeps every run under its label, so runs of two versions
sit side by side. A script that measures each shape in a fresh process runs
itself again with `run_child`.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


class Parser(argparse.ArgumentParser):
    """The flags of every record script, --label and --repeats; a script
    that reports quartiles refuses fewer than 2 repeats."""

    def __init__(self, doc, repeats, quartiles=False):
        super().__init__(description=doc.splitlines()[0])
        self.quartiles = quartiles
        self.add_argument("--label", default="run")
        self.add_argument("--repeats", type=int, default=repeats)

    def parse_args(self, args=None, namespace=None):
        args = super().parse_args(args, namespace)
        if self.quartiles and args.repeats < 2:
            self.error("--repeats must be >= 2 for quartiles")
        return args


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def git_describe(module):
    """The commit of the checkout whose module is imported, if it is one."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=Path(module.__file__).parent, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(module):
    """What a run of a script that measures module was run on: the BLAS and
    its thread count, the numpy, scipy and python versions, the commit, and
    the first 12 hex digits of the sha256 of module's source file."""
    # imported here, so that importing this module loads no BLAS before the
    # threads are pinned
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = module.__name__.rpartition(".")[2]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__,
                     "python": platform.python_version()},
        "git": git_describe(module),
        f"{name}_py_sha256": hashlib.sha256(Path(module.__file__).read_bytes()).hexdigest()[:12],
    }


def run_child(script, *args):
    """Run script again, with args, in a child process of its own; return the
    JSON the child prints. The child's stderr goes to this process's."""
    proc = subprocess.run([sys.executable, script, *map(str, args)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def write_run(path, label, record):
    """Put record in the {"runs": {label: record}} file at path, replacing a
    run of the same label and keeping the others."""
    path = Path(path)
    runs = json.loads(path.read_text())["runs"] if path.exists() else {}
    runs[label] = record
    path.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"wrote run {label!r} to {path.name}")
