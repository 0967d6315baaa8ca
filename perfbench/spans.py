"""Span tracer that wraps layoutdiff functions from outside the package.

The traced run replaces module attributes such as ``model._forward_core``
with wrappers that record one span per call. layoutdiff's modules call each
other through module attributes (``M.forward_ar``) or module globals
(``_gelu`` inside ``model``), so replacing the attribute is enough to see
those calls. ``sampling`` imports ``detokenize_layout`` by name, so that
alias is replaced as well.

Spans live in memory as lists ``[name, op, parent, start_ns, end_ns, rows]``
and are only summarised or written once the run is over. ``op`` is the
operation id (``SETUP_OP`` for set-up), ``parent`` the index of the
enclosing span (-1 at the root), and ``rows`` a count recorded at the same
boundary (0 where the layer has none).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

SETUP_OP = -1

# (module, attribute, span name); a span name is "<module>.<function>".
TRACED = (
    ("model", "forward_nonar", "model.forward_nonar"),
    ("model", "forward_ar", "model.forward_ar"),
    ("model", "_forward_core", "model.forward_core"),
    ("model", "_backward_core", "model.backward_core"),
    ("model", "_gelu", "model.gelu"),
    ("model", "_layernorm", "model.layernorm"),
    ("training", "adamw_update", "training.adamw_update"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("schedule", "q_sample", "schedule.q_sample"),
    ("schedule", "ddpm_step", "schedule.ddpm_step"),
    ("schedule", "ddim_step", "schedule.ddim_step"),
    ("sampling", "sample_nonar", "sampling.sample_nonar"),
    ("sampling", "sample_ar", "sampling.sample_ar"),
    ("sampling", "sample_tokens", "sampling.sample_tokens"),
    ("sampling", "apply_condition", "sampling.apply_condition"),
    ("core", "detokenize_layout", "core.detokenize_layout"),
    ("sampling", "detokenize_layout", "core.detokenize_layout"),
    ("metrics", "evaluate_layout_corpora", "metrics.evaluate_layout_corpora"),
    ("metrics", "evaluate_segment_corpora", "metrics.evaluate_segment_corpora"),
    ("metrics", "alignment_score", "metrics.alignment_score"),
    ("metrics", "overlap_score", "metrics.overlap_score"),
    ("metrics", "max_iou", "metrics.max_iou"),
    ("metrics", "docsim", "metrics.docsim"),
    ("metrics", "hungarian", "metrics.hungarian"),
    ("metrics", "feature_distance", "metrics.feature_distance"),
    ("metrics", "difference_score", "metrics.difference_score"),
    ("render", "rasterize", "render.rasterize"),
    ("data", "load_canonical", "data.load_canonical"),
    ("data", "save_canonical", "data.save_canonical"),
)


def _rows(a) -> int:
    """Token rows in an array whose last axis is the feature axis."""
    return a.size // a.shape[-1]


# Rows counted where the work happens: rows the backbone computes (B x S of
# its input), and rows of the predictions a sampler reads back.
ROW_COUNTERS = {
    "model.forward_core": lambda args, out: _rows(args[2]),
    "model.forward_nonar": lambda args, out: _rows(out.eps_hat),
    "model.forward_ar": lambda args, out: _rows(out),
}
SAMPLER_FORWARDS = ("model.forward_nonar", "model.forward_ar")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter_ns(), 0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, rows: int = 0) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter_ns()
        span[5] = rows
        self._stack.pop()

    def _wrap(self, fn, name):
        count = ROW_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            rows = 0
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    rows = count(args, out)
                return out
            finally:
                self.close(idx, rows)

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Patch every TRACED attribute of ``modules`` (name -> module)."""
        originals = []
        try:
            for mod_name, attr, span_name in TRACED:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, span_name))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def write(self, path: str, ops) -> int:
        """Write the spans of the given operations as JSON lines; returns the
        number written. The in-memory list holds every span of the run."""
        keep = [i for i, s in enumerate(self.spans) if s[1] in ops]
        new_index = {old: new for new, old in enumerate(keep)}
        with open(path, "w", encoding="utf-8") as f:
            for i in keep:
                name, op, parent, start, end, rows = self.spans[i]
                f.write(json.dumps({
                    "id": new_index[i], "name": name, "op": op,
                    "parent": new_index.get(parent, -1),
                    "start_ns": start, "end_ns": end, "rows": rows,
                }) + "\n")
        return len(keep)


def layer_stats(spans, n_ops: int) -> dict:
    """Per-layer numbers from a finished run's spans.

    ``<layer>.self_ms``, ``.calls`` and ``.rows`` are per operation, over the
    spans of operations only; ``<layer>.ms`` is the mean inclusive duration of
    one call over every span, set-up included. A layer's self time is its
    span's duration minus the time its child spans cover.
    """
    child_ns = [0] * len(spans)
    for name, op, parent, start, end, rows in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns, calls, rows_sum = {}, {}, {}
    incl_ns, incl_calls = {}, {}
    sampler_rows_computed = 0
    for i, (name, op, parent, start, end, rows) in enumerate(spans):
        incl_ns[name] = incl_ns.get(name, 0) + (end - start)
        incl_calls[name] = incl_calls.get(name, 0) + 1
        if op == SETUP_OP:
            continue
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        calls[name] = calls.get(name, 0) + 1
        rows_sum[name] = rows_sum.get(name, 0) + rows
        if name == "model.forward_core" and parent >= 0 and spans[parent][0] in SAMPLER_FORWARDS:
            sampler_rows_computed += rows
    n = max(n_ops, 1)
    stats = {}
    for name in incl_ns:
        stats[f"{name}.ms"] = incl_ns[name] / incl_calls[name] / 1e6
    for name in self_ns:
        stats[f"{name}.self_ms"] = self_ns[name] / n / 1e6
        stats[f"{name}.calls"] = calls[name] / n
        stats[f"{name}.rows"] = rows_sum[name] / n
    rows_read = sum(rows_sum.get(name, 0) for name in SAMPLER_FORWARDS)
    stats["sampling.ar_useful_row_frac"] = (
        rows_read / sampler_rows_computed if sampler_rows_computed else 0.0
    )
    return stats
