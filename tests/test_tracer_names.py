"""perfbench/spans.py wraps layoutdiff functions by module and attribute
name from outside the package, so renaming one breaks the traced benchmark
run (`perfbench/run.py --trace 1`). These tests check the names it reads."""

import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest

from layoutdiff import model, sampling, schedule
from layoutdiff.core import DatasetConfig
from layoutdiff.sampling import sample_tokens

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


@pytest.fixture()
def spans(monkeypatch):
    # the module is loaded by path, and no bytecode cache is written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = sorted(os.listdir(os.path.dirname(SPANS)))
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    assert sorted(os.listdir(os.path.dirname(SPANS))) == before


def test_every_traced_attribute_resolves(spans):
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(f"layoutdiff.{mod}"), attr, None))]
    assert missing == []


def test_forward_core_rows_come_from_h0(spans):
    assert list(inspect.signature(model._forward_core).parameters)[2] == "h0"
    h0 = np.zeros((3, 5, 8))
    assert spans.ROW_COUNTERS["model.forward_core"]((None, None, h0), None) == 15


def test_forward_nonar_rows_come_from_eps_hat(spans):
    cfg = model.ModelConfig(layers=1, heads=2, hidden=8, n_max=3)
    params = model.init_params(cfg, seed=0)
    out = model.forward_nonar(params, cfg, np.zeros((2, 3, 16)), np.array([1, 5]))
    assert spans.ROW_COUNTERS["model.forward_nonar"]((params, cfg), out) == 2 * 3


def test_ddpm_sampling_calls_ddpm_step_by_attribute(monkeypatch):
    """The `schedule.ddpm_step` span sees the DDPM steps only while the sampler
    calls that module attribute, once per step."""
    calls = []
    step = schedule.ddpm_step

    def counting(*args, **kwargs):
        calls.append(args[2])
        return step(*args, **kwargs)

    monkeypatch.setattr(schedule, "ddpm_step", counting)
    sched = schedule.build_schedule(20)
    sample_tokens(lambda x, t: np.zeros_like(x), sched, (2, 16),
                  np.random.default_rng(0), method="ddpm")
    assert calls == list(range(sched.T - 1, -1, -1))


def test_sampler_decodes_through_the_sampling_alias(monkeypatch):
    """The `core.detokenize_layout` span sees a sampler's decodes only while
    it calls `sampling.detokenize_layout`, once per sample."""
    calls = []
    decode = sampling.detokenize_layout

    def counting(*args, **kwargs):
        calls.append(1)
        return decode(*args, **kwargs)

    monkeypatch.setattr(sampling, "detokenize_layout", counting)
    cfg = model.ModelConfig(layers=1, heads=2, hidden=8, n_max=3)
    dcfg = DatasetConfig(n_max=3, h_max=256.0, w_max=256.0)
    sampling.sample_nonar(model.init_params(cfg, seed=0), cfg, schedule.build_schedule(5),
                          dcfg, n_samples=3, seed=0)
    assert len(calls) == 3


def test_ar_sampling_calls_forward_core_by_attribute(monkeypatch):
    """The `model.forward_core` span and its row count see the AR sampler's
    cached calls only while forward_ar calls that module attribute, once per
    token: the data+START prefix, B (n_max + 1) rows, then B rows a call."""
    rows = []
    core = model._forward_core

    def counting(*args, **kwargs):
        rows.append(args[2].shape[0] * args[2].shape[1])
        return core(*args, **kwargs)

    monkeypatch.setattr(model, "_forward_core", counting)
    cfg = model.ModelConfig(layers=1, heads=2, hidden=8, n_max=3, ar_mode=True)
    dcfg = DatasetConfig(n_max=3, h_max=256.0, w_max=256.0)
    sampling.sample_ar(model.init_params(cfg, seed=0), cfg, schedule.build_schedule(4),
                       dcfg, n_samples=2, seed=0)
    assert rows == [2 * 4, 2, 2] * 4
