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

from layoutdiff import model

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
