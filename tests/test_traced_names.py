"""The benchmark tracer (perfbench/spans.py) wraps package functions
at the names their callers bind.  A refactor that drops one of those
bindings would only show up as a missing layer in a traced benchmark
run; this test makes it fail here instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_and_callable(monkeypatch):
    wraps = _load_spans(monkeypatch).WRAPS
    assert wraps
    for module_name, attr, layer, _ in wraps:
        target = getattr(importlib.import_module(module_name), attr, None)
        if not callable(target):
            pytest.fail(f"{module_name}.{attr} (layer {layer}) is not a callable binding")
