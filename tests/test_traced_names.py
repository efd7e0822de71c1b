"""The benchmark tracer (perfbench/spans.py) wraps package functions
at the names their callers bind.  A refactor that drops one of those
bindings, or stops calling through it, would only show up as a missing
layer in a traced benchmark run; these tests make it fail here instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from nclab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _load(name, register):
    """perfbench/<name>.py as a module; `register(key, module)` puts it
    in sys.modules, where dataclasses look the module up."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    register(spec.name, module)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads", sys.modules.__setitem__).WORKLOADS


def _load_spans(monkeypatch):
    return _load("spans", lambda key, module: monkeypatch.setitem(sys.modules, key, module))


def test_every_traced_name_is_bound_and_callable(monkeypatch):
    wraps = _load_spans(monkeypatch).WRAPS
    assert wraps
    for module_name, attr, layer, _ in wraps:
        target = getattr(importlib.import_module(module_name), attr, None)
        if not callable(target):
            pytest.fail(f"{module_name}.{attr} (layer {layer}) is not a callable binding")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_expected_traced_name_is_called(monkeypatch, tmp_path, name):
    spans = _load_spans(monkeypatch)
    for module_name, attr, _, _ in spans.WRAPS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):  # restored after the test: wrappers would stack
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = spans.Tracer()
    tracer.wrap()
    w = WORKLOADS[name]
    config = tmp_path / f"{name}.cfg"
    config.write_text(w.config(SEED))
    for command in w.commands:
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    tracer.check_expected(w.kind)
    assert tracer.missing == []
