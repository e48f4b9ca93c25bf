"""Every name the benchmark traces exists in the package.

``bench/run.py`` reads one span per ``LAYER_METRICS`` label, and
``bench/layers.py`` wraps the public functions of its ``LAYERS`` and the
methods of ``_METHOD_SPANS``.  A label with nothing behind it makes
``bench/run.py --trace 1`` raise ``KeyError``, so these tests resolve
each label against the package.  The tables are read with
``ast.literal_eval``, without importing the benchmark.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(path: Path, name: str):
    """The value of the module-level literal assignment ``name = ...`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path}")


LAYERS = _literal(BENCH / "layers.py", "LAYERS")
METHOD_SPANS = _literal(BENCH / "layers.py", "_METHOD_SPANS")
LAYER_METRICS = _literal(BENCH / "run.py", "LAYER_METRICS")


@pytest.mark.parametrize("label, layer, cls_name, method", METHOD_SPANS)
def test_method_span_is_defined_in_its_class_body(label, layer, cls_name, method):
    cls = getattr(importlib.import_module(f"qracbox.{layer}"), cls_name)
    assert method in vars(cls)


@pytest.mark.parametrize("label", [label for label, _ in LAYER_METRICS])
def test_layer_metric_label_resolves(label):
    if label in {span[0] for span in METHOD_SPANS}:
        return  # each method behind it is checked above
    layer, name = label.split(".")
    assert layer in LAYERS
    module = importlib.import_module(f"qracbox.{layer}")
    function = vars(module).get(name)
    assert not name.startswith("_")
    assert inspect.isfunction(function) and function.__module__ == module.__name__
