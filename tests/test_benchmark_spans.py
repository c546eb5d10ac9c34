"""The benchmark's per-layer metrics name bagdet functions by module and
attribute, and its repeat counters bind parameters by name.  A function or
parameter removed from bagdet would silently zero a layer metric or break
a traced run, so both lists are checked against the library here.  This
only reads the benchmark's tables."""

import importlib
import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import harness  # noqa: E402
import spans  # noqa: E402


def _function(span: str):
    short, attr = span.split(".")
    assert short in spans.TRACED_MODULES, span
    module = importlib.import_module(f"bagdet.{short}")
    assert attr in module.__all__, f"{span} is not exported"
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
    return fn


@pytest.mark.parametrize("span", [span for span, _ in harness.LAYER_STATS])
def test_layer_span_names_an_exported_function(span):
    _function(span)


@pytest.mark.parametrize("span", sorted(spans.REPEAT_KEYS))
def test_repeat_keys_are_parameters(span):
    params = inspect.signature(_function(span)).parameters
    for key in spans.REPEAT_KEYS[span]:
        assert key in params, f"{span} has no parameter {key!r}"
