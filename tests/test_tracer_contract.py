"""The names the benchmark tracer (`perfbench/spans.py`) patches must exist.

The tracer wraps functions and methods of wflag by name from outside the
package; a rename or a dropped ``@cache`` would silently leave a traced
benchmark run without its spans or its cache counters.  The tracer module is
loaded from its file and only read, never installed.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(spans):
    assert spans.FUNCTIONS
    for name, modname, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_every_traced_method_is_defined_on_its_class(spans):
    assert spans.METHODS
    for name, modname, clsname, attr in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert attr in cls.__dict__, name


def test_every_cached_function_has_cache_info(spans):
    functions = {name: (modname, attr) for name, modname, attr in spans.FUNCTIONS}
    assert spans.CACHED
    for name in spans.CACHED:
        modname, attr = functions[name]
        fn = getattr(importlib.import_module(modname), attr)
        assert callable(getattr(fn, "cache_info", None)), name
