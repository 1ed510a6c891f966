"""The names the benchmark (`perfbench/`) imports and patches must exist.

The tracer (`perfbench/spans.py`) wraps functions and methods of wflag by
name from outside the package; a rename or a dropped ``@cache`` would
silently leave a traced benchmark run without its spans or its cache
counters.  The tracer module is loaded from its file and only read, never
installed.  The other benchmark scripts are only parsed: every name they
import from wflag, and every binding the sweep probe patches, must resolve.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _wflag_imports():
    """(file, module, name) for every ``from wflag… import name`` in
    perfbench/, and (file, module, None) for every ``import wflag…``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "wflag":
                    for alias in node.names:
                        yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "wflag":
                        yield path.name, alias.name, None


def test_every_benchmark_import_resolves():
    found = list(_wflag_imports())
    assert found
    for filename, modname, name in found:
        module = importlib.import_module(modname)
        if name is None:
            continue
        # a name of the module, or one of its submodules
        resolves = hasattr(module, name) or (
            hasattr(module, "__path__")
            and importlib.util.find_spec(f"{modname}.{name}") is not None
        )
        assert resolves, f"{filename}: from {modname} import {name}"


def test_the_bindings_the_probe_patches_exist():
    import wflag.cli
    import wflag.records
    import wflag.search

    # perfbench/probe.py swaps both for wrappers that mark a sweep's start
    # and end; the CLI must call the module binding it replaces
    assert getattr(wflag.cli, "iter_search", None) is wflag.search.iter_search
    assert "write_sweep_done" in wflag.records.ResultWriter.__dict__


def test_package_exports_exactly_all():
    import wflag

    tree = ast.parse(Path(wflag.__file__).read_text(encoding="utf-8"))
    reexported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(wflag.__all__) == reexported
    for name in wflag.__all__:
        assert getattr(wflag, name, None) is not None, name
