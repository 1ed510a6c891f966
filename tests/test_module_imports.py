"""No module of the package takes a private name from another.

A name with a leading underscore belongs to the module that defines it.  A
module that needs such a name from a sibling should be given a public one,
or the code that uses it should move next to it.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wflag import intpoly

SRC = Path(__file__).resolve().parents[1] / "src" / "wflag"


def _private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each private name taken from a wflag module: by
    ``from .x import _name`` or ``from wflag.x import _name``, or as
    ``x._name`` on a module bound by ``from . import x``."""
    tree = ast.parse(source)
    found: list[tuple[int, str]] = []
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "wflag"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                if node.module in (None, "wflag"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_form():
    source = (
        "from . import records\n"
        "from .orbifold import QuotientSingularity, _shift\n"
        "from wflag.search import _emit as emit\n"
        "records._integer_from_json(1)\n"
        "records.fraction_from_json(1)\n"
    )
    assert _private_imports(source) == [
        (2, "_shift"), (3, "_emit"), (4, "records._integer_from_json"),
    ]


#: The integer polynomial operations of `wflag.intpoly`: the two sparse passes.
POLYNOMIAL_HELPERS = {"div_one_minus_t_pow", "mul_one_minus_t_pow"}


def test_the_scan_does_no_polynomial_algebra_per_tuple():
    """`search` hands H and each tuple to `orbifold.decompositions`, which
    owns P_I and N0, so the scan takes no polynomial helper, by name or as
    an attribute of a module.  Every listed helper exists, so a rename fails
    here instead of leaving the check with nothing to find."""
    assert all(hasattr(intpoly, name) for name in POLYNOMIAL_HELPERS)
    tree = ast.parse((SRC / "search.py").read_text(encoding="utf-8"))
    used = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used & POLYNOMIAL_HELPERS == set()


_SWEEP_IMPORTS = """
import sys
from wflag.search import SearchConfig, iter_search
config = SearchConfig(format_name="g2", k=-1, n=3, u_max=3, jobs={jobs})
assert len(list(iter_search(config))) == 4
import wflag.cli
argv = ["search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3", "--jobs", "{jobs}"]
assert wflag.cli.main(argv) == 0
names = ("multiprocessing", "pickle", "wflag.ratfun", "wflag.weyl", "csv", "dataclasses", "inspect")
print("loaded:", " ".join(name for name in names if name in sys.modules))
"""


@pytest.mark.parametrize("jobs, loaded", [(1, ""), (2, "pickle")])
def test_a_sweep_imports_no_multiprocessing(jobs, loaded):
    """A pooled sweep forks its workers itself, so it never imports
    `multiprocessing` (about 20 ms); a serial sweep does not import `pickle`
    either.  No sweep, through `iter_search` or `wflag search`, loads the
    ℚ layer (`ratfun`), Freudenthal's formula (`weyl`) or `csv`, nor
    `dataclasses` with the `inspect` it loads: the sweep's records are
    tuple types.  Each process would pay to compile and run them for
    nothing."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_IMPORTS.format(jobs=jobs)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split(":")[1].strip() == loaded


#: The public names of the package, as before its ℚ layer loaded lazily.
PUBLIC_NAMES = [
    "FORMATS", "CocharacterParam", "EmbeddingData", "FormatSpec",
    "ambient_weights", "enumerate_parameters", "hilbert_series",
    "OrbifoldContribution", "QuotientSingularity", "basket_kernel",
    "gcd_closure", "initial_term", "porb_cont", "qorb",
    "DomainError", "RationalFunction", "UniPolynomial", "poly_gcd", "series_of",
    "G2_FANO_TABLE", "Candidate", "SearchConfig", "SweepResult", "iter_search",
    "merge_candidates", "pos_wt", "search_embedding", "sweep_parameters",
]


def test_the_package_still_offers_the_q_layer_by_name():
    """`wflag` resolves its ℚ names on first access, so `__all__`,
    attribute access and ``from wflag import *`` work as when it imported
    `ratfun` eagerly; an unknown name is still an AttributeError."""
    import wflag
    from wflag import ratfun

    assert wflag.__all__ == PUBLIC_NAMES
    assert wflag.RationalFunction is ratfun.RationalFunction
    assert wflag.series_of is ratfun.series_of
    assert wflag.DomainError is ratfun.DomainError is intpoly.DomainError
    namespace: dict = {}
    exec("from wflag import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["UniPolynomial"] is ratfun.UniPolynomial
    with pytest.raises(AttributeError):
        wflag.no_such_name

