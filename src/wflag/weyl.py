"""Weyl group closure: every element of the group generated by reflections.

Matrices are tuples of integer rows.  The reference methods of the tests
(tests/oracles.py) build their Weyl characters on `weyl_elements`; no sweep
loads this module.
"""
from __future__ import annotations

from functools import cache

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in cols) for ra in a
    )


@cache
def weyl_elements(generators: tuple[Matrix, ...]) -> tuple[tuple[Matrix, int], ...]:
    """All group elements generated by the given reflections, with their
    determinants.

    Each generator is a reflection, of determinant −1, so an element's
    determinant is −1 to the length of any word for it: the closure walks
    words and flips the sign at each letter.  Returned sorted by matrix entries so
    the order is reproducible.  The Weyl characters of the tests need the
    whole group, and the benchmark's tracer (perfbench/spans.py) wraps this
    function by name.
    """
    seen: dict[Matrix, int] = {identity_matrix(len(generators[0])): 1}
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            s = -seen[m]
            for g in generators:
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen[prod] = s
                    fresh.append(prod)
        frontier = fresh
    return tuple(sorted(seen.items()))
