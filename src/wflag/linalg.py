"""The one linear solver of the package: row reduction over ℚ.

Every linear question the search asks (is P_X − P_I an integer combination
of orbifold terms, which collections of terms sum to zero, which simple-root
coordinates a weight has) is a system ``rows · x = rhs`` answered here.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _cancel(row: list[int], col: int, base: list[int]) -> list[int]:
    """lead·row − f·base, which is 0 in column col, divided by its gcd."""
    f, lead = row[col], base[col]
    out = [lead * a - f * b for a, b in zip(row, base)]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def solve(
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve rows · x = rhs over ℚ.

    Returns (x, kernel), or None when the system is inconsistent.  x is the
    solution whose free variables are zero; kernel has one vector per free
    column, with 1 in that column and 0 in the other free columns.  Entries
    are Fractions.

    Forward elimination runs first, and an inconsistent system is rejected
    before any back-substitution.  The rows are scaled to integers and stay
    integral (each new row is divided by the gcd of its entries); only the
    answer is made of Fractions.
    """
    aug = []
    for row, b in zip(rows, rhs):
        row = [*row, b]
        d = lcm(*(v.denominator for v in row))
        aug.append([v.numerator * (d // v.denominator) for v in row])

    m = len(aug)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(ncols):
        prow = len(pivots)
        if prow == m:
            break
        sel = next((r for r in range(prow, m) if aug[r][col]), None)
        if sel is None:
            continue
        base = aug[sel]
        aug[sel], aug[prow] = aug[prow], base
        for r in range(prow + 1, m):
            if aug[r][col]:
                aug[r] = _cancel(aug[r], col, base)
        pivots.append(col)
    rank = len(pivots)
    # the rows below the pivot rows have only zero coefficients left
    if any(row[ncols] for row in aug[rank:]):
        return None

    for i in range(rank - 1, 0, -1):
        col, base = pivots[i], aug[i]
        for r in range(i):
            if aug[r][col]:
                aug[r] = _cancel(aug[r], col, base)

    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = Fraction(aug[i][ncols], aug[i][col])
    kernel = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -Fraction(aug[i][free], aug[i][col])
        kernel.append(vec)
    return x, kernel
