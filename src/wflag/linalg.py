"""The one linear solver of the package: row reduction over ℚ or over F_p.

Every linear question the search asks (is P_X − P_I an integer combination
of orbifold terms, which collections of terms sum to zero, which simple-root
coordinates a weight has) is a system ``rows · x = rhs`` answered here.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Callable, Sequence


@cache
def modular_inverse(p: int) -> Callable[[int], int]:
    """Inversion in F_p for the prime p.  It is cached, because the prescreen
    meets the same pivots over and over, and keyed by the argument alone,
    because a one-int key adds no per-entry tuple to the cache."""

    @cache
    def inverse(a: int) -> int:
        return pow(a % p, p - 2, p)

    return inverse


def solve(
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
    p: int | None = None,
) -> tuple[list, list[list]] | None:
    """Solve rows · x = rhs over ℚ, or over F_p when the prime p is given.

    Returns (x, kernel), or None when the system is inconsistent.  x is the
    solution whose free variables are zero; kernel has one vector per free
    column, with 1 in that column and 0 in the other free columns.  Entries
    are Fractions over ℚ and ints in [0, p) over F_p.

    Forward elimination runs first, and an inconsistent system is rejected
    before any back-substitution: most systems the prescreen meets are.
    Over ℚ the rows are scaled to integers and stay integral (each new row is
    divided by the gcd of its entries); only the answer is made of Fractions.
    """
    if p is None:
        aug = []
        for row, b in zip(rows, rhs):
            row = [*row, b]
            d = lcm(*(v.denominator for v in row))
            aug.append([v.numerator * (d // v.denominator) for v in row])

        def pivot_row(row, col):
            return row

        def minus(row, col, base):
            f, lead = row[col], base[col]
            out = [lead * a - f * b for a, b in zip(row, base)]
            g = gcd(*out)
            return [v // g for v in out] if g > 1 else out

        def ratio(row, i, col):
            return Fraction(row[i], row[col])

    else:
        aug = [[v % p for v in row] + [b % p] for row, b in zip(rows, rhs)]
        inverse = modular_inverse(p)

        def pivot_row(row, col):
            inv = inverse(row[col])
            return [v * inv % p for v in row]

        def minus(row, col, base):
            f = row[col]
            return [(a - f * b) % p for a, b in zip(row, base)]

        def ratio(row, i, col):
            return row[i]

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
        row = aug[sel]
        aug[sel] = aug[prow]
        base = aug[prow] = pivot_row(row, col)
        for r in range(prow + 1, m):
            if aug[r][col]:
                aug[r] = minus(aug[r], col, base)
        pivots.append(col)
    rank = len(pivots)
    # the rows below the pivot rows have only zero coefficients left
    if any(row[ncols] for row in aug[rank:]):
        return None

    for i in range(rank - 1, 0, -1):
        col, base = pivots[i], aug[i]
        for r in range(i):
            if aug[r][col]:
                aug[r] = minus(aug[r], col, base)

    zero = Fraction(0) if p is None else 0
    x = [zero] * ncols
    for i, col in enumerate(pivots):
        x[col] = ratio(aug[i], ncols, col)
    kernel = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[free] = zero + 1
        for i, col in enumerate(pivots):
            v = ratio(aug[i], free, col)
            vec[col] = -v if p is None else -v % p
        kernel.append(vec)
    return x, kernel
