"""The one linear-algebra kernel of the package: fraction-free elimination
over ℤ, behind `solve`.

Every linear question the search asks (is P_X − P_I an integer combination
of orbifold terms, which collections of terms sum to zero) is a system
``rows · x = rhs`` answered here.
"""
from __future__ import annotations

from typing import Sequence


def _eliminate(aug: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Gauss–Jordan elimination without fractions (Bareiss, Math. Comp. 22,
    1968) of the first ncols columns of the integer matrix aug, in place.

    Returns (D, pivots).  Each step replaces every row a other than the
    pivot row b by (p·a − f·b) // prev, with p the new pivot, f the entry
    of a in the pivot column and prev the previous pivot (1 at first).
    Every entry stays a minor of the input, so the division is exact.  At
    the end the pivot rows hold the common pivot D (1 at rank 0) in their
    own pivot column and 0 in the others, and the rows below the rank
    vanish in the first ncols columns.

    A row with f = 0 is only multiplied by p/prev, and those factors
    telescope, so it is left as it is, current for the pivot stamp[r],
    until `current` needs it; at the end only the pivot rows are updated.
    """
    m = len(aug)
    pivots: list[int] = []
    prev = 1
    stamp = [1] * m

    def current(r: int) -> list[int]:
        if stamp[r] != prev:
            aug[r] = [a * prev // stamp[r] for a in aug[r]]
            stamp[r] = prev
        return aug[r]

    for col in range(ncols):
        prow = len(pivots)
        sel = next((r for r in range(prow, m) if aug[r][col]), None)
        if sel is None:
            continue
        if sel != prow:
            aug[sel], aug[prow] = aug[prow], aug[sel]
            stamp[sel], stamp[prow] = stamp[prow], stamp[sel]
        base = current(prow)
        p = base[col]
        for r in range(m):
            if aug[r][col] and r != prow:
                row = current(r)
                f = row[col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(row, base)]
                stamp[r] = p
        stamp[prow] = p
        pivots.append(col)
        prev = p
    for i in range(len(pivots)):
        current(i)
    return prev, pivots


def solve(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[int, list[int], list[list[int]]] | None:
    """Solve the integer system rows · x = rhs over ℚ, in integers.

    Returns (D, x, kernel) with D > 0, or None when the system is
    inconsistent.  x/D is the solution whose free variables are zero;
    kernel has one integer vector per free column, with D in that column
    and 0 in the other free columns.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    D, pivots = _eliminate(aug, ncols)
    rank = len(pivots)
    if any(row[ncols] for row in aug[rank:]):
        return None
    sign = 1 if D > 0 else -1
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = sign * aug[i][ncols]
    kernel = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = sign * D
        for i, col in enumerate(pivots):
            vec[col] = -sign * aug[i][free]
        kernel.append(vec)
    return sign * D, x, kernel

