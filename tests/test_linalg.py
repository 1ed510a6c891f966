from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from wflag.linalg import solve
from wflag.weyl import int_det


def _rank(matrix):
    """Largest size of a nonzero minor: a rank that shares no code with the
    solver."""
    m, n = len(matrix), len(matrix[0])
    for size in range(min(m, n), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(n), size):
                det = int_det(tuple(tuple(matrix[r][c] for c in cs) for r in rs))
                if det != 0:
                    return size
    return 0


def _apply(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


@st.composite
def systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [draw(entry) for _ in range(m)]
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_agrees_with_ranks(system):
    rows, rhs = system
    ncols = len(rows[0])
    rank = _rank(rows)
    solved = solve(rows, rhs)
    if solved is None:
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        assert _rank(augmented) > rank
        return
    x, kernel = solved
    assert _apply(rows, x) == rhs
    assert len(kernel) == ncols - rank
    for vec in kernel:
        assert not any(_apply(rows, vec))
    # each kernel vector ends in the 1 of its free column (the columns to
    # its right are free or hold pivots of rows that vanish there)
    free = [max(i for i, v in enumerate(vec) if v) for vec in kernel]
    for f, vec in zip(free, kernel):
        assert vec[f] == 1 and x[f] == 0
        assert all(vec[g] == 0 for g in free if g != f)
    assert all(isinstance(v, Fraction) for vec in [x, *kernel] for v in vec)


def test_solve_returns_free_zero_solution_and_kernel():
    assert solve([[1, 2], [2, 4]], [3, 6]) == ([3, 0], [[-2, 1]])
    assert solve([[1, 2], [2, 4]], [3, 7]) is None
    assert solve([[2, 0], [0, 3]], [1, 1]) == ([Fraction(1, 2), Fraction(1, 3)], [])

