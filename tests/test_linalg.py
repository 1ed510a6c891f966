from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import leibniz_det

from wflag.linalg import solve


def _rank(matrix):
    """Largest size of a nonzero minor, by Leibniz expansion."""
    m, n = len(matrix), len(matrix[0])
    for size in range(min(m, n), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(n), size):
                if leibniz_det([[matrix[r][c] for c in cs] for r in rs]):
                    return size
    return 0


def _apply(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


# zero half the time, so that rows often skip a step of the elimination
entries = st.just(0) | st.integers(-9, 9)


@st.composite
def systems(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    rhs = [draw(entries) for _ in range(m)]
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
    D, x, kernel = solved
    assert D > 0
    assert all(type(v) is int for vec in [x, *kernel] for v in vec)
    assert _apply(rows, x) == [D * b for b in rhs]
    assert len(kernel) == ncols - rank
    for vec in kernel:
        assert not any(_apply(rows, vec))
    # each kernel vector ends in the D of its free column (the columns to
    # its right are free or hold pivots of rows that vanish there)
    free = [max(i for i, v in enumerate(vec) if v) for vec in kernel]
    for f, vec in zip(free, kernel):
        assert vec[f] == D and x[f] == 0
        assert all(vec[g] == 0 for g in free if g != f)


def test_solve_returns_free_zero_solution_and_kernel():
    assert solve([[1, 2], [2, 4]], [3, 6]) == (1, [3, 0], [[-2, 1]])
    assert solve([[1, 2], [2, 4]], [3, 7]) is None
    assert solve([[2, 0], [0, 3]], [1, 1]) == (6, [3, 2], [])
    # a negative pivot still gives D > 0
    assert solve([[-2]], [1]) == (2, [-1], [])
    assert solve([[0, 0]], [0]) == (1, [0, 0], [[1, 0], [0, 1]])
