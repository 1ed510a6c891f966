from __future__ import annotations

from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from wflag.linalg import det, solve


def _leibniz_det(matrix):
    """Σ over permutations of sign·∏ entries: a determinant that shares no
    code with the elimination."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def _rank(matrix):
    """Largest size of a nonzero minor, by Leibniz expansion."""
    m, n = len(matrix), len(matrix[0])
    for size in range(min(m, n), 0, -1):
        for rs in combinations(range(m), size):
            for cs in combinations(range(n), size):
                if _leibniz_det([[matrix[r][c] for c in cs] for r in rs]):
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


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_matches_leibniz_expansion(matrix):
    assert det(matrix) == _leibniz_det(matrix)


def test_det_matches_permutation_parity():
    for perm in permutations(range(4)):
        m = tuple(tuple(int(j == perm[i]) for j in range(4)) for i in range(4))
        inversions = sum(
            1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
        )
        assert det(m) == (-1) ** inversions
