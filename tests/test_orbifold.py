from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    baskets,
    coefficients,
    common_denominator,
    one_minus_t_product,
    reference_initial_term,
    reference_porb_cont,
    subset_gcds,
)

import wflag.search as search_module
from wflag.orbifold import (
    OrbifoldContribution,
    QuotientSingularity,
    _integer_system,
    _kernel_components,
    _local_column,
    _shift,
    basket_kernel,
    gcd_closure,
    initial_term,
    porb_cont,
    qorb,
)
from wflag.ratfun import (
    DomainError,
    P_ONE,
    RF_ZERO,
    RationalFunction,
    UniPolynomial,
)
from wflag.search import SearchConfig, iter_search, search


def Q(r, *weights):
    return QuotientSingularity(r, weights)


def rf_quotient(num_weights, den_weights):
    return RationalFunction(
        one_minus_t_product(num_weights), one_minus_t_product(den_weights)
    )


def test_type_validation():
    with pytest.raises(DomainError, match="index"):
        QuotientSingularity(1, (0,))
    with pytest.raises(DomainError, match="at least one weight"):
        QuotientSingularity(5, ())
    with pytest.raises(DomainError, match="strictly between"):
        QuotientSingularity(5, (0, 1, 2))
    with pytest.raises(DomainError, match="strictly between"):
        QuotientSingularity(5, (1, 2, 5))
    assert Q(5, 4, 3, 4).weights == (3, 4, 4)
    assert str(Q(5, 3, 4, 4)) == "1/5(3,4,4)"


def test_qorb_domain_errors():
    with pytest.raises(DomainError, match="weight count"):
        qorb(Q(5, 1, 2), -1)
    with pytest.raises(DomainError, match="canonical weight not compatible"):
        qorb(Q(5, 1, 2, 3), 0)
    with pytest.raises(DomainError, match="non-isolated type"):
        qorb(Q(6, 2, 3, 1), 0)


def test_qorb_worked_example():
    # canonical weight 1: the half point contributes -t^3 / ((1-t)^3 (1-t^2))
    contrib = qorb(Q(2, 1, 1, 1), 1)
    assert contrib.value == RationalFunction(
        UniPolynomial([0, 0, 0, -1]),
        UniPolynomial([1, -1]) ** 3 * UniPolynomial([1, 0, -1]),
    )
    assert contrib.numerator == UniPolynomial([0, 0, 0, -1])


# numerators over (1-t)^3 (1-t^r) for canonical weight -1, checked by hand
FANO_NUMERATORS = {
    Q(2, 1, 1, 1): [0, 0, 1],
    Q(3, 1, 1, 2): [0, 0, 1, 1],
    Q(4, 1, 1, 3): [0, 0, 1, 1, 1],
    Q(4, 3, 3, 3): [0, 0, 0, -1],
    Q(5, 3, 4, 4): [0, 0, 1, 0, 0, 1],
    Q(5, 1, 2, 3): [0, 0, 2, 1, 1, 2],
    Q(5, 2, 2, 2): [0, 0, -3, -1, -1, -3],
    Q(5, 1, 1, 4): [0, 0, 1, 1, 1, 1],
}


@pytest.mark.parametrize("sing,coeffs", FANO_NUMERATORS.items(), ids=str)
def test_qorb_fano_numerators(sing, coeffs):
    assert qorb(sing, -1).numerator == UniPolynomial(coeffs)


def test_initial_term_worked_example():
    series = rf_quotient([7], [1, 1, 1, 1, 2])
    init = initial_term(series, 3, 1)
    assert init == RationalFunction(
        UniPolynomial([1, 0, 1, 1, 0, 1]), UniPolynomial([1, -1]) ** 4
    )
    # the orbifold decomposition closes up exactly
    assert series == init + qorb(Q(2, 1, 1, 1), 1).value


def test_initial_term_edges():
    series = rf_quotient([], [1, 1, 1, 1])
    assert initial_term(series, 3, -5) == RF_ZERO
    # c = 0: a single middle coefficient
    init = initial_term(series, 3, -4)
    assert init == RationalFunction(P_ONE, UniPolynomial([1, -1]) ** 4)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.integers(1, 5), max_size=6),
)
def test_initial_term_matches_the_reference(numerator, weights):
    """One integer-generic formula against the monomial-by-monomial one over
    ℚ, on every c = k + n + 1 from −6 to 9: negative, even and odd."""
    series = RationalFunction(UniPolynomial(numerator), one_minus_t_product(weights))
    for n in range(1, 5):
        for k in range(-8, 5):
            assert initial_term(series, n, k) == reference_initial_term(series, n, k)


def _gauss_solve(rows, rhs):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][-1] for i in range(n)]


def oracle_qorb_value(sing: QuotientSingularity, k: int, n: int = 3):
    """Independent route: solve for the unique window-supported numerator N
    with N * B0 = 1 modulo the r-th cyclotomic-like factor A."""
    r = sing.r
    c = k + n + 1
    lo = c // 2 + 1
    one_minus_t = UniPolynomial([1, -1])
    a_poly = UniPolynomial.one_minus_t_pow(r).exact_div(one_minus_t)
    b0 = P_ONE
    for ai in sing.weights:
        b0 = b0 * UniPolynomial.one_minus_t_pow(ai)
    b0 = b0.exact_div(one_minus_t**n)
    cols = []
    rem = divmod(UniPolynomial([0] * lo + [1]) * b0, a_poly)[1]
    for _ in range(r - 1):
        cols.append(coefficients(rem, r - 1))
        rem = divmod(UniPolynomial([0, 1]) * rem, a_poly)[1]  # t^{lo+i+1}·b0
    rows = [[cols[j][i] for j in range(r - 1)] for i in range(r - 1)]
    x = _gauss_solve(rows, [1] + [0] * (r - 2))
    num = UniPolynomial([0] * lo + list(x))
    return RationalFunction(
        num, one_minus_t**n * UniPolynomial.one_minus_t_pow(r)
    )


def _valid_types(r_max, n=3):
    for r in range(2, r_max + 1):
        pool = [a for a in range(1, r) if gcd(a, r) == 1]
        for ws in combinations_with_replacement(pool, n):
            yield QuotientSingularity(r, ws)


def test_qorb_matches_linear_solve_oracle():
    checked = 0
    for n in (1, 2, 3, 4):
        for sing in _valid_types(11, n):
            for k in (-1, 0, 1, 2):
                if (k + sum(sing.weights)) % sing.r:
                    continue
                got = qorb(sing, k, n).value
                assert got == oracle_qorb_value(sing, k, n), (sing, k, n)
                checked += 1
    assert checked > 700


# Below k = −n − 3 the shift l = ⌊(k+n+1)/2⌋ + 1 is negative: the value is
# t^l·β/((1−t)ⁿ(1−t^r)) with a pole at t = 0 unless t^{−l} divides β, and
# the numerator over (1−t)ⁿ(1−t^r) is then None.  Entries: type, k, n, the
# value as (numerator, power of t in the denominator), the numerator.
NEGATIVE_SHIFT_GOLDENS = [
    (Q(4, 1), -5, 1, ([1], 0), [1]),
    (Q(5, 1), -6, 1, ([1], 0), [1]),
    (Q(3, 1), -7, 1, ([-1, -1], 2), None),
    (Q(5, 2), -7, 1, ([-1, 0, 0, -1], 2), None),
    (Q(3, 1, 1), -8, 2, ([-1, -1], 2), None),
    (Q(2, 1, 1, 1), -7, 3, ([-1], 1), None),
    (Q(5, 1, 2, 3), -11, 3, ([2, 1, 1, 2], 3), None),
]


@pytest.mark.parametrize("sing,k,n,value,numerator", NEGATIVE_SHIFT_GOLDENS)
def test_qorb_negative_shift_goldens(sing, k, n, value, numerator):
    num, shift = value
    contrib = qorb(sing, k, n)
    den = (
        UniPolynomial([0] * shift + [1])
        * UniPolynomial([1, -1]) ** n
        * UniPolynomial.one_minus_t_pow(sing.r)
    )
    assert contrib.value == RationalFunction(UniPolynomial(num), den)
    if numerator is None:
        assert contrib.numerator is None
    else:
        assert contrib.numerator == UniPolynomial(numerator)


def test_numerator_window_and_symmetry():
    for sing in _valid_types(9):
        for k in (-1, 0, 1, 2):
            if (k + sum(sing.weights)) % sing.r:
                continue
            contrib = qorb(sing, k)
            num = contrib.numerator
            assert num is not None
            c = k + 4
            if not num.is_zero():
                assert not any(num.coeffs[: c // 2 + 1])
                assert num.degree <= c // 2 + sing.r - 1
            # palindromic about (k + n + r) / 2
            padded = coefficients(num, k + 4 + sing.r)
            assert padded[::-1] == padded


def test_gcd_closure():
    assert gcd_closure([4, 6]) == frozenset({4, 6, 2})
    assert gcd_closure([4, 6, 9]) == frozenset({4, 6, 9, 2, 3, 1})
    assert gcd_closure([5]) == frozenset({5})


@settings(max_examples=100)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=8), st.data())
def test_gcd_closure_is_every_subset_gcd(values, data):
    """The fold gives the gcd of every nonempty sub-multiset, and neither
    the order of the values nor a repeat changes it."""
    expect = subset_gcds(values)
    assert gcd_closure(values) == expect
    repeats = data.draw(st.lists(st.sampled_from(values), max_size=4))
    assert gcd_closure(data.draw(st.permutations(values + repeats))) == expect


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 24), min_size=1, max_size=10),
    st.integers(1, 4),
    st.integers(-4, 2),
)
def test_porb_cont_matches_the_reference(weights, n, k):
    assert porb_cont(weights, n, k) == reference_porb_cont(weights, n, k)


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(format_name="g2", k=-1, n=3, u_max=5),
        SearchConfig(format_name="gr25", k=1, n=3, q_max=16),
    ],
    ids=["g2-k-1-u5", "gr25-k1-q16"],
)
def test_porb_cont_matches_the_reference_on_every_scanned_tuple(monkeypatch, config):
    """The censuses of the two benchmark workloads: every tuple the scan
    hands to `porb_cont` gets the types and extended weights of the
    reference."""
    calls = []

    def spy(parts, n, k):
        result = porb_cont(parts, n, k)
        calls.append((parts, n, k, result))
        return result

    monkeypatch.setattr(search_module, "porb_cont", spy)
    scanned = sum(result.tuples_scanned for result in iter_search(config))
    assert len(calls) == scanned > 0
    for parts, n, k, result in calls:
        assert result == reference_porb_cont(parts, n, k), parts


def test_porb_cont_fano_example():
    weights = (1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5)
    types, extended = porb_cont(weights, 3, -1)
    assert extended == tuple(sorted(weights))
    assert types == (
        Q(2, 1, 1, 1),
        Q(3, 1, 1, 2),
        Q(4, 1, 1, 3),
        Q(4, 3, 3, 3),
        Q(5, 1, 2, 3),
        Q(5, 2, 2, 2),
        Q(5, 3, 4, 4),
    )


def test_porb_cont_extends_weights():
    types, extended = porb_cont((4, 6, 9, 5, 3, 7), 3, -1)
    assert extended == (1, 2, 3, 4, 5, 6, 7, 9)
    # index 2 sees residues of the weights coprime to 2 only
    r2 = [t for t in types if t.r == 2]
    assert r2 == [Q(2, 1, 1, 1)]


def test_baskets_small():
    t1, t2 = Q(2, 1, 1, 1), Q(3, 1, 1, 2)
    got = baskets((t1, t2), (2, 3))
    assert set(got) == {(t1,), (t2,), (t1, t2)}
    # capacity one for index 2: two distinct types of index 2 cannot coexist
    u1, u2 = Q(5, 1, 2, 3), Q(5, 2, 2, 2)
    got2 = baskets((u1, u2), (5,))
    assert set(got2) == {(u1,), (u2,)}


def test_kernel_pair_opposite_types():
    a, b = Q(5, 3, 3, 4), Q(5, 1, 2, 2)
    assert qorb(a, 0).value + qorb(b, 0).value == RF_ZERO
    assert basket_kernel((a, b), (5, 5), 0) == ((a, b),)
    # with capacity for only one index-5 point the relation is inadmissible
    assert basket_kernel((a, b), (5,), 0) == ()


def test_kernel_triple():
    triple = (Q(5, 1, 2, 3), Q(5, 2, 2, 2), Q(5, 3, 4, 4))
    total = sum((qorb(t, -1).value for t in triple), RF_ZERO)
    assert total == RF_ZERO
    got = basket_kernel(triple, (5, 5, 5, 2), -1)
    assert got == (triple,)
    # brute-force cross-check: no proper sub-pair vanishes
    for pair in combinations_with_replacement(triple, 2):
        if pair[0] is not pair[1]:
            assert qorb(pair[0], -1).value + qorb(pair[1], -1).value != RF_ZERO


def test_kernel_brute_force_equivalence():
    from collections import Counter
    from itertools import combinations as icomb

    # mixed indices, one planted relation, plus unrelated compatible types
    k = 0
    candidates = (
        Q(2, 1, 1, 1),  # sum 3, incompatible with k = 0: filtered out below
        Q(3, 1, 1, 1),
        Q(5, 3, 3, 4),
        Q(5, 1, 2, 2),
        Q(7, 1, 2, 4),
    )
    usable = tuple(
        t for t in candidates if (k + sum(t.weights)) % t.r == 0
    )
    assert len(usable) >= 3
    extended = (2, 3, 5, 5, 7)
    got = set(basket_kernel(usable, extended, k))
    brute = set()
    ext = Counter(extended)
    for size in range(2, len(usable) + 1):
        for sub in icomb(usable, size):
            cnt = Counter(t.r for t in sub)
            if any(cnt[r] > ext[r] for r in cnt):
                continue
            if sum((qorb(t, k).value for t in sub), RF_ZERO) == RF_ZERO:
                brute.add(tuple(sub))
    assert got == brute
    assert (Q(5, 3, 3, 4), Q(5, 1, 2, 2)) in got


def test_kernel_components_join_overlapping_supports():
    # the fourth vector joins the components of the first two
    kernel = [[1, 0, 1, 0, 0, 0], [0, 1, 0, 0, 2, 0], [0, 0, 0, 0, 0, 5], [0, 0, 3, 0, 1, 0]]
    assert _kernel_components(kernel) == [
        ([0, 1, 2, 4], [kernel[0], kernel[1], kernel[3]]),
        ([5], [kernel[2]]),
    ]
    assert _kernel_components([]) == []


@pytest.mark.parametrize("k, u_max", [(-7, 5), (-3, 4), (-1, 4), (1, 4)])
def test_system_columns_are_the_contributions(monkeypatch, k, u_max):
    """Column Q of `_integer_system`, times t^l/C, is qorb(Q).value, for
    every type of every scanned tuple of a small g2 census; at k = −7 the
    shift l is negative.  A column depends on the type and on the tuple's
    indices."""
    seen = set()

    def spy(parts, n, k):
        result = porb_cont(parts, n, k)
        seen.add(result[0])
        return result

    monkeypatch.setattr(search_module, "porb_cont", spy)
    search(SearchConfig(format_name="g2", k=k, n=3, u_max=u_max))
    l = _shift(k, 3)
    t_l = UniPolynomial([0] * max(l, 0) + [1])
    t_minus_l = UniPolynomial([0] * max(-l, 0) + [1])
    checked = set()
    for types in seen - {()}:
        rows, rhs = _integer_system(types, [], k, 3)
        assert not any(rhs)
        indices = frozenset(t.r for t in types)
        C = common_denominator(types, 3)
        for j, sing in enumerate(types):
            if (sing, indices) in checked:
                continue
            checked.add((sing, indices))
            column = UniPolynomial([row[j] for row in rows])
            assert RationalFunction(column * t_l, C * t_minus_l) == qorb(sing, k, 3).value
    assert checked


@pytest.mark.parametrize(
    "types",
    [
        # 2 divides 4, so the columns of index 2 vanish modulo t^2 − 1
        (Q(2, 1, 1, 1), Q(4, 1, 1, 3), Q(4, 3, 3, 3), Q(5, 1, 2, 3), Q(5, 2, 2, 2)),
        (Q(3, 1, 1, 2), Q(5, 1, 2, 3), Q(7, 1, 1, 6), Q(7, 1, 2, 5)),
    ],
    ids=["K-2-4-5", "K-3-5-7"],
)
def test_local_columns_fold_the_system_columns(types):
    """`_local_column` is the `_integer_system` column of its type folded
    modulo t^d − 1, d its index, also against the larger kept indices."""
    rows, _ = _integer_system(types, [], -1, 3)
    indices = tuple(sorted({q.r for q in types}))
    for j, sing in enumerate(types):
        folded = [0] * sing.r
        for i, row in enumerate(rows):
            folded[i % sing.r] += row[j]
        assert _local_column(sing, indices, -1, 3) == tuple(folded)
        assert any(folded) == all(r % sing.r for r in indices if r != sing.r)


def test_kernel_walk_per_component():
    # 40 types, a kernel of dimension 26 in components of dimension 2, 4, 9
    # and 11: the whole-kernel walk of 2^26 patterns was refused
    types, extended = porb_cont((1, 2, 3, 3, 3, 4, 5, 5, 6, 7, 8, 9, 11), 4, -1)
    assert len(types) == 40
    start = time.perf_counter()
    got = basket_kernel(types, extended, -1, 4)
    assert time.perf_counter() - start < 1
    assert got == (
        (Q(5, 1, 1, 1, 3), Q(5, 1, 2, 4, 4)),
        (Q(5, 1, 1, 2, 2), Q(5, 1, 3, 3, 4)),
    )


small_types = st.sampled_from(list(_valid_types(6)))


@settings(max_examples=40)
@given(small_types, st.integers(-1, 2))
def test_qorb_is_cached_and_consistent(sing, k):
    if (k + sum(sing.weights)) % sing.r:
        with pytest.raises(DomainError):
            qorb(sing, k)
        return
    first = qorb(sing, k)
    assert qorb(sing, k) is first
    assert isinstance(first, OrbifoldContribution)
    # value and numerator describe the same function
    one_minus_t = UniPolynomial([1, -1])
    denom = one_minus_t**3 * UniPolynomial.one_minus_t_pow(sing.r)
    assert first.value == RationalFunction(first.numerator, denom)
