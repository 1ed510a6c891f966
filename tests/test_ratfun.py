from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cyclotomic, int_exact_div, int_mul, one_minus_t_product

from wflag.intpoly import cyclotomic_valuation, div_one_minus_t_pow, mul_one_minus_t_pow
from wflag.ratfun import (
    DomainError,
    P_ONE,
    P_ZERO,
    RationalFunction,
    UniPolynomial,
    poly_gcd,
    series_of,
)


def monomial_counts(weights: tuple[int, ...], order: int) -> list[int]:
    """Independent oracle: number of monomials of each weighted degree.

    Standard coin-counting DP, no polynomial arithmetic involved.
    """
    dp = [1] + [0] * order
    for w in weights:
        for n in range(w, order + 1):
            dp[n] += dp[n - w]
    return dp


def test_monomial_count_oracle_agrees_with_brute_force():
    # sanity-check the oracle itself on a tiny case by direct enumeration
    weights = (1, 1, 2)
    order = 8
    direct = [0] * (order + 1)
    for exps in itertools.product(range(order + 1), repeat=len(weights)):
        d = sum(e * w for e, w in zip(exps, weights))
        if d <= order:
            direct[d] += 1
    assert monomial_counts(weights, order) == direct


T = UniPolynomial([0, 1])


def quotient(numer_weights, denom_weights) -> RationalFunction:
    """∏(1 − t^a) over numer_weights divided by the same over denom_weights."""
    return RationalFunction(
        one_minus_t_product(numer_weights), one_minus_t_product(denom_weights)
    )


def test_series_of_weighted_projective_space():
    weights = (1, 1, 1, 1, 2)
    f = quotient([], weights)
    s = series_of(f, 20)
    assert [s[i] for i in range(21)] == monomial_counts(weights, 20)


def test_series_of_hypersurface():
    # (1 - t^7) / ((1-t)^4 (1-t^2))
    weights = (1, 1, 1, 1, 2)
    f = quotient([7], weights)
    s = series_of(f, 20)
    dp = monomial_counts(weights, 20)
    expect = [dp[n] - (dp[n - 7] if n >= 7 else 0) for n in range(21)]
    assert list(s) == expect
    assert [s[0], s[1], s[2]] == [1, 4, 11]


def test_series_pole_at_origin():
    with pytest.raises(DomainError, match="pole at t=0"):
        series_of(RationalFunction(P_ONE, T), 5)
    # a removable factor of t must not trigger the pole error
    s = series_of(RationalFunction(T, T * UniPolynomial([1, -1])), 3)
    assert list(s) == [1, 1, 1, 1]


def test_canonical_form_and_equality():
    a = RationalFunction(UniPolynomial([2, 0, -2]), UniPolynomial([2, -2]))
    b = RationalFunction(UniPolynomial([1, 1]))
    assert a == b
    assert hash(a) == hash(b)
    assert a.den == P_ONE
    # denominator is monic after canonicalization
    c = RationalFunction(P_ONE, UniPolynomial([2, 4]))
    assert c.den.leading == 1
    assert c.num == UniPolynomial([Fraction(1, 4)])


def test_field_operations():
    one_minus_t = UniPolynomial([1, -1])
    f = RationalFunction(P_ONE, one_minus_t)
    g = RationalFunction(T, one_minus_t)
    assert f - g == RationalFunction(P_ONE)
    assert f + g == RationalFunction(UniPolynomial([1, 1]), one_minus_t)
    assert (f * g).den == UniPolynomial([1, -1]) ** 2
    assert -f + f == RationalFunction(P_ZERO)
    assert bool(f) and not bool(f - f)


small_polys = st.builds(
    UniPolynomial,
    st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=7),
)


def naive_gcd(a: UniPolynomial, b: UniPolynomial) -> UniPolynomial:
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


@settings(max_examples=80)
@given(small_polys, small_polys)
def test_poly_gcd_matches_naive_euclid(a, b):
    if a.is_zero() and b.is_zero():
        assert poly_gcd(a, b).is_zero()
        return
    assert poly_gcd(a, b) == naive_gcd(a, b)


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_divmod_is_division_with_remainder(a, b, c):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    # exactness detection
    assert ((a * b).exact_div(b)) == a


def test_exact_div_rejects_inexact():
    with pytest.raises(ValueError, match="not exact"):
        UniPolynomial([1, 1]).exact_div(UniPolynomial([0, 1]))


def test_truncated_series_bounds():
    s = series_of(quotient([], [1]), 2)
    assert s == (1, 1, 1) and len(s) == 3
    with pytest.raises(IndexError):
        s[3]


def test_polynomial_iteration_stops_at_the_degree():
    p = UniPolynomial([1, 2])
    assert list(itertools.islice(iter(p), 3)) == [1, 2]
    assert list(UniPolynomial()) == []
    assert 5 not in p and 2 in p
    assert UniPolynomial(p) == p


def test_polynomial_basics():
    p = UniPolynomial([0, 0, 5, 0])
    assert p.degree == 2 and p.coeffs == (0, 0, 5)
    assert UniPolynomial().degree == -1
    assert UniPolynomial.one_minus_t_pow(3) == UniPolynomial([1, 0, 0, -1])
    assert (T**3).coeffs == (0, 0, 0, 1)
    assert str(UniPolynomial([1, -1])) == "1 - t"


int_lists = st.lists(st.integers(-20, 20), max_size=8)


@given(int_lists, int_lists, st.integers(1, 5), st.integers(0, 3))
def test_integer_list_helpers_match_polynomials(a, b, r, times):
    pa, pb = UniPolynomial(a), UniPolynomial(b)
    b_times = mul_one_minus_t_pow(b, r, times)
    assert UniPolynomial(int_mul(a, b)) == pa * pb
    assert UniPolynomial(b_times) == pb * UniPolynomial.one_minus_t_pow(r) ** times
    if any(b):
        assert UniPolynomial(int_exact_div(int_mul(a, b_times), b_times)) == pa
    assert UniPolynomial(div_one_minus_t_pow(mul_one_minus_t_pow(a, r), r)) == pa


def test_int_exact_div_certifies():
    # (1 + 2t)(3 - t + t^2) / (3 - t + t^2)
    assert int_exact_div([3, 5, -1, 2], [3, -1, 1]) == [1, 2]
    with pytest.raises(ArithmeticError, match="not exact"):
        int_exact_div([3, 5, -1, 3], [3, -1, 1])
    # (1 + t^2) / 2t: the first quotient step is 1/2
    with pytest.raises(ArithmeticError, match="not integral"):
        int_exact_div([1, 0, 1], [0, 2])
    with pytest.raises(ZeroDivisionError):
        int_exact_div([1], [0, 0])


def test_div_one_minus_t_pow_certifies():
    # (1 + 2t)(1 − t²), with a trailing zero that the helper trims
    assert div_one_minus_t_pow([1, 2, -1, -2, 0], 2) == [1, 2]
    assert div_one_minus_t_pow([0, 0], 3) == []
    # 1 + t − t³ is 1 at t = 1, where 1 − t² vanishes
    with pytest.raises(ArithmeticError, match="not exact"):
        div_one_minus_t_pow([1, 1, 0, -1], 2)
    # a nonzero list shorter than r + 1 is not a multiple of 1 − t^r
    with pytest.raises(ArithmeticError, match="not exact"):
        div_one_minus_t_pow([1, -1, 0, 0], 2)


def test_cyclotomic_polynomials_multiply_to_t_pow_minus_one():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    for m in range(1, 41):
        product = [1]
        for e in range(1, m + 1):
            if m % e == 0:
                product = int_mul(product, cyclotomic(e))
        assert product == [-1] + [0] * (m - 1) + [1], m


@settings(max_examples=60)
@given(st.lists(st.integers(1, 30), max_size=8), int_lists.filter(any))
def test_cyclotomic_valuation_counts_divisible_weights(weights, b):
    # ∏(1 − t^{a_i}) vanishes at a primitive d-th root of unity once for
    # each a_i that d divides: the identity the pole-order bound rests on
    den = one_minus_t_product(weights)
    for d in range(1, 31):
        count = sum(1 for a in weights if a % d == 0)
        assert cyclotomic_valuation(den, d) == count
        v = cyclotomic_valuation(b, d)
        divides = not divmod(UniPolynomial(b), UniPolynomial(cyclotomic(d)))[1]
        assert (v > 0) == divides
        assert cyclotomic_valuation(int_mul(b, den), d) == v + count


def _divisions_by_reference(a: list[int], d: int) -> int:
    """The number of exact long divisions of a by the reference Φ_d."""
    v = 0
    while True:
        try:
            a = int_exact_div(a, cyclotomic(d))
        except ArithmeticError:
            return v
        v += 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(1, 40), st.integers(1, 2)), max_size=3),
    st.lists(st.integers(1, 40), max_size=4),
    int_lists.filter(any),
)
@example(1, 2, [(2, 1)], [1, 3], [1, 1])
def test_cyclotomic_valuation_matches_long_division(d, k, factors, weights, b):
    # a = b·Φ_d^k·∏Φ_{d_i}^{k_i}·∏(1 − t^{w_j}): the sparse passes against
    # long division by Φ_d built recursively
    a = b
    for di, ki in [(d, k), *factors]:
        for _ in range(ki):
            a = int_mul(a, cyclotomic(di))
    a = int_mul(a, one_minus_t_product(weights))
    assert cyclotomic_valuation(a, d) == _divisions_by_reference(a, d)


def test_cyclotomic_valuation_of_coprime_polynomials_is_zero():
    for d in range(1, 31):
        assert cyclotomic_valuation([1], d) == 0
        assert cyclotomic_valuation([0, 0, 0, 0, 0, 7], d) == 0
    # 1 + t + t² is Φ₃, and 1 − t + t² is Φ₆
    valuations = [cyclotomic_valuation([1, 1, 1], d) for d in range(1, 8)]
    assert valuations == [0, 0, 1, 0, 0, 0, 0]
    assert cyclotomic_valuation(int_mul([1, -1, 1], [1, -1, 1]), 6) == 2
    with pytest.raises(ZeroDivisionError):
        cyclotomic_valuation([0, 0], 2)
