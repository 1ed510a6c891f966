from __future__ import annotations

import dataclasses

import pytest
from oracles import (
    closed_form_numerator,
    embedding_series,
    graded_series_coefficients,
    k_polynomial,
    k_table_source,
)

from wflag.formats import (
    CocharacterParam,
    FORMATS,
    G2_FORMAT,
    GR25_FORMAT,
    ambient_weights,
    enumerate_parameters,
    hilbert_series,
    weight_multiplicities,
)
from wflag.ratfun import DomainError, UniPolynomial, series_of


def P(mu, u):
    return CocharacterParam(tuple(mu), u)


def test_ambient_weight_goldens():
    assert ambient_weights(G2_FORMAT, P((0, 0), 1)) == (1,) * 14
    assert ambient_weights(G2_FORMAT, P((-1, 1), 3)) == (
        1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5,
    )
    assert ambient_weights(G2_FORMAT, P((-1, 1), 4)) == (
        2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6,
    )
    assert ambient_weights(G2_FORMAT, P((-2, 3), 4)) == (
        1, 1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 7, 7,
    )
    assert ambient_weights(G2_FORMAT, P((-4, 6), 7)) == (
        1, 1, 3, 5, 5, 7, 7, 7, 7, 9, 9, 11, 13, 13,
    )
    assert ambient_weights(G2_FORMAT, P((-3, 4), 7)) == (
        2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 9, 10, 11, 12,
    )
    assert ambient_weights(GR25_FORMAT, P((0, 0, 0, 0, 0), 1)) == (1,) * 10
    assert ambient_weights(GR25_FORMAT, P((0, 1, 2, 3, 4), 1)) == (
        2, 3, 4, 4, 5, 5, 6, 6, 7, 8,
    )


def test_ambient_weight_positivity():
    with pytest.raises(DomainError, match="nonpositive ambient weight"):
        ambient_weights(G2_FORMAT, P((3, 0), 1))
    with pytest.raises(DomainError, match="nonpositive ambient weight"):
        ambient_weights(GR25_FORMAT, P((0, 0, 0, 0, 5), 0))


def test_adjoint_variety_numerator():
    e = hilbert_series(G2_FORMAT, P((0, 0), 1))
    assert e.numerator == (1, 0, -28, 105, -162, 84, 84, -162, 105, -28, 0, 1)
    assert e.adjunction_number == 11
    assert e.sigma == -3
    # classical degree of the 5-dimensional adjoint variety
    assert sum(e.numerator_reduced) == 18


def test_grassmannian_numerator():
    e = hilbert_series(GR25_FORMAT, P((0, 0, 0, 0, 0), 1))
    assert e.numerator == (1, 0, -5, 5, 0, -1)
    assert e.adjunction_number == 5
    assert e.sigma == -5


def test_weighted_embedding_invariants():
    e = hilbert_series(G2_FORMAT, P((-1, 1), 3))
    assert e.adjunction_number == 33
    assert e.sigma == -9
    assert e.weights == ambient_weights(G2_FORMAT, P((-1, 1), 3))
    assert sum(e.numerator_reduced) == 93312
    # Gorenstein symmetry of the numerator
    q, h = e.adjunction_number, e.numerator
    assert len(h) == q + 1 and h[::-1] == h
    g = hilbert_series(GR25_FORMAT, P((0, 1, 2, 3, 4), 1))
    q, h = g.adjunction_number, g.numerator
    assert len(h) == q + 1 and h[::-1] == tuple(-c for c in h)
    reduced = UniPolynomial(g.numerator_reduced)
    assert reduced * UniPolynomial([1, -1]) ** 3 == UniPolynomial(h)


CROSS_CHECK_CASES = [
    (G2_FORMAT, P((0, 0), 1)),  # every root orthogonal to mu
    (G2_FORMAT, P((-1, 1), 3)),  # one root orthogonal to mu
    (G2_FORMAT, P((-3, 4), 7)),  # no root orthogonal to mu
    (GR25_FORMAT, P((0, 0, 0, 0, 0), 1)),
    (GR25_FORMAT, P((0, 1, 1, 2, 2), 1)),
    (GR25_FORMAT, P((0, 1, 2, 3, 4), 1)),
]


@pytest.mark.parametrize("fmt,param", CROSS_CHECK_CASES)
def test_closed_form_matches_graded_characters(fmt, param):
    e = hilbert_series(fmt, param)
    order = 14
    graded = graded_series_coefficients(fmt, param, order)
    ser = series_of(embedding_series(e), order)
    assert [ser[i] for i in range(order + 1)] == graded


def test_closed_form_matches_graded_characters_on_censuses():
    # every embedding of two small censuses, degenerate mu (k > 0) included
    censuses = [
        (GR25_FORMAT, enumerate_parameters(GR25_FORMAT, None, 12)),
        (G2_FORMAT, enumerate_parameters(G2_FORMAT, 3)),
    ]
    assert [len(params) for _, params in censuses] == [14, 4]
    for fmt, params in censuses:
        for param in params:
            e = hilbert_series(fmt, param)
            q = e.adjunction_number
            coeffs = list(e.numerator) + [0] * q
            coeffs = coeffs[: q + 1]
            for w in e.weights:
                for i in range(w, q + 1):
                    coeffs[i] += coeffs[i - w]
            assert coeffs == graded_series_coefficients(fmt, param, q), param


def _flipped(fmt, i):
    """The format with the sign of its i-th K term flipped."""
    terms = list(fmt.k_polynomial)
    a, nu, c = terms[i]
    terms[i] = (a, nu, -c)
    return dataclasses.replace(fmt, k_polynomial=tuple(terms))


@pytest.mark.parametrize(
    "fmt,param",
    [
        # H comes out, but of the wrong degree
        (dataclasses.replace(GR25_FORMAT, adjunction_coefficients=(5, 3)), P((0, 1, 2, 3, 4), 1)),
        # one flipped coefficient of K breaks the Gorenstein antisymmetry
        (_flipped(GR25_FORMAT, 6), P((0, 0, 1, 1, 2), 1)),
    ],
)
def test_closed_form_certificate_rejects_inconsistent_formats(fmt, param):
    # the K table is not part of the cache key, so the cache is bypassed
    with pytest.raises(ArithmeticError, match="format data inconsistent"):
        hilbert_series.__wrapped__(fmt, param)


@pytest.mark.parametrize(
    "fmt,param", [(GR25_FORMAT, P((0, 1, 2, 3, 4), 1)), (G2_FORMAT, P((-3, 4), 7))]
)
def test_every_flipped_k_coefficient_is_rejected(fmt, param):
    for i in range(len(fmt.k_polynomial)):
        with pytest.raises(ArithmeticError, match="format data inconsistent"):
            hilbert_series.__wrapped__(_flipped(fmt, i), param)


@pytest.mark.parametrize("fmt", [G2_FORMAT, GR25_FORMAT], ids=lambda f: f.name)
def test_stored_k_polynomial_matches_weight_multiplicities(fmt):
    # on a mismatch the message is the table to paste into wflag/formats.py
    expected = k_polynomial(fmt)
    source = k_table_source(f"_{fmt.name.upper()}_K", expected)
    assert fmt.k_polynomial == expected, "regenerated table:\n" + source
    assert len(expected) == {"g2": 250, "gr25": 12}[fmt.name]


@pytest.mark.parametrize("fmt", [G2_FORMAT, GR25_FORMAT], ids=lambda f: f.name)
def test_stored_weight_system_matches_freudenthal(fmt):
    expected = tuple(sorted(weight_multiplicities(fmt, 1).items()))
    assert fmt.weight_system == expected
    assert len(expected) == {"g2": 13, "gr25": 10}[fmt.name]


def test_numerators_match_the_weyl_closed_form():
    censuses = [
        (GR25_FORMAT, enumerate_parameters(GR25_FORMAT, None, 25)),
        (G2_FORMAT, enumerate_parameters(G2_FORMAT, 7)),
    ]
    assert [len(params) for _, params in censuses] == [282, 23]
    for fmt, params in censuses:
        for param in params:
            e = hilbert_series(fmt, param)
            assert list(e.numerator) == closed_form_numerator(fmt, param, e.weights), param


def test_weight_multiplicities_api():
    w0 = weight_multiplicities(G2_FORMAT, 0)
    assert w0 == {(0, 0): 1}
    w1 = weight_multiplicities(G2_FORMAT, 1)
    assert sum(w1.values()) == 14 and w1[(0, 0)] == 2
    v1 = weight_multiplicities(GR25_FORMAT, 1)
    assert sum(v1.values()) == 10 and all(m == 1 for m in v1.values())
    with pytest.raises(DomainError):
        weight_multiplicities(G2_FORMAT, -1)


def test_enumerate_parameters_small():
    got = enumerate_parameters(G2_FORMAT, 3)
    assert got == (P((0, 0), 1), P((0, 0), 2), P((-1, 1), 3), P((0, 0), 3))
    got4 = enumerate_parameters(G2_FORMAT, 4)
    assert got4[:4] == got
    assert got4[4:] == (P((-2, 3), 4), P((-1, 1), 4), P((0, 0), 4))


def test_enumerate_parameters_requires_bound():
    with pytest.raises(DomainError, match="u_max"):
        enumerate_parameters(G2_FORMAT)
    with pytest.raises(DomainError, match="q_max"):
        enumerate_parameters(GR25_FORMAT, 5)


def test_enumerate_parameters_gr25():
    got = enumerate_parameters(GR25_FORMAT, None, 15)
    mus = {(p.mu, p.u) for p in got}
    assert ((0, 0, 0, 0, 0), 1) in mus
    assert ((0, 0, 0, 0, 0), 2) in mus
    assert ((0, 0, 0, 0, 1), 1) in mus
    # a parameter only reachable with a negative shift
    assert ((0, 2, 2, 2, 2), -1) in mus
    seen = set()
    for p in got:
        ws = ambient_weights(GR25_FORMAT, p)
        assert ws not in seen
        seen.add(ws)
        q = 5 * p.u + 2 * sum(p.mu)
        assert 5 <= q <= 15
    sums = [sum(ambient_weights(GR25_FORMAT, p)) for p in got]
    assert sums == sorted(sums)


def test_format_registry():
    assert set(FORMATS) == {"g2", "gr25"}
    for fmt in FORMATS.values():
        assert len(fmt.positive_roots) >= fmt.lie_rank
        n_coords = fmt.dimension + fmt.codimension + 1
        assert len(ambient_weights(fmt, P((0,) * len(fmt.highest_weight), 1))) == n_coords
