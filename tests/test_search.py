from __future__ import annotations

import multiprocessing
import os
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    common_denominator,
    degree_of,
    embedding_series,
    is_terminal_type,
    one_minus_t_product,
    reference_initial_term,
    solve_multiplicities,
    terminal_basket,
    value_at,
)

import wflag.orbifold as orbifold_module
import wflag.search as search_module
from wflag.formats import FORMATS, CocharacterParam, enumerate_parameters, hilbert_series
from wflag.linalg import solve
from wflag.orbifold import (
    QuotientSingularity,
    _certified,
    _integer_system,
    _shift,
    _target,
    basket_kernel,
    decompositions,
    fits,
    initial_term,
    qorb,
)
from wflag.ratfun import DomainError, RationalFunction, UniPolynomial
from wflag.search import (
    G2_FANO_TABLE,
    Candidate,
    SearchConfig,
    candidate_key,
    merge_candidates,
    pos_wt,
    search,
    search_embedding,
    sweep_parameters,
)

X7 = RationalFunction(one_minus_t_product([7]), one_minus_t_product([1, 1, 1, 1, 2]))


def Q(r, *weights):
    return QuotientSingularity(r, weights)


def embedding(mu, u):
    return hilbert_series(FORMATS["g2"], CocharacterParam(mu, u))


def series_on(data, parts) -> RationalFunction:
    den = UniPolynomial([1])
    for w in parts:
        den = den * UniPolynomial.one_minus_t_pow(w)
    return RationalFunction(data.numerator, den)


# ---------------------------------------------------------------------------
# pos_wt


def test_pos_wt_golden_small():
    assert pos_wt((1, 1, 1, 1, 2), 4, 5) == [(1, 1, 1, 2)]


def test_pos_wt_all_ones_when_sum_equals_size():
    for ambient in [(1, 1, 1, 1, 2), (1, 2, 3), (2, 2, 5, 5)]:
        s = len(ambient)
        assert pos_wt(ambient, s, s) == [(1,) * s]


def test_pos_wt_contains_known_fano_tuple():
    ambient = embedding((-1, 1), 3).weights
    assert ambient == (1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5)
    tuples = pos_wt(ambient, 12, 34)
    assert (1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5) in tuples


def test_pos_wt_caps_top_weight_multiplicity():
    # (1,2,3,3) is well-formed, but the ambient carries one copy of its top
    # weight 3, so no tuple may use two of them
    assert (1, 2, 3, 3) not in pos_wt((1, 2, 3), 4, 9)
    assert (1, 2, 3, 3) in pos_wt((1, 2, 3, 3), 4, 9)
    for parts in pos_wt((1, 1, 2, 2, 3), 4, 8):
        assert parts.count(3) <= 1


def test_pos_wt_edge_cases():
    # one entry is never well formed: removing it leaves gcd 0
    assert pos_wt((1,), 1, 1) == []
    assert pos_wt((1, 2, 3), 1, 3) == []
    # two entries are well formed only as (1, 1), which needs two top weights
    # when the top weight is 1
    assert pos_wt((1, 1), 2, 2) == [(1, 1)]
    assert pos_wt((1,), 2, 2) == []
    assert pos_wt((1, 2, 2), 2, 2) == [(1, 1)]
    assert pos_wt((1, 2), 2, 3) == []
    # a sum below the size has no tuple
    assert pos_wt((1, 2, 3), 4, 3) == []


def test_pos_wt_entries_only_bounded_by_top_weight():
    # entries below the maximum may exceed their ambient multiplicity (cones):
    # the ambient has a single 1 and a single 2, the tuple uses two of each
    assert (1, 1, 2, 2) in pos_wt((1, 2, 3), 4, 6)


def test_pos_wt_output_is_well_formed():
    for ambient, s, w in [((1, 2, 2, 3, 3, 4), 4, 10), ((1, 1, 2), 3, 7)]:
        for parts in pos_wt(ambient, s, w):
            assert sum(parts) == w
            assert all(p >= 1 for p in parts)
            for i in range(s):
                rest = parts[:i] + parts[i + 1 :]
                assert gcd(*rest) == 1


def test_pos_wt_excludes_non_well_formed():
    # (2, 2, 4) fails: deleting the 4 leaves gcd 2
    assert (2, 2, 4) not in pos_wt((1, 2, 4), 3, 8)


# ---------------------------------------------------------------------------
# degree_of


def test_degree_of_hypersurface():
    assert degree_of(X7, 3) == Fraction(7, 2)


def test_degree_of_table_rows():
    data = embedding((-1, 1), 3)
    row2 = series_on(data, (1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5))
    assert degree_of(row2, 3) == Fraction(9, 10)
    smooth = embedding((0, 0), 1)
    assert degree_of(series_on(smooth, (1,) * 12), 3) == Fraction(18)


def test_degree_of_rejects_residual_pole():
    f = RationalFunction(1, one_minus_t_product([1] * 5))  # 1/(1-t)^5
    with pytest.raises(DomainError, match="dimension mismatch"):
        degree_of(f, 3)


# ---------------------------------------------------------------------------
# solve_multiplicities


def test_solver_recovers_single_point():
    init = initial_term(X7, 3, 1)
    contribs = [qorb(Q(2, 1, 1, 1), 1, 3)]
    assert solve_multiplicities(X7, init, contribs) == [1]


def test_solver_smooth_gives_zeros():
    data = embedding((0, 0), 1)
    series = series_on(data, (1,) * 12)
    init = initial_term(series, 3, -1)
    assert series == init
    contribs = [qorb(Q(2, 1, 1, 1), -1, 3), qorb(Q(3, 1, 1, 2), -1, 3)]
    assert solve_multiplicities(series, init, contribs) == [0, 0]


def test_solver_recovers_table_row_multiplicities():
    data = embedding((-1, 1), 4)
    series = series_on(data, (2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5))
    init = initial_term(series, 3, -1)
    contribs = [
        qorb(Q(2, 1, 1, 1), -1, 3),
        qorb(Q(3, 1, 1, 2), -1, 3),
        qorb(Q(5, 3, 4, 4), -1, 3),
    ]
    assert solve_multiplicities(series, init, contribs) == [2, 6, 3]


def test_solver_rejects_impossible_targets():
    init = initial_term(X7, 3, 1)
    contribs = [qorb(Q(3, 1, 2, 2), 1, 3)]  # wrong index for the X7 data
    assert solve_multiplicities(X7, init, contribs) is None


def _random_isolated_type(rng: random.Random, k: int) -> QuotientSingularity:
    while True:
        r = rng.randrange(2, 10)
        units = [a for a in range(1, r) if gcd(a, r) == 1]
        weights = tuple(rng.choice(units) for _ in range(3))
        if (k + sum(weights)) % r == 0:
            return QuotientSingularity(r, weights)


def _independent_contributions(contribs) -> bool:
    """Nonsingular evaluation system <=> planted multiplicities are unique."""
    j = len(contribs)
    rows = [
        [value_at(c.value, Fraction(x)) for c in contribs]
        for x in range(2, j + 2)
    ]
    for col in range(j):
        pivot = next((i for i in range(col, j) if rows[i][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, j):
            if rows[i][col]:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return True


def test_solver_recovers_planted_baskets():
    rng = random.Random(20240817)
    trials = 0
    while trials < 25:
        k = rng.choice([-1, 0, 1])
        want = rng.randrange(1, 5)
        types: dict[QuotientSingularity, int] = {}
        while len(types) < want:
            sing = _random_isolated_type(rng, k)
            if qorb(sing, k, 3).value.is_zero():
                continue
            types.setdefault(sing, rng.randrange(0, 7))
        contribs = [qorb(s, k, 3) for s in types]
        if not _independent_contributions(contribs):
            continue  # a dependent set has no unique planted solution
        trials += 1
        base = RationalFunction(
            UniPolynomial([1, rng.randrange(0, 4), rng.randrange(0, 4)]),
            UniPolynomial.one_minus_t_pow(1) ** 4,
        )
        planted = list(types.values())
        series = base
        for contrib, m in zip(contribs, planted):
            series = series + contrib.value * m
        solved = solve_multiplicities(series, base, contribs)
        assert solved == planted, f"trial {trials}: {solved} != {planted}"


def test_exact_stage_needs_an_exact_division():
    # X7 = X_7 ⊂ P(1,1,1,1,2): P_X − P_I = −t³/((1−t)³(1−t²)) = N0/den with
    # N0 = −t³ + t⁴, den = (1−t)⁴(1−t²), and C = (1−t)³(1−t²) for the one type
    parts = (1, 1, 1, 1, 2)
    types = [Q(2, 1, 1, 1)]
    assert decompositions(types, [1, 0, 0, 0, 0, 0, 0, -1], parts, 1, 3) == [
        {Q(2, 1, 1, 1): 1}
    ]
    # l = 3, so the target is R·t^{−3} = −1, and V_Q = β_Q = −1
    assert _target(types, [1, 0, 0, 0, 0, 0, 0, -1], parts, 1, 3) == (types, [-1])
    # H = 1 + t⁶ − t⁷ gives N0 = −t³ + t⁴ + t⁶, and N0·C/den is no polynomial
    assert _target(types, [1, 0, 0, 0, 0, 0, 1, -1], parts, 1, 3) is None
    assert decompositions(types, [1, 0, 0, 0, 0, 0, 1, -1], parts, 1, 3) == []
    # the smooth case: the quintic in P⁴ at k = 0 is its own initial term,
    # so N0 = 0 and the one basket is the empty one
    assert decompositions((), [1, 0, 0, 0, 0, -1], (1,) * 5, 0, 3) == [{}]


def _rf_degree(f: RationalFunction) -> int:
    return f.num.degree - f.den.degree


@pytest.mark.parametrize(
    "format_name, k, params",
    [
        ("g2", -1, {"u_max": 3}),
        ("g2", 1, {"u_max": 3}),
        ("gr25", 1, {"q_max": 12}),
        ("g2", -7, {"u_max": 5}),
    ],
    ids=["g2-k-1-u3", "g2-k1-u3", "gr25-k1-q12", "g2-k-7-u5"],
)
def test_integrality_filter_matches_rational_functions(monkeypatch, format_name, k, params):
    """The first exact filter against the unfiltered rational-function path,
    with P_I from the reference `reference_initial_term`: for every tuple,
    the kept types are those whose P_Q has at most the degree of P_X − P_I,
    and the target is (P_X − P_I)·C·t^{−l} over their C when that product
    is a polynomial, and there is none when it is not.  At k = −7 the shift
    l is negative."""
    calls = []

    def spy(types, H, parts, k, n):
        found = _target(types, H, parts, k, n)
        calls.append((types, parts, found))
        return found

    monkeypatch.setattr(orbifold_module, "_target", spy)
    fmt = FORMATS[format_name]
    l = _shift(k, 3)
    shift = RationalFunction([0] * max(-l, 0) + [1], [0] * max(l, 0) + [1])
    integral = rejected = 0
    for param in enumerate_parameters(fmt, **params):
        data = hilbert_series(fmt, param)
        calls.clear()
        search_embedding(format_name, param, k=k, n=3)
        for types, parts, found in calls:
            series = RationalFunction(data.numerator, one_minus_t_product(parts))
            difference = series - reference_initial_term(series, 3, k)
            if difference.is_zero():
                assert found == ([], [])
                continue
            top = _rf_degree(difference)
            kept = [q for q in types if _rf_degree(qorb(q, k, 3).value) <= top]
            product = difference * shift * common_denominator(kept, 3)
            if kept and product.den == UniPolynomial([1]):
                integral += 1
                assert found is not None and found[0] == kept
                assert UniPolynomial(found[1]) == product.num
            else:
                rejected += 1
                assert found is None
    assert integral and rejected


#: The censuses of the differential tests of the folded systems, by test id.
FOLDED_CENSUSES = {
    "g2-k-1-u5": SearchConfig(format_name="g2", k=-1, n=3, u_max=5),
    "g2-k1-u4": SearchConfig(format_name="g2", k=1, n=3, u_max=4),
    "g2-k-7-u5": SearchConfig(format_name="g2", k=-7, n=3, u_max=5),
    "g2-k-3-u6": SearchConfig(format_name="g2", k=-3, n=3, u_max=6),
    "gr25-k1-q12": SearchConfig(format_name="gr25", k=1, n=3, q_max=12),
    # at q ≤ 12 the check rejects none of the 11 systems of gr25 k = −1
    "gr25-k-1-q16": SearchConfig(format_name="gr25", k=-1, n=3, q_max=16),
}

#: `_folded_system` switched off: a folded system with no unknowns, which
#: neither folded cut rejects.
NO_FOLDED_SYSTEM = (1, [], [])


@pytest.mark.parametrize(
    "census, systems, below_largest",
    [
        ("g2-k-1-u5", 21, 18),
        ("g2-k1-u4", 19, 9),
        ("g2-k-7-u5", 0, 0),
        ("g2-k-3-u6", 9, 113),
        ("gr25-k1-q12", 7, 0),
        ("gr25-k-1-q16", 21, 15),
    ],
    ids=list(FOLDED_CENSUSES),
)
def test_modulo_t_d_minus_1_check_matches_the_unfiltered_solve(
    monkeypatch, census, systems, below_largest
):
    """The check modulo t^d − 1 at every kept index against the exact stage
    without it: the same candidates, and every tuple it rejects has no
    basket.  Pinned: the full systems `decompositions` still builds, and the
    tuples that the largest index passes and a smaller one rejects.  At
    k = −7 the shift l is negative."""
    config = FOLDED_CENSUSES[census]
    check = orbifold_module._folded_system
    integer_system = orbifold_module._integer_system
    checked = []  # (d, rejected) for each index checked in one call
    indices = []
    built = []

    def spy_check(kept, kept_indices, target, d, k, n):
        indices[:] = sorted({q.r for q in kept}, reverse=True)
        assert kept_indices == tuple(indices[::-1])
        solved = check(kept, kept_indices, target, d, k, n)
        checked.append((d, solved is None))
        return solved

    def spy_system(*args):
        built.append(args)
        return integer_system(*args)

    rejected = []
    smaller = 0

    def spy(*args):
        nonlocal smaller
        checked.clear()
        found = decompositions(*args)
        # largest index first, stopping at the first rejection
        assert [d for d, _ in checked] == indices[: len(checked)]
        assert not any(verdict for _, verdict in checked[:-1])
        if checked and checked[-1][1]:
            rejected.append(args)
            smaller += len(checked) > 1
        return found

    monkeypatch.setattr(orbifold_module, "_folded_system", spy_check)
    monkeypatch.setattr(orbifold_module, "_integer_system", spy_system)
    monkeypatch.setattr(search_module, "decompositions", spy)
    filtered = search(config)
    # `_emit` builds the zero-sum systems of `basket_kernel` with R = 0
    assert sum(1 for args in built if args[1]) == systems
    assert smaller == below_largest
    monkeypatch.setattr(orbifold_module, "_folded_system", lambda *args: NO_FOLDED_SYSTEM)
    assert search(config) == filtered
    assert rejected
    for args in rejected:
        assert decompositions(*args) == []


@pytest.mark.parametrize(
    "census, cut",
    [
        ("g2-k-1-u5", 10),
        ("g2-k1-u4", 5),
        ("g2-k-7-u5", 0),
        ("g2-k-3-u6", 25),
        ("gr25-k1-q12", 0),
        ("gr25-k-1-q16", 0),
    ],
    ids=list(FOLDED_CENSUSES),
)
def test_polytope_cut_matches_the_unfiltered_solve(monkeypatch, census, cut):
    """The cut of the folded systems that have no real point m ≥ 0 against
    the exact stage without it: the same candidates, and every tuple it
    rejects has no basket without either folded cut.  Pinned: the tuples it
    rejects, each one full system fewer."""
    config = FOLDED_CENSUSES[census]
    empty = orbifold_module._polytope_empty
    verdicts = []
    rejected = []

    def spy_cut(*solved):
        verdicts.append(empty(*solved))
        return verdicts[-1]

    def spy(*args):
        verdicts.clear()
        found = decompositions(*args)
        if verdicts and verdicts[-1]:
            assert found == []
            rejected.append(args)
        return found

    monkeypatch.setattr(orbifold_module, "_polytope_empty", spy_cut)
    monkeypatch.setattr(search_module, "decompositions", spy)
    filtered = search(config)
    assert len(rejected) == cut
    monkeypatch.setattr(orbifold_module, "_polytope_empty", lambda *solved: False)
    assert search(config) == filtered
    monkeypatch.setattr(orbifold_module, "_folded_system", lambda *args: NO_FOLDED_SYSTEM)
    for args in rejected:
        assert decompositions(*args) == []


@pytest.mark.parametrize(
    "format_name, k, n, bounds",
    [
        ("g2", -1, 3, {"u_max": 4}),
        ("g2", 0, 3, {"u_max": 4}),
        ("g2", 1, 3, {"u_max": 4}),
        ("g2", -1, 3, {"params": (CocharacterParam((-2, 2), 5),)}),
        ("g2", 1, 2, {"u_max": 4}),
        ("gr25", 1, 3, {"q_max": 12}),
        ("gr25", -1, 3, {"q_max": 12}),
    ],
    ids=[
        "g2-k-1-u4", "g2-k0-u4", "g2-k1-u4", "g2-k-1-mu-2.2-u5",
        "g2-n2-k1-u4", "gr25-k1-q12", "gr25-k-1-q12",
    ],
)
def test_pole_order_filter_matches_unfiltered_search(monkeypatch, format_name, k, n, bounds):
    """The pole-order caps against the enumeration bounded by the prime bounds
    of well-formedness alone: the same candidates on every embedding, never
    more tuples scanned and fewer somewhere, and the unbounded count equal to
    the number of tuples `pos_wt` enumerates."""
    config = SearchConfig(format_name=format_name, k=k, n=n, **bounds)
    fmt = FORMATS[format_name]
    s = n + fmt.codimension + 1
    pole_caps = search_module._pole_caps
    cut = 0
    for param in sweep_parameters(config):
        monkeypatch.setattr(search_module, "_pole_caps", pole_caps)
        cands, scanned = search_embedding(format_name, param, k=k, n=n)
        monkeypatch.setattr(search_module, "_pole_caps", lambda H, wmax, s: {})
        unbounded_cands, unbounded = search_embedding(format_name, param, k=k, n=n)
        assert cands == unbounded_cands, param
        data = hilbert_series(fmt, param)
        assert unbounded == len(pos_wt(data.weights, s, data.adjunction_number - k))
        assert scanned <= unbounded, param
        cut += unbounded - scanned
    assert cut > 0


def _brute_force_enumeration(ambient, s, w, bounds):
    """`_iter_pos_wt` by filtering every size-s multiset from [1, max(ambient)]
    by its sum, its number of top weights and each divisor bound."""
    wmax = max(ambient)
    return [
        parts
        for parts in combinations_with_replacement(range(1, wmax + 1), s)
        if sum(parts) == w
        and parts.count(wmax) <= ambient.count(wmax)
        and all(sum(1 for p in parts if p % d == 0) <= b for d, b in bounds.items())
    ]


def test_enumeration_matches_brute_force_at_the_g2_shape():
    """On every embedding of g2 k=−1 u≤5 (s = 12, up to C(20, 12) multisets),
    the enumeration gives the brute-force list in the same order, under the
    search's bounds and under those of well-formedness alone (`pos_wt`'s)."""
    k, s = -1, 12
    for param in sweep_parameters(SearchConfig(k=k, u_max=5)):
        data = hilbert_series(FORMATS["g2"], param)
        w = data.adjunction_number - k
        wmax = max(data.weights)
        caps = search_module._pole_caps(data.numerator, wmax, s)
        for bounds in (
            search_module._divisor_bounds(wmax, s, caps),
            search_module._divisor_bounds(wmax, s, {}),
        ):
            expected = _brute_force_enumeration(data.weights, s, w, bounds)
            assert search_module._iter_pos_wt(data.weights, s, w, bounds) == expected, param


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=6),
    st.integers(0, 3),
    st.integers(1, 6),
    st.integers(0, 30),
    st.dictionaries(st.integers(2, 8), st.integers(0, 6)),
)
def test_bounded_enumeration_matches_filtered_pos_wt(ambient, extra_tops, s, w, caps):
    """The incremental divisor counts cut exactly the tuples of `pos_wt`
    with some #{i : d | p_i} above its cap, and keep the order; `pos_wt`
    itself matches a brute-force scan with the gcd test for well-formedness.
    The top weight of the ambient repeats `extra_tops` more times."""
    wmax = max(ambient)
    ambient = ambient + [wmax] * extra_tops
    brute = [
        parts
        for parts in combinations_with_replacement(range(1, wmax + 1), s)
        if sum(parts) == w
        and parts.count(wmax) <= ambient.count(wmax)
        and all(gcd(*parts[:i], *parts[i + 1 :]) == 1 for i in range(s))
    ]
    assert pos_wt(ambient, s, w) == brute
    bounds = search_module._divisor_bounds(wmax, s, caps)
    expected = [
        parts
        for parts in pos_wt(ambient, s, w)
        if all(sum(1 for p in parts if p % d == 0) <= cap for d, cap in caps.items())
    ]
    found = search_module._iter_pos_wt(ambient, s, w, bounds)
    assert found == expected
    assert all(a < b for a, b in zip(found, found[1:]))


# ---------------------------------------------------------------------------
# search_embedding and search


def _assert_identity(cand: Candidate) -> None:
    """Re-verify the defining series identity from scratch."""
    den = UniPolynomial([1])
    for w in cand.x_weights:
        den = den * UniPolynomial.one_minus_t_pow(w)
    series = RationalFunction(cand.numerator, den)
    total = initial_term(series, cand.n, cand.k)
    for sing, mult in cand.basket:
        total = total + qorb(sing, cand.k, cand.n).value * mult
    assert total == series
    assert degree_of(series, cand.n) == cand.degree
    assert cand.degree > 0
    assert cand.smooth == (not cand.basket)


def test_search_embedding_trivial_weights():
    cands, scanned = search_embedding("g2", CocharacterParam((0, 0), 1))
    assert scanned == 1
    assert len(cands) == 1
    assert cands[0].smooth
    assert cands[0].x_weights == (1,) * 12
    assert cands[0].degree == 18
    _assert_identity(cands[0])


def test_search_embedding_u3_candidates():
    cands, _ = search_embedding("g2", CocharacterParam((-1, 1), 3))
    by_key = {candidate_key(c): c for c in cands}
    published = (
        (1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5),
        ((2, (1, 1, 1), 9), (5, (3, 4, 4), 1)),
    )
    assert published in by_key
    cand = by_key[published]
    assert cand.degree == Fraction(9, 10)
    for c in cands:
        _assert_identity(c)


def _kept_filter_drop() -> Candidate:
    """A certified decomposition at g2 (−2,2) u=5, k=1 that the search does
    not emit: the degree rule on the types (`kept` in
    `orbifold.decompositions`) drops 1/7(3,5,5), whose P_Q has a higher
    degree than P_X − P_I."""
    return Candidate(
        "g2", (-2, 2), 5, (1, 3, 3, 3, 3, 5, 5, 5, 5, 7, 7, 7), 1, 3,
        Fraction(2, 7), ((Q(3, 1, 2, 2), 9), (Q(7, 3, 5, 5), 3)), (), False,
        embedding((-2, 2), 5).numerator,
    )


def test_decomposition_dropped_by_the_kept_filter_is_certified():
    _assert_identity(_kept_filter_drop())


@pytest.mark.xfail(
    strict=True,
    reason="the degree rule on the types in orbifold.decompositions is unproven "
    "and drops this certified decomposition",
)
def test_kept_filter_keeps_certified_decompositions():
    cands, _ = search_embedding("g2", CocharacterParam((-2, 2), 5), k=1)
    assert candidate_key(_kept_filter_drop()) in {candidate_key(c) for c in cands}


#: The candidates of the g2 k=−3 u≤6 census, all on two embeddings whose
#: `basket_kernel` calls see kernels of dimension 2, 5 and 14.
G2_K_MINUS_3_CANDIDATES = (
    ((-2, 3), 5, (2, 2, 3, 4, 4, 5, 5, 5, 6, 7, 7, 8), Fraction(27, 280),
     ((2, (1, 1, 1), 11), (5, (2, 2, 4), 2), (7, (1, 3, 6), 1),
      (7, (2, 4, 4), 1), (8, (5, 7, 7), 1))),
    ((-2, 3), 5, (2, 2, 3, 4, 4, 5, 5, 5, 6, 7, 7, 8), Fraction(27, 280),
     ((2, (1, 1, 1), 11), (5, (2, 2, 4), 2), (7, (1, 4, 5), 1),
      (7, (2, 2, 6), 1), (8, (5, 7, 7), 1))),
    ((-2, 3), 5, (2, 2, 3, 4, 4, 5, 5, 5, 6, 7, 7, 8), Fraction(27, 280),
     ((4, (1, 1, 1), 11), (4, (1, 3, 3), 11), (5, (2, 2, 4), 2),
      (7, (1, 3, 6), 1), (7, (2, 4, 4), 1), (8, (5, 7, 7), 1))),
    ((-2, 3), 5, (2, 2, 3, 4, 4, 5, 5, 5, 6, 7, 7, 8), Fraction(27, 280),
     ((4, (1, 1, 1), 11), (4, (1, 3, 3), 11), (5, (2, 2, 4), 2),
      (7, (1, 4, 5), 1), (7, (2, 2, 6), 1), (8, (5, 7, 7), 1))),
    ((-2, 3), 5, (2, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7), Fraction(9, 140),
     ((2, (1, 1, 1), 7), (4, (1, 3, 3), 1), (5, (1, 3, 4), 2),
      (5, (2, 2, 4), 2), (7, (2, 4, 4), 1), (7, (5, 6, 6), 1))),
    ((-2, 3), 5, (2, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7), Fraction(9, 140),
     ((4, (1, 1, 1), 7), (4, (1, 3, 3), 8), (5, (1, 3, 4), 2),
      (5, (2, 2, 4), 2), (7, (2, 4, 4), 1), (7, (5, 6, 6), 1))),
    ((-3, 4), 6, (1, 2, 3, 4, 5, 5, 6, 7, 8, 8, 9, 11), Fraction(27, 220),
     ((2, (1, 1, 1), 1), (5, (1, 3, 4), 1), (8, (1, 5, 5), 1),
      (8, (3, 3, 5), 1), (11, (8, 8, 9), 1))),
    ((-3, 4), 6, (1, 2, 3, 4, 5, 5, 6, 7, 8, 8, 9, 11), Fraction(27, 220),
     ((2, (1, 1, 1), 1), (5, (2, 2, 4), 1), (5, (2, 3, 3), 1),
      (8, (1, 5, 5), 1), (8, (3, 3, 5), 1), (11, (8, 8, 9), 1))),
)


def test_integer_kernel_walk_on_the_k_minus_3_census():
    params = (CocharacterParam((-2, 3), 5), CocharacterParam((-3, 4), 6))
    cands = search(SearchConfig(format_name="g2", k=-3, n=3, params=params))
    got = tuple(
        (c.mu, c.u, c.x_weights, c.degree,
         tuple((s.r, s.weights, m) for s, m in c.basket))
        for c in cands
    )
    assert got == G2_K_MINUS_3_CANDIDATES
    for c in cands:
        assert c.kernels == ()
        _assert_identity(c)


def test_exact_solutions_are_pairwise_distinct(monkeypatch):
    """The combinations of per-component vertices are distinct solutions, so
    `decompositions` needs no set of those already returned; on g2 k=−3
    u≤6, whose kernels reach dimension 14."""
    calls = []

    def spy(*args):
        calls.append(decompositions(*args))
        return calls[-1]

    monkeypatch.setattr(search_module, "decompositions", spy)
    search(SearchConfig(format_name="g2", k=-3, n=3, u_max=6))
    for solutions in calls:
        keys = {tuple(sorted(solution.items())) for solution in solutions}
        assert len(keys) == len(solutions)
    assert max(map(len, calls)) >= 4


def _whole_kernel_walk(types, extended_weights, k, n):
    """The walk `basket_kernel` made before it split the kernel into
    components: every 0/1 pattern of the whole kernel basis."""
    types = tuple(types)
    if len(types) < 2:
        return ()
    rows, rhs = _integer_system(types, [], k, n)
    D, _, kernel = solve(rows, rhs)
    out = []
    for mask in range(1, 1 << len(kernel)):
        total = [0] * len(types)
        for i, vec in enumerate(kernel):
            if (mask >> i) & 1:
                total = [a + b for a, b in zip(total, vec)]
        if any(v not in (0, D) for v in total):
            continue
        member = [v // D for v in total]
        subset = tuple(t for t, used in zip(types, member) if used)
        if len(subset) < 2 or not fits(subset, extended_weights):
            continue
        if _certified(rows, rhs, member):
            out.append(subset)
    out.sort(key=lambda s: tuple((t.r, t.weights) for t in s))
    return tuple(out)


def test_component_kernel_walk_matches_the_whole_kernel_walk(monkeypatch):
    """`basket_kernel` against the whole-kernel walk on the types of every
    emitting tuple of g2 k=1 u≤5 (3 of 20 calls find collections) and of
    g2 k=−3 u≤6 (kernels up to dimension 14)."""
    calls = []

    def spy(*args):
        calls.append(args)
        return basket_kernel(*args)

    monkeypatch.setattr(search_module, "basket_kernel", spy)
    search(SearchConfig(format_name="g2", k=1, n=3, u_max=5))
    search(SearchConfig(format_name="g2", k=-3, n=3, u_max=6))
    found = 0
    for args in calls:
        got = basket_kernel(*args)
        assert got == _whole_kernel_walk(*args), args
        found += bool(got)
    assert len(calls) == 23 and found == 3


#: Each cap of the kernel walks, lowered to one below the most its walk sees
#: on an embedding, and the tuple the embedding then stops at: the 0/1
#: pattern walk of g2 k=−3 (5 vectors in a component at most) and the
#: vertex walk of table row 2's embedding (6 zero sets and 2 combinations).
KERNEL_WALK_CAPS = [
    ("_PATTERN_WALK_MAX_VECTORS", 4, (-3, 4), 6, -3, "1,2,3,4,5^2,6,7,8^2,9,11"),
    ("_VERTEX_WALK_MAX_ZERO_SETS", 5, (-1, 1), 3, -1, "1^2,2^3,3^3,4^3,5"),
    ("_VERTEX_WALK_MAX_COMBINATIONS", 1, (-1, 1), 3, -1, "1^2,2^3,3^3,4^3,5"),
]


@pytest.mark.parametrize("cap, value, mu, u, k, parts", KERNEL_WALK_CAPS)
def test_a_kernel_walk_cap_names_the_tuple(monkeypatch, cap, value, mu, u, k, parts):
    monkeypatch.setattr(orbifold_module, cap, value)
    with pytest.raises(DomainError) as info:
        search_embedding("g2", CocharacterParam(mu, u), k=k)
    label = ",".join(map(str, mu))
    assert str(info.value) == (
        f"g2 mu=({label}) u={u} P[{parts}]: kernel search space too large"
    )


def test_search_dedup_and_order():
    config = SearchConfig(format_name="g2", k=-1, n=3, u_max=3)
    merged = search(config)
    keys = [candidate_key(c) for c in merged]
    assert len(keys) == len(set(keys))
    sums = [sum(c.x_weights) for c in merged]
    assert sums == sorted(sums)
    # deterministic: a second run gives the same list
    assert [candidate_key(c) for c in search(config)] == keys


def test_search_matches_worker_pool():
    base = SearchConfig(format_name="g2", k=-1, n=3, u_max=3)
    parallel = SearchConfig(format_name="g2", k=-1, n=3, u_max=3, jobs=2)
    assert [candidate_key(c) for c in search(base)] == [
        candidate_key(c) for c in search(parallel)
    ]


def test_pool_never_exceeds_the_embeddings(monkeypatch):
    forks = []
    fork = os.fork

    def spy():
        forks.append(None)  # counted in this process, before the fork
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    params = sweep_parameters(SearchConfig(format_name="g2", u_max=2))[:2]
    assert len(params) == 2
    config = SearchConfig(format_name="g2", k=-1, n=3, jobs=4, params=params)
    results = list(search_module.iter_search(config))
    assert len(forks) == 2
    assert [(r.mu, r.u) for r in results] == [(p.mu, p.u) for p in params]


def _last_cpu() -> int:
    """Field 39 of /proc/self/stat: the CPU this process last ran on."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _placement_report(conn) -> None:
    """In a forked child: start as a sweep worker would, given an allowed CPU
    other than the one the child runs on, and report where it ran next and
    which CPUs it may use."""
    cpus = sorted(os.sched_getaffinity(0))
    i = next(i for i, cpu in enumerate(cpus) if cpu != _last_cpu())
    search_module._place_worker(i)
    conn.send((cpus[i], _last_cpu(), sorted(os.sched_getaffinity(0))))


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="placement needs sched_setaffinity and two allowed CPUs",
)
def test_worker_starts_on_the_cpu_it_was_given():
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_placement_report, args=(send,))
    child.start()
    assert receive.poll(30), "the child sent no report"
    given, ran_on, allowed = receive.recv()
    child.join(30)
    assert not child.is_alive() and child.exitcode == 0
    assert ran_on == given
    # the inherited set is restored: the worker is not left pinned
    assert allowed == sorted(os.sched_getaffinity(0))


def _drain(q) -> list:
    items = []
    while not q.empty():
        items.append(q.get())
    return items


def test_refused_placement_does_not_break_a_sweep(monkeypatch):
    refused = multiprocessing.get_context("fork").SimpleQueue()

    def refuse(pid, cpus):
        refused.put(sorted(cpus))
        raise OSError(1, "Operation not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    # first in this process: a refused move must not raise
    search_module._place_worker(0)
    _drain(refused)
    base = SearchConfig(format_name="g2", k=-1, n=3, u_max=3)
    serial = [candidate_key(c) for c in search(base)]
    assert serial
    parallel = SearchConfig(format_name="g2", k=-1, n=3, u_max=3, jobs=2)
    assert [candidate_key(c) for c in search(parallel)] == serial
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        assert len(_drain(refused)) == 2  # each worker tried once, and went on


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
def test_more_workers_than_cpus_wrap_round_robin(monkeypatch):
    placed = multiprocessing.get_context("fork").SimpleQueue()
    place = os.sched_setaffinity

    def spy(pid, cpus):
        placed.put(sorted(cpus))
        place(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", spy)
    params = sweep_parameters(SearchConfig(format_name="g2", u_max=3))[:3]
    assert len(params) == 3
    base = SearchConfig(format_name="g2", k=-1, n=3, params=params)
    serial = [candidate_key(c) for c in search(base)]
    parallel = SearchConfig(format_name="g2", k=-1, n=3, params=params, jobs=3)
    assert [candidate_key(c) for c in search(parallel)] == serial
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        # each worker moves onto one CPU, then gets the whole set back
        calls = _drain(placed)
        assert sorted(c for c in calls if len(c) == 1) == sorted(
            [cpus[i % len(cpus)]] for i in range(3)
        )
        assert [c for c in calls if len(c) > 1] == [cpus] * 3


@contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging: SIGALRM interrupts the block after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_at(monkeypatch, param: CocharacterParam, fail) -> None:
    """Make the scan of one embedding call `fail()`; the others run as usual."""
    scan = search_module.search_embedding

    def patched(format_name, p, k=-1, n=3):
        if p == param:
            fail()
        return scan(format_name, p, k=k, n=n)

    monkeypatch.setattr(search_module, "search_embedding", patched)


U3 = SearchConfig(format_name="g2", k=-1, n=3, u_max=3, jobs=2)


def test_a_dead_worker_is_an_error_not_a_hang(monkeypatch):
    params = sweep_parameters(U3)
    assert len(params) >= 3
    victim = params[1]
    parent = os.getpid()

    def die():
        if os.getpid() != parent:  # never this test's own process
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_at(monkeypatch, victim, die)
    mu = ",".join(str(a) for a in victim.mu)
    with _deadline(60), pytest.raises(DomainError) as info:
        list(search_module.iter_search(U3))
    assert f"g2 mu=({mu}) u={victim.u}" in str(info.value)
    assert f"exit status {-signal.SIGKILL}" in str(info.value)
    _assert_no_child_left()


def test_an_exception_in_a_worker_is_raised_in_the_parent(monkeypatch):
    def fail():
        raise ZeroDivisionError("raised in a worker")

    _failing_at(monkeypatch, sweep_parameters(U3)[-1], fail)
    with _deadline(60), pytest.raises(ZeroDivisionError, match="raised in a worker"):
        list(search_module.iter_search(U3))
    _assert_no_child_left()


def test_closing_the_sweep_early_reaps_every_worker():
    with _deadline(60):
        sweep = search_module.iter_search(U3)
        first = next(sweep)
        sweep.close()
    head = sweep_parameters(U3)[0]
    assert (first.mu, first.u) == (head.mu, head.u)
    _assert_no_child_left()


def test_sweep_time_is_a_float_in_ms():
    # whole milliseconds would read 0 for most gr25 embeddings
    params = sweep_parameters(SearchConfig(format_name="gr25", q_max=7))
    config = SearchConfig(format_name="gr25", k=1, n=3, params=params)
    results = list(search_module.iter_search(config))
    assert results
    for r in results:
        assert isinstance(r.elapsed_ms, float)
        assert r.elapsed_ms > 0 and round(r.elapsed_ms, 3) == r.elapsed_ms


def test_search_submodule_is_not_shadowed():
    import wflag.search

    assert wflag.search.search_embedding is search_embedding
    assert wflag.search.search is search


def test_every_exported_name_resolves():
    import wflag

    for name in wflag.__all__:
        assert hasattr(wflag, name), name
    namespace: dict = {}
    exec("from wflag import *", namespace)
    assert set(wflag.__all__) <= set(namespace)


def test_sweep_parameters_bounds():
    config = SearchConfig(format_name="g2", k=-1, n=3, u_max=4)
    params = sweep_parameters(config)
    assert params
    assert all(p.u <= 4 for p in params)


def test_sweep_parameters_census():
    # distinct-embedding counts of the bounded sweeps, matching the
    # previously published tallies for u <= 7, 9 and 10
    counts = {
        u_max: len(sweep_parameters(SearchConfig(format_name="g2", u_max=u_max)))
        for u_max in (7, 9, 10)
    }
    assert counts == {7: 23, 9: 41, 10: 53}


def test_merge_candidates_dedups():
    cands, _ = search_embedding("g2", CocharacterParam((0, 0), 1))
    merged = merge_candidates(cands + cands)
    assert len(merged) == len(cands)


def test_search_finds_early_table_rows():
    merged = search(SearchConfig(format_name="g2", k=-1, n=3, u_max=4))
    by_key = {candidate_key(c): c for c in merged}
    for row in G2_FANO_TABLE:
        if row["u"] > 4:
            continue
        basket = tuple(sorted(row["basket"]))
        key = (row["weights"], tuple((s.r, s.weights, m) for s, m in basket))
        assert key in by_key, f"missing table row {row['weights']}"
        cand = by_key[key]
        assert cand.degree == row["degree"]
        assert bool(cand.kernels) == row["kernel"]


# ---------------------------------------------------------------------------
# terminality predicates


TERMINAL_TYPES = [
    Q(2, 1, 1, 1),
    Q(3, 1, 1, 2),
    Q(4, 1, 1, 3),
    Q(5, 1, 1, 4),
    Q(5, 1, 2, 3),
    Q(7, 1, 2, 5),
    Q(8, 1, 3, 5),
]

NON_TERMINAL_TYPES = [
    Q(4, 3, 3, 3),
    Q(5, 3, 4, 4),
    Q(7, 4, 5, 6),
    Q(7, 2, 3, 3),
    Q(8, 3, 7, 7),
    Q(9, 4, 7, 8),
    Q(11, 6, 8, 9),
    Q(13, 7, 9, 11),
]


@pytest.mark.parametrize("sing", TERMINAL_TYPES, ids=str)
def test_terminal_types(sing):
    assert is_terminal_type(sing)


@pytest.mark.parametrize("sing", NON_TERMINAL_TYPES, ids=str)
def test_non_terminal_types(sing):
    assert not is_terminal_type(sing)


def test_terminal_type_brute_force_oracle():
    # 1/r(a, r-a, r-1) up to unit scaling, with every weight coprime to r
    for r in range(2, 12):
        units = [c for c in range(1, r) if gcd(c, r) == 1]
        expected = set()
        for a in units:
            if gcd(r - a, r) == 1 and gcd(r - 1, r) == 1:
                base = tuple(sorted((a % r, (r - a) % r, (r - 1) % r)))
                if all(base):
                    for c in units:
                        expected.add(tuple(sorted(c * w % r for w in base)))
        for ws in [
            (a, b, c)
            for a in units
            for b in units
            for c in units
            if a <= b <= c
        ]:
            sing = Q(r, *ws)
            assert is_terminal_type(sing) == (ws in expected), sing


def test_terminal_basket_predicate():
    cands, _ = search_embedding("g2", CocharacterParam((-1, 1), 3))
    assert cands
    for cand in cands:
        expected = bool(cand.basket) and all(
            is_terminal_type(s) for s, _ in cand.basket
        )
        assert terminal_basket(cand) == expected


def test_terminal_rejects_wrong_dimension():
    with pytest.raises(DomainError):
        is_terminal_type(QuotientSingularity(5, (1, 4)))
