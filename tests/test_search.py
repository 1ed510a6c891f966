from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    degree_of,
    embedding_series,
    is_terminal_type,
    solve_multiplicities,
    terminal_basket,
)

import wflag.search as search_module
from wflag.formats import FORMATS, CocharacterParam, enumerate_parameters, hilbert_series
from wflag.linalg import solve
from wflag.orbifold import (
    QuotientSingularity,
    _certified,
    _coefficient_system,
    _shift,
    basket_kernel,
    fits,
    initial_term,
    qorb,
    type_vectors,
)
from wflag.ratfun import DomainError, RationalFunction, UniPolynomial, denominator_poly
from wflag.search import (
    G2_FANO_TABLE,
    _exact_solutions,
    _integral_target,
    Candidate,
    SearchConfig,
    candidate_key,
    merge_candidates,
    pos_wt,
    search,
    search_embedding,
    sweep_parameters,
)

X7 = RationalFunction.from_quotient_weights([7], [1, 1, 1, 1, 2])


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
    f = RationalFunction.from_quotient_weights([], [1] * 5)  # 1/(1-t)^5
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
        [c.value.evaluate(Fraction(x)) for c in contribs]
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
    # den = (1−t)⁴(1−t²), and C = (1−t)³(1−t²) for the one type
    parts = (1, 1, 1, 1, 2)
    kept = [Q(2, 1, 1, 1)]
    assert _exact_solutions(kept, [0, 0, 0, -1, 1], parts, 1, 3) == [{Q(2, 1, 1, 1): 1}]
    # N0 = 1 leaves N0·C/den = 1/(1−t), which is no polynomial
    assert _exact_solutions(kept, [1], parts, 1, 3) == []


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
    """The first exact filter against the unfiltered rational-function path:
    for every tuple with kept types, the target is (P_X − P_I)·C·t^{−l} when
    that product is a polynomial, and there is no solution when it is not.
    At k = −7 the shift l is negative."""
    calls = []

    def spy(kept, N0, parts, k, n):
        solutions = _exact_solutions(kept, N0, parts, k, n)
        calls.append((kept, N0, parts, solutions))
        return solutions

    monkeypatch.setattr(search_module, "_exact_solutions", spy)
    fmt = FORMATS[format_name]
    integral = rejected = 0
    for param in enumerate_parameters(fmt, **params):
        data = hilbert_series(fmt, param)
        # H = P·∏(1 − t^w) over the ambient weights, a polynomial
        H = embedding_series(data) * UniPolynomial(denominator_poly(data.weights, sum(data.weights)))
        assert H.den == UniPolynomial([1])
        calls.clear()
        search_embedding(format_name, param, k=k, n=3)
        for kept, N0, parts, solutions in calls:
            series = RationalFunction(H.num, denominator_poly(parts, sum(parts)))
            _, C = type_vectors(kept, k, 3)
            l = _shift(k, 3)
            product = (series - initial_term(series, 3, k)) * RationalFunction(
                UniPolynomial(C) * UniPolynomial.monomial(max(-l, 0)),
                UniPolynomial.monomial(max(l, 0)),
            )
            R = _integral_target(kept, N0, parts, k, 3)
            if product.den == UniPolynomial([1]):
                integral += 1
                assert R is not None and UniPolynomial(R) == product.num
            else:
                rejected += 1
                assert R is None and solutions == []
    assert integral and rejected


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


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=6),
    st.integers(1, 6),
    st.integers(0, 30),
    st.dictionaries(st.integers(2, 8), st.integers(0, 6)),
)
def test_bounded_enumeration_matches_filtered_pos_wt(ambient, s, w, caps):
    """The incremental divisor counts cut exactly the tuples of `pos_wt`
    with some #{i : d | p_i} above its cap, and keep the order; `pos_wt`
    itself matches a brute-force scan with the gcd test for well-formedness."""
    wmax = max(ambient)
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
    assert list(search_module._iter_pos_wt(ambient, s, w, bounds)) == expected


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
    not emit: the degree rule on the types (`kept` in `search_embedding`)
    drops 1/7(3,5,5), whose P_Q has a higher degree than P_X − P_I."""
    return Candidate(
        "g2", (-2, 2), 5, (1, 3, 3, 3, 3, 5, 5, 5, 5, 7, 7, 7), 1, 3,
        Fraction(2, 7), ((Q(3, 1, 2, 2), 9), (Q(7, 3, 5, 5), 3)), (), False,
        embedding((-2, 2), 5).numerator,
    )


def test_decomposition_dropped_by_the_kept_filter_is_certified():
    _assert_identity(_kept_filter_drop())


@pytest.mark.xfail(
    strict=True,
    reason="the degree rule on the types in search_embedding is unproven "
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


def _whole_kernel_walk(types, extended_weights, k, n):
    """The walk `basket_kernel` made before it split the kernel into
    components: every 0/1 pattern of the whole kernel basis."""
    types = tuple(types)
    if len(types) < 2:
        return ()
    vecs, _ = type_vectors(types, k, n)
    rows, rhs = _coefficient_system(vecs, [])
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
    import wflag.search as search_module

    sizes = []

    class SpyPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)  # runs in this process: no worker starts

    class SpyContext:
        Pool = SpyPool

    monkeypatch.setattr(search_module, "get_context", lambda method: SpyContext())
    params = sweep_parameters(SearchConfig(format_name="g2", u_max=2))[:2]
    assert len(params) == 2
    config = SearchConfig(format_name="g2", k=-1, n=3, jobs=4, params=params)
    results = list(search_module.iter_search(config))
    assert sizes == [2]
    assert [(r.mu, r.u) for r in results] == [(p.mu, p.u) for p in params]


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
    config = SearchConfig(format_name="g2", k=-1, n=3, u_min=3, u_max=4)
    params = sweep_parameters(config)
    assert params
    assert all(3 <= p.u <= 4 for p in params)


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
