"""Independent reference implementations that the tests check the program against.

None of this is reached by the command line or a sweep.  Each function
recomputes something the program computes another way:

* `graded_series_coefficients` — the Hilbert series degree by degree from
  restricted Weyl characters (`restricted_character`, by exact Laurent
  division), against the closed form of `wflag.formats.hilbert_series`;
* `weyl_dimension` — the Weyl dimension formula, against the Freudenthal
  multiplicities of `wflag.weyl`;
* `embedding_series` — the series H / ∏(1 − t^w) of an embedding as a
  `RationalFunction`;
* `degree_of` and `solve_multiplicities` — the degree, and the
  multiplicities of given contributions, from rational functions rather
  than the integer lists of the sweep;
* `baskets` — every collection of distinct types that fits;
* `is_terminal_type` and `terminal_basket` — the terminal classification of
  threefold quotient types.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, prod
from typing import Sequence

from wflag.formats import (
    CocharacterParam,
    EmbeddingData,
    FormatSpec,
    ambient_weights,
)
from wflag.linalg import solve
from wflag.orbifold import (
    OrbifoldContribution,
    QuotientSingularity,
    _certified,
    _coefficient_system,
    _shift,
    _shifted,
    fits,
    type_vectors,
)
from wflag.ratfun import DomainError, RationalFunction, UniPolynomial, denominator_poly
from wflag.search import Candidate
from wflag.weyl import (
    Matrix,
    Vector,
    dot,
    form_pair,
    mat_vec,
    vadd,
    vscale,
    weyl_elements,
)


# -- Weyl characters --------------------------------------------------------


def weyl_dimension(
    highest: Vector, positive_roots: tuple[Vector, ...], form: Matrix, rho: Vector
) -> int:
    """Dimension of the irreducible module with the given highest weight."""
    lam_rho = vadd(highest, rho)
    dim, rem = divmod(
        prod(form_pair(form, lam_rho, a) for a in positive_roots),
        prod(form_pair(form, rho, a) for a in positive_roots),
    )
    assert rem == 0 and dim > 0
    return dim


def alternating_projection(
    elements: tuple[tuple[Matrix, int], ...], v: Vector, mu: Vector, delta: Vector
) -> dict[tuple[int, int], int]:
    """sum over w of sign(w) * x^{<w v, mu>} y^{<w v, delta>} as a sparse dict."""
    out: dict[tuple[int, int], int] = {}
    for m, s in elements:
        w = mat_vec(m, v)
        key = (dot(w, mu), dot(w, delta))
        out[key] = out.get(key, 0) + s
    return {k: c for k, c in out.items() if c}


def laurent_divide_2d(
    numer: dict[tuple[int, int], int], denom: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Exact division of two-variable Laurent polynomials.

    Requires the denominator to have a unique term of maximal second exponent
    with coefficient +-1 (true for Weyl denominators projected along a regular
    dominant direction).  Works level by level in the second exponent; each
    subtraction only touches strictly lower levels, so one descending pass
    suffices.
    """
    if not numer:
        return {}
    top_h = max(k[1] for k in denom)
    leads = [k for k in denom if k[1] == top_h]
    if len(leads) != 1 or abs(denom[leads[0]]) != 1:
        raise ArithmeticError("denominator has no usable leading term")
    f0, h0 = leads[0]
    c0 = denom[leads[0]]
    floor = min(k[1] for k in numer) - min(k[1] for k in denom)

    levels: dict[int, dict[int, int]] = {}
    for (f, h), c in numer.items():
        levels.setdefault(h, {})[f] = c
    rest = [(k, c) for k, c in denom.items() if k != (f0, h0)]
    quotient: dict[tuple[int, int], int] = {}
    while levels:
        h = max(levels)
        lev = {f: c for f, c in levels.pop(h).items() if c}
        if not lev:
            continue
        if h - h0 < floor:
            raise ArithmeticError("inexact Laurent division")
        qlev = {f - f0: c * c0 for f, c in lev.items()}
        for f, c in qlev.items():
            quotient[(f, h - h0)] = c
        for (fw, hw), cw in rest:
            tgt = levels.setdefault(h - h0 + hw, {})
            for f, c in qlev.items():
                key = f + fw
                tgt[key] = tgt.get(key, 0) - c * cw
    return {k: c for k, c in quotient.items() if c}


def restricted_character(
    generators: tuple[Matrix, ...],
    highest: Vector,
    rho: Vector,
    mu: Vector,
    delta: Vector,
) -> dict[tuple[int, int], int]:
    """Character of the irreducible module with the given highest weight,
    pushed down to exponents (<v, mu>, <v, delta>).

    delta must pair strictly positively with every positive root; mu is
    arbitrary (in particular it may be orthogonal to some roots).
    """
    elements = weyl_elements(generators)
    numer = alternating_projection(elements, vadd(highest, rho), mu, delta)
    den = alternating_projection(elements, rho, mu, delta)
    return laurent_divide_2d(numer, den)


# -- Hilbert series ---------------------------------------------------------


def graded_series_coefficients(
    fmt: FormatSpec, param: CocharacterParam, order: int
) -> list[int]:
    """First coefficients of the Hilbert series, degree by degree.

    Independent of the closed form: each graded piece is a restricted Weyl
    character computed by exact Laurent division.  Slow but direct; used to
    cross-check `hilbert_series`.
    """
    weights = ambient_weights(fmt, param)
    wmin = min(weights)
    out = [0] * (order + 1)
    out[0] = 1
    delta = fmt.auxiliary_cocharacter
    for d in range(1, order // wmin + 1):
        char = restricted_character(
            fmt.weyl_generators,
            vscale(d, fmt.highest_weight),
            fmt.weyl_vector,
            param.mu,
            delta,
        )
        for (a, _), c in char.items():
            m = a + d * param.u
            if 0 <= m <= order:
                out[m] += c
    return out


def embedding_series(data: EmbeddingData) -> RationalFunction:
    """P itself, H / prod(1 - t^w), built on demand."""
    den = denominator_poly(data.weights, sum(data.weights))
    return RationalFunction(data.numerator, den)


# -- baskets, degree and the reference solver -------------------------------


def baskets(
    types, extended_weights
) -> tuple[tuple[QuotientSingularity, ...], ...]:
    """All nonempty collections of distinct types that `fits` on the variety."""
    by_r: dict[int, list[QuotientSingularity]] = {}
    for t in types:
        by_r.setdefault(t.r, []).append(t)
    per_r: list[list[tuple[QuotientSingularity, ...]]] = []
    for r, group in sorted(by_r.items()):
        choices: list[tuple[QuotientSingularity, ...]] = [()]
        # the types of a group share one index, so the rule caps the size
        for size in range(1, len(group) + 1):
            if not fits(group[:size], extended_weights):
                break
            choices.extend(combinations(group, size))
        per_r.append(choices)
    out = []
    for combo in product(*per_r):
        basket = tuple(chain.from_iterable(combo))
        if basket:
            out.append(basket)
    return tuple(out)


def degree_of(series: RationalFunction, n: int) -> Fraction:
    """Exact value of (1−t)^{n+1}·P at t=1 (the top self-intersection)."""
    one_minus_t = UniPolynomial([1, -1])
    num = series.num * one_minus_t ** (n + 1)
    den = series.den
    while True:
        dv = den.evaluate(Fraction(1))
        if dv != 0:
            return num.evaluate(Fraction(1)) / dv
        quo, rem = divmod(num, one_minus_t)
        if rem:
            raise DomainError("dimension mismatch")
        num = quo
        den = den // one_minus_t


def solve_multiplicities(
    series: RationalFunction,
    init: RationalFunction,
    contribs: Sequence[OrbifoldContribution],
) -> list[int] | None:
    """Multiplicities m ≥ 0 with series = init + Σ mᵢ·contribᵢ, else None.

    The contributions share one canonical weight k and one dimension n.
    Over the common denominator C of the contributions this is the integer
    system Σ mᵢ·Vᵢ = (series − init)·C·t^{−l} (see `type_vectors`); the
    solution with free multiplicities zero is returned once it passes that
    identity.
    """
    target = series - init
    if not contribs:
        return [] if target.is_zero() else None
    k, n = contribs[0].k, len(contribs[0].singularity.weights)
    V, C = type_vectors([c.singularity for c in contribs], k, n)
    R = target * RationalFunction(UniPolynomial(C))
    if R.den.degree > 0 or any(c.denominator != 1 for c in R.num.coeffs):
        return None  # V·m is an integer polynomial for every integer m
    R = _shifted(-_shift(k, n), [c.numerator for c in R.num.coeffs])
    if R is None:
        return None
    rows, rhs = _coefficient_system(V, R)
    solved = solve(rows, rhs)
    if solved is None:
        return None
    D, x, _ = solved
    if any(v < 0 or v % D for v in x):
        return None
    m = [v // D for v in x]
    return m if _certified(rows, rhs, m) else None


# -- terminal classification ------------------------------------------------


def is_terminal_type(sing: QuotientSingularity) -> bool:
    """True for three-dimensional types equivalent to 1/r(-1, a, -a).

    Equivalence allows rescaling all weights by a unit c mod r.
    """
    if len(sing.weights) != 3:
        raise DomainError("terminality test requires threefold types")
    r = sing.r
    for c in range(1, r):
        if gcd(c, r) != 1:
            continue
        scaled = sorted(c * w % r for w in sing.weights)
        for i, w in enumerate(scaled):
            if w == r - 1:
                rest = scaled[:i] + scaled[i + 1 :]
                if (rest[0] + rest[1]) % r == 0 and all(x for x in rest):
                    return True
    return False


def terminal_basket(candidate: Candidate) -> bool:
    """True when the candidate carries a nonempty basket of terminal types only."""
    return bool(candidate.basket) and all(
        is_terminal_type(sing) for sing, _ in candidate.basket
    )
