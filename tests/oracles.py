"""Independent reference implementations that the tests check the program against.

None of this is reached by the command line or a sweep.  Each function
recomputes something the program computes another way:

* `graded_series_coefficients` — the Hilbert series degree by degree from
  restricted Weyl characters (`restricted_character`, by exact Laurent
  division), against the numerators of `wflag.formats.hilbert_series`;
* `int_mul`, `int_exact_div` and `cyclotomic` — the product and the exact
  long division of integer coefficient lists, and Φ_d built recursively by
  long division, against `wflag.intpoly.cyclotomic_valuation`, which never
  divides by anything but 1 − t^e;
* `closed_form_numerator` — the Hilbert numerator of one embedding from a
  Weyl-character closed form, against the same numerators;
* `ROOT_DATA` and `weight_multiplicities` — each format's root datum, and
  the weight multiplicities of its degree-d piece by Freudenthal's formula
  (`freudenthal_multiplicities`, with its Weyl orbits, dominance and
  simple-root coordinates), against the weight table stored in
  `wflag.formats`;
* `k_polynomial` — each format's K-polynomial from the weight
  multiplicities, against the table stored in `wflag.formats`;
* `weyl_dimension` — the Weyl dimension formula, against the Freudenthal
  multiplicities;
* `leibniz_det` — a determinant as a sum over permutations, against the
  elimination of `wflag.linalg` and the signs of `wflag.weyl.weyl_elements`;
* `one_minus_t_product` and `embedding_series` — ∏(1 − t^w) as an integer
  list, and the series H / ∏(1 − t^w) of an embedding as a
  `RationalFunction`;
* `reference_initial_term` — the initial term P_I coefficient by
  coefficient over ℚ, against `wflag.orbifold.initial_term` and the
  integer N0 of the sweep;
* `degree_of` and `solve_multiplicities` — the degree, and the
  multiplicities of given contributions, from rational functions rather
  than the integer lists of the sweep; `value_at` evaluates a rational
  function, and `coefficients` pads a polynomial's coefficient list;
* `common_denominator` — the denominator C of the sweep's integer system,
  from `UniPolynomial` products;
* `subset_gcds` and `reference_porb_cont` — the gcd of every sub-multiset
  of the weights by brute force, and the candidate types and extended
  weights from their definitions, against `wflag.orbifold.gcd_closure`
  and `porb_cont`;
* `baskets` — every collection of distinct types that fits;
* `is_terminal_type` and `terminal_basket` — the terminal classification of
  threefold quotient types.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import (
    chain,
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from math import gcd, prod
from operator import mul
from typing import Sequence

from wflag.formats import (
    CocharacterParam,
    EmbeddingData,
    FormatSpec,
    ambient_weights,
)
from wflag.intpoly import mul_one_minus_t_pow
from wflag.linalg import solve
from wflag.orbifold import (
    OrbifoldContribution,
    QuotientSingularity,
    fits,
)
from wflag.ratfun import (
    RF_ZERO,
    DomainError,
    RationalFunction,
    UniPolynomial,
    series_of,
)
from wflag.search import Candidate
from wflag.weyl import Matrix, identity_matrix, weyl_elements


# -- vectors, orbits and Freudenthal's formula --------------------------------

# Two pairings appear: `dot` evaluates a weight against a cocharacter, which
# turns weights into scalar gradings, and `form_pair` is a Weyl-invariant
# symmetric form on the weight space, for dominance and Freudenthal's formula.

Vector = tuple[int, ...]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vscale(c: int, v: Vector) -> Vector:
    return tuple(c * x for x in v)


def dot(u: Vector, v: Vector) -> int:
    return sum(x * y for x, y in zip(u, v))


def form_pair(form: Matrix, u: Vector, v: Vector) -> int:
    return sum(u[i] * form[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def weyl_orbit(v: Vector, generators: tuple[Matrix, ...]) -> set[Vector]:
    """The Weyl orbit of v, walked by applying the generating reflections.

    Cheaper than mapping v through every group element: no matrix is
    multiplied, and each orbit point costs one matrix-vector product per
    generator.
    """
    seen = {v}
    frontier = [v]
    while frontier:
        fresh = []
        for x in frontier:
            for g in generators:
                y = mat_vec(g, x)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def to_dominant(
    v: Vector, simple_roots: tuple[Vector, ...], form: Matrix,
    generators: tuple[Matrix, ...],
) -> Vector:
    """The dominant representative of the Weyl orbit of v."""
    while True:
        for i, a in enumerate(simple_roots):
            if form_pair(form, v, a) < 0:
                v = mat_vec(generators[i], v)
                break
        else:
            return v


def is_dominant(v: Vector, simple_roots: tuple[Vector, ...], form: Matrix) -> bool:
    return all(form_pair(form, v, a) >= 0 for a in simple_roots)


def simple_root_coordinates(
    v: Vector, simple_roots: tuple[Vector, ...]
) -> tuple[int, ...] | None:
    """Integer coordinates of v in the simple-root basis, or None if v is not
    in the lattice the simple roots span."""
    rows = [[a[i] for a in simple_roots] for i in range(len(v))]
    solved = solve(rows, v)
    if solved is None or solved[2]:
        return None  # simple roots are independent, so a kernel cannot occur
    D, x, _ = solved
    if any(c % D for c in x):
        return None
    return tuple(c // D for c in x)


def freudenthal_multiplicities(
    highest: Vector,
    positive_roots: tuple[Vector, ...],
    rank: int,
    form: Matrix,
    rho: Vector,
    generators: tuple[Matrix, ...],
) -> dict[Vector, int]:
    """Weight multiplicities of the irreducible module, as a full dict.

    Freudenthal's recursion over the dominant weights below the highest one,
    then expanded over Weyl orbits.
    """
    simple = tuple(positive_roots[:rank])
    root_coords: list[tuple[int, ...]] = []
    for a in positive_roots:
        ca = simple_root_coordinates(a, simple)
        assert ca is not None and all(x >= 0 for x in ca)
        root_coords.append(ca)

    # the lowest weight bounds the box of candidate dominant weights
    lowest = next(
        v
        for v in weyl_orbit(highest, generators)
        if all(form_pair(form, v, a) <= 0 for a in simple)
    )
    box = simple_root_coordinates(vsub(highest, lowest), simple)
    assert box is not None and all(x >= 0 for x in box)

    candidates: list[tuple[int, Vector, tuple[int, ...]]] = []
    for cs in product(*(range(b + 1) for b in box)):
        mu = highest
        for c, a in zip(cs, simple):
            if c:
                mu = vsub(mu, vscale(c, a))
        if is_dominant(mu, simple, form):
            candidates.append((sum(cs), mu, cs))
    candidates.sort()

    lam_rho = vadd(highest, rho)
    norm_top = form_pair(form, lam_rho, lam_rho)
    mults: dict[Vector, int] = {}
    dom_cache: dict[Vector, Vector] = {}
    for height, mu, cs in candidates:
        if height == 0:
            mults[mu] = 1
            continue
        total = 0
        for a, ca in zip(positive_roots, root_coords):
            kmax = min(cs[i] // ca[i] for i in range(rank) if ca[i])
            nu = mu
            for _ in range(kmax):
                nu = vadd(nu, a)
                nd = dom_cache.get(nu)
                if nd is None:
                    nd = to_dominant(nu, simple, form, generators)
                    dom_cache[nu] = nd
                m = mults.get(nd, 0)
                if m:
                    total += m * form_pair(form, nu, a)
        mu_rho = vadd(mu, rho)
        denom = norm_top - form_pair(form, mu_rho, mu_rho)
        assert denom > 0
        val, rem = divmod(2 * total, denom)
        assert rem == 0
        if val:
            mults[mu] = val

    full: dict[Vector, int] = {}
    for mu, m in mults.items():
        for v in weyl_orbit(mu, generators):
            full[v] = m
    return full


# -- root data ---------------------------------------------------------------


@dataclass(frozen=True)
class RootDatum:
    """What Freudenthal's formula and the Weyl character formula need of a
    format, beyond its highest weight."""

    lie_rank: int
    weyl_vector: Vector
    weyl_generators: tuple[Matrix, ...]
    positive_roots: tuple[Vector, ...]  # simple roots occupy the first lie_rank slots
    invariant_form: Matrix
    auxiliary_cocharacter: Vector  # pairs > 0 with every positive root


def _transposition_matrix(n: int, i: int) -> Matrix:
    m = list(identity_matrix(n))
    m[i], m[i + 1] = m[i + 1], m[i]
    return tuple(m)


def _type_a_roots(n: int) -> tuple[Vector, ...]:
    """The positive roots e_i − e_j (i < j) of GL(n), simple ones first."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs.sort(key=lambda ij: ij[1] > ij[0] + 1)
    return tuple(tuple(int(k == i) - int(k == j) for k in range(n)) for i, j in pairs)


#: G2 in simple-root coordinates; Gr(2,5) through GL(5) acting on ℤ^5, where
#: a constant shift of the Weyl vector drops out of every formula.
ROOT_DATA = {
    "g2": RootDatum(
        lie_rank=2,
        weyl_vector=(5, 3),
        weyl_generators=(((-1, 3), (0, 1)), ((1, 0), (1, -1))),
        positive_roots=((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
        invariant_form=((2, -3), (-3, 6)),
        auxiliary_cocharacter=(1, 1),
    ),
    "gr25": RootDatum(
        lie_rank=4,
        weyl_vector=(4, 3, 2, 1, 0),
        weyl_generators=tuple(_transposition_matrix(5, i) for i in range(4)),
        positive_roots=_type_a_roots(5),
        invariant_form=identity_matrix(5),
        auxiliary_cocharacter=(4, 3, 2, 1, 0),
    ),
}


def weight_multiplicities(fmt: FormatSpec, d: int) -> dict[Vector, int]:
    """Weight multiplicities of the degree-d part of the coordinate ring, by
    Freudenthal's formula: the reference for the stored tables."""
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if d == 0:
        return {vscale(0, fmt.highest_weight): 1}
    rd = ROOT_DATA[fmt.name]
    return freudenthal_multiplicities(
        vscale(d, fmt.highest_weight),
        rd.positive_roots,
        rd.lie_rank,
        rd.invariant_form,
        rd.weyl_vector,
        rd.weyl_generators,
    )


def leibniz_det(matrix: Sequence[Sequence[int]]) -> int:
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
    rd = ROOT_DATA[fmt.name]
    for d in range(1, order // wmin + 1):
        char = restricted_character(
            rd.weyl_generators,
            vscale(d, fmt.highest_weight),
            rd.weyl_vector,
            param.mu,
            rd.auxiliary_cocharacter,
        )
        for (a, _), c in char.items():
            m = a + d * param.u
            if 0 <= m <= order:
                out[m] += c
    return out


# -- integer polynomials by long division -----------------------------------


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def int_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b in ℤ[t] by long division.

    Every quotient step must be an exact integer division and the remainder
    must vanish; otherwise ArithmeticError is raised.
    """
    a = _int_trim(a)
    b = _int_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lead = len(b) - 1, b[-1]
    rem = list(a)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("polynomial quotient is not integral")
            quot[i] = q
            for j, bj in enumerate(b):
                if bj:
                    rem[i + j] -= q * bj
    if any(rem):
        raise ArithmeticError("polynomial division is not exact")
    return quot


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """Φ_d: t^d − 1 divided exactly by Φ_e for every proper divisor e of d."""
    out = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            out = int_exact_div(out, cyclotomic(e))
    return tuple(out)


def _int_trim(a: Sequence[int]) -> list[int]:
    out = list(a)
    while out and not out[-1]:
        out.pop()
    return out


# -- the Weyl closed form of the Hilbert numerator --------------------------


def _gbinom(h: int, j: int) -> int:
    """Generalized binomial coefficient C(h, j) for any integer h."""
    num, den = 1, 1
    for i in range(j):
        num *= h - i
        den *= i + 1
    assert num % den == 0
    return num // den


@cache
def _weyl_orbit_data(fmt: FormatSpec) -> tuple[tuple, ...]:
    """Per Weyl element w: sgn w, w rho, the row C(<w rho, delta>, j),
    w lam and the row C(<w lam, delta>, j).

    None of it depends on the parameter.  The rows run up to j = the number
    of positive roots, the highest expansion order the closed form can need.
    """
    rd = ROOT_DATA[fmt.name]
    delta = rd.auxiliary_cocharacter
    top = len(rd.positive_roots) + 1
    out = []
    for m, s in weyl_elements(rd.weyl_generators):
        wr = mat_vec(m, rd.weyl_vector)
        wl = mat_vec(m, fmt.highest_weight)
        h, e = dot(wr, delta), dot(wl, delta)
        out.append((
            s,
            wr,
            tuple(_gbinom(h, j) for j in range(top)),
            wl,
            tuple(_gbinom(e, j) for j in range(top)),
        ))
    return tuple(out)


def _add_into(acc: list[int], p: list[int]) -> None:
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for i, c in enumerate(p):
        acc[i] += c


def closed_form_numerator(
    fmt: FormatSpec, param: CocharacterParam, weights: tuple[int, ...]
) -> list[int]:
    """H with P = H / prod(1 - t^w), from a Weyl-character closed form.

    Writing the character of the degree-d part restricted along mu by the
    Weyl character formula and summing the geometric series over d gives

        P(t) = [sum_w sgn(w) t^{<w rho, mu>} / (1 - t^{<w lam, mu> + u})]
               / [sum_w sgn(w) t^{<w rho, mu>}]

    when no root is orthogonal to mu.  When some are, numerator and
    denominator both vanish identically; both are then expanded along the
    regular direction delta (`RootDatum.auxiliary_cocharacter`),
    s = 1 + eps, and the first nonvanishing order of each recovers P
    exactly.  Every term is an integer, a sign times a generalized binomial
    coefficient, so the sum is taken in integer polynomials and no gcd is
    ever taken.

    Expanding numerator and denominator of the closed form along delta,
    order j of the denominator is b_j = sum sgn(w) C(<w rho, delta>, j)
    t^{<w rho, mu>} and order j of the numerator is N_j / D_j over
    D_j = prod over the distinct g = <w lam, mu> + u of (1 - t^g)^{j+1}.
    With k the first order where b_k != 0, the sums N_j (j < k) must vanish
    and N_k prod(1 - t^w) must divide exactly over Z by b_k D_k; the quotient
    is H.  Both are certified, raising ArithmeticError otherwise.
    """
    mu, u = param.mu, param.u
    terms = [
        (s, dot(wr, mu), hb, dot(wl, mu) + u, eb)
        for s, wr, hb, wl, eb in _weyl_orbit_data(fmt)
    ]
    fmin = min(f for _, f, _, _, _ in terms)
    span = max(f for _, f, _, _, _ in terms) - fmin + 1

    def rho_part(members, j: int) -> list[int]:
        # sum of sgn(w) C(<w rho, delta>, j) t^{<w rho, mu> - fmin}
        p = [0] * span
        for s, f, hb in members:
            p[f - fmin] += s * hb[j]
        while p and not p[-1]:
            p.pop()
        return p

    everything = [(s, f, hb) for s, f, hb, _, _ in terms]
    for k in range(len(ROOT_DATA[fmt.name].positive_roots) + 1):
        b_k = rho_part(everything, k)
        if b_k:
            break
    else:
        raise ArithmeticError("closed form does not certify")

    # group the Weyl sum by the orbit point of the highest weight; every term
    # in a group shares the same geometric-series denominator (1 - t^g)^{j+1}
    groups: dict[tuple[int, tuple[int, ...]], list] = {}
    for s, f, hb, g, eb in terms:
        groups.setdefault((g, eb), []).append((s, f, hb))

    # by_g[g][j]: order-j numerator of all groups with that g, over (1 - t^g)^{j+1}
    by_g: dict[int, list[list[int]]] = {}
    for (g, eb), members in groups.items():
        # 1 / (1 - t^g (1+eps)^e) = sum_j n[j] eps^j / (1 - t^g)^{j+1}
        n = [[1]]
        for j in range(1, k + 1):
            acc: list[int] = []
            for i in range(1, j + 1):
                if eb[i]:
                    term = mul_one_minus_t_pow(n[j - i], g, i - 1)
                    _add_into(acc, [0] * g + [eb[i] * c for c in term])
            n.append(acc)
        pref = [rho_part(members, j) for j in range(k + 1)]
        sums = by_g.setdefault(g, [[] for _ in range(k + 1)])
        for j in range(k + 1):
            for i in range(j + 1):
                _add_into(
                    sums[j], mul_one_minus_t_pow(int_mul(pref[j - i], n[i]), g, j - i)
                )

    def order_sum(j: int) -> list[int]:
        # N_j = sum_g by_g[g][j] * prod_{g' != g} (1 - t^{g'})^{j+1}
        total: list[int] = []
        for g, sums in by_g.items():
            p = sums[j]
            for g2 in by_g:
                if g2 != g:
                    p = mul_one_minus_t_pow(p, g2, j + 1)
            _add_into(total, p)
        return total

    if any(any(order_sum(j)) for j in range(k)):
        raise ArithmeticError("closed form does not certify")
    dividend = order_sum(k)
    for w in weights:
        dividend = mul_one_minus_t_pow(dividend, w)
    divisor = b_k
    for g in by_g:
        divisor = mul_one_minus_t_pow(divisor, g, k + 1)
    try:
        return int_exact_div(dividend, divisor)
    except ArithmeticError:
        raise ArithmeticError("closed form does not certify") from None


# -- K-polynomials ----------------------------------------------------------


def k_polynomial(fmt: FormatSpec) -> tuple[tuple[int, Vector, int], ...]:
    """The terms (a, nu, c) of the format's K-polynomial, sorted by (a, nu).

    K = (sum_{d <= D} s^d char V(d lam)) * prod_chi (1 - s x^chi) truncated
    at s-degree D, the degree of H at mu = 0, u = 1; chi runs over the module
    weights with multiplicity, and the characters are the Freudenthal
    multiplicities of `weight_multiplicities`.
    """
    top = fmt.adjunction_coefficients[0]
    terms: dict[tuple[int, Vector], int] = {}
    for d in range(top + 1):
        for nu, m in weight_multiplicities(fmt, d).items():
            terms[(d, nu)] = m
    for chi, mult in weight_multiplicities(fmt, 1).items():
        for _ in range(mult):
            times = dict(terms)
            for (a, nu), c in terms.items():
                if a < top:
                    key = (a + 1, vadd(nu, chi))
                    times[key] = times.get(key, 0) - c
            terms = {key: c for key, c in times.items() if c}
    return tuple((a, nu, c) for (a, nu), c in sorted(terms.items()))


def k_table_source(name: str, terms, width: int = 79) -> str:
    """Python source of a K table, laid out as in `wflag.formats`."""
    rows = [(a, *nu, c) for a, nu, c in terms]
    pad = max(len(str(x)) for row in rows for x in row)
    items = [" ".join(f"{x:>{pad}}" for x in row) for row in rows]
    lines, line = [f'{name} = """'], ""
    for item in items:
        if line and len(line) + 3 + len(item) > width:
            lines.append(line)
            line = ""
        line = f"{line}   {item}" if line else f"    {item}"
    return "\n".join(lines + [line, '"""'])


def one_minus_t_product(weights: Sequence[int]) -> list[int]:
    """∏(1 − t^w) as an integer coefficient list."""
    return reduce(mul_one_minus_t_pow, weights, [1])


def embedding_series(data: EmbeddingData) -> RationalFunction:
    """P itself, H / prod(1 - t^w), built on demand."""
    return RationalFunction(data.numerator, one_minus_t_product(data.weights))


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


def subset_gcds(values: Sequence[int]) -> set[int]:
    """The gcd of every nonempty sub-multiset of the values, by brute force."""
    return {
        reduce(gcd, sub)
        for size in range(1, len(values) + 1)
        for sub in combinations(values, size)
    }


def reference_porb_cont(
    weights: Sequence[int], n: int, k: int
) -> tuple[tuple[QuotientSingularity, ...], tuple[int, ...]]:
    """(types, extended) of `wflag.orbifold.porb_cont` from the definitions.

    The indices are the subset gcds above 1 (of the distinct weights: a
    repeat does not change a gcd).  The types of index r are the
    n-multisets of 1 .. r − 1 with sum ≡ −k (mod r) whose value counts fit
    those of the residues of the weights coprime to r.  The extended
    weights are the weights plus each new gcd once.
    """
    ws = sorted(weights)
    gcds = subset_gcds(sorted(set(ws)))
    types = []
    for r in sorted(gcds - {1}):
        residues = Counter(w % r for w in ws if gcd(w, r) == 1)
        for combo in combinations_with_replacement(range(1, r), n):
            if (sum(combo) + k) % r == 0 and not Counter(combo) - residues:
                types.append(QuotientSingularity(r, combo))
    return tuple(types), tuple(sorted(ws + list(gcds - set(ws))))


def reference_initial_term(
    series: RationalFunction, n: int, k: int
) -> RationalFunction:
    """The initial term P_I, coefficient by coefficient over ℚ: those of
    P·(1−t)^{n+1} up to degree ⌊c/2⌋, c = k + n + 1, mirrored to degree c,
    over (1−t)^{n+1}; zero when c < 0."""
    c = k + n + 1
    if c < 0:
        return RF_ZERO
    one_minus_t = UniPolynomial([1, -1])
    pp = series_of(series * one_minus_t ** (n + 1), c // 2)
    acc = [Fraction(0)] * (c + 1)
    for i, ci in enumerate(pp):
        acc[i] = acc[c - i] = ci
    return RationalFunction(acc, one_minus_t ** (n + 1))


def degree_of(series: RationalFunction, n: int) -> Fraction:
    """Exact value of (1−t)^{n+1}·P at t=1 (the top self-intersection)."""
    one_minus_t = UniPolynomial([1, -1])
    num = series.num * one_minus_t ** (n + 1)
    den = series.den
    while True:
        if sum(den.coeffs):  # the value at t = 1
            return sum(num.coeffs) / sum(den.coeffs)
        quo, rem = divmod(num, one_minus_t)
        if rem:
            raise DomainError("dimension mismatch")
        num = quo
        den = den.exact_div(one_minus_t)


def coefficients(p: UniPolynomial, length: int) -> list[Fraction]:
    """The coefficients of t^0 .. t^{length−1} in p, of degree below length,
    padded with zeros."""
    assert len(p.coeffs) <= length, "polynomial longer than the padding"
    return [*p.coeffs, *[Fraction(0)] * (length - len(p.coeffs))]


def value_at(f: RationalFunction, x: Fraction) -> Fraction:
    """f(x) as num(x)/den(x); ZeroDivisionError at a pole."""

    def horner(p: UniPolynomial) -> Fraction:
        return reduce(lambda acc, c: acc * x + c, reversed(p.coeffs), Fraction(0))

    return horner(f.num) / horner(f.den)


def solve_multiplicities(
    series: RationalFunction,
    init: RationalFunction,
    contribs: Sequence[OrbifoldContribution],
) -> list[int] | None:
    """Multiplicities m ≥ 0 with series = init + Σ mᵢ·contribᵢ, else None.

    Multiplied by the product M of the contributions' distinct denominators,
    this is the system Σ mᵢ·(contribᵢ·M) = (series − init)·M of integer
    polynomials, one equation per power of t.  The solution with free
    multiplicities zero is returned once it passes that system in integers.
    """
    M = prod({c.value.den for c in contribs}, start=UniPolynomial([1]))
    cols = [c.value.num * M.exact_div(c.value.den) for c in contribs]
    R = (series - init) * M
    if R.den.degree > 0 or any(c.denominator != 1 for c in R.num.coeffs):
        return None  # the left side is an integer polynomial for integer m
    assert all(c.denominator == 1 for p in cols for c in p.coeffs)
    length = max(len(p.coeffs) for p in (R.num, *cols))
    rows = [list(map(int, row)) for row in zip(*(coefficients(p, length) for p in cols))]
    rhs = [int(c) for c in coefficients(R.num, length)]
    solved = solve(rows, rhs)
    if solved is None:
        return None
    D, x, _ = solved
    if any(v < 0 or v % D for v in x):
        return None
    m = [v // D for v in x]
    certified = all(sum(map(mul, row, m)) == b for row, b in zip(rows, rhs))
    return m if certified else None


def common_denominator(types: Sequence[QuotientSingularity], n: int) -> UniPolynomial:
    """C = (1−t)ⁿ·∏(1−t^r) over the distinct indices r of the types."""
    C = UniPolynomial.one_minus_t_pow(1) ** n
    for r in sorted({t.r for t in types}):
        C = C * UniPolynomial.one_minus_t_pow(r)
    return C


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
