"""Flag variety formats: weighted embeddings, ambient weights, Hilbert series.

A *format* is a rational homogeneous variety, given by the highest weight of
its defining module and two stored tables (below).  A *parameter* is a
cocharacter ``mu`` plus an integer central shift ``u``; together they induce
weights on the ambient coordinates, and the parameter is valid when every
one is positive, which gives a weighted-projective embedding of the variety.
So ``u`` may be zero or negative (gr25 reaches u = -14 at q <= 50).

Each format stores two tables that depend on the format alone.  The weight
table lists the weights chi of the defining module V(lam) with their
multiplicities (13 weights for ``g2``, (0, 0) twice; 10 for ``gr25``); an
embedding's ambient weights are the pairings <chi, mu> + u.  The K table
gives every Hilbert series.  Graded by s for the degree and by x for the
torus weights, the Hilbert series of the cone over the variety is

    sum_d s^d char V(d lam) = K(s, x) / prod_chi (1 - s x^chi),

chi running over the weights of the defining module V(lam), with
multiplicity.  K is the K-polynomial of the coordinate ring (Miller and
Sturmfels, Combinatorial Commutative Algebra, ch. 8; for Gr(2,5) its 12 terms
are the Pfaffian resolution of Buchsbaum and Eisenbud).  It depends on the
format alone, so it is stored as a table of terms (a, nu, c), each standing
for c s^a x^nu: 12 terms for ``gr25``, 250 for ``g2``.  An embedding (mu, u)
specialises s to t^u and x^nu to t^{<nu, mu>}, which sends each factor
1 - s x^chi to 1 - t^w for an ambient weight w.  So the Hilbert numerator H,
with P = H / prod(1 - t^w), is K specialised, with no division at all.

No sweep needs the root datum of a format (its roots, Weyl group and
invariant form): it lives with the tests (tests/oracles.py), which check
each K table against (sum_{d <= D} s^d char V(d lam)) times
prod_chi (1 - s x^chi), truncated at the degree D of H at mu = 0, u = 1,
and each weight table against Freudenthal's formula.  Each H is certified
as well: H(0) = 1, its degree is q, it has Gorenstein (anti)symmetry, and
it divides exactly by (1 - t)^codimension.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .intpoly import DomainError, div_one_minus_t_pow

Vector = tuple[int, ...]


class FormatSpec(NamedTuple):
    """One homogeneous variety, with the two tables that fix its embeddings."""

    name: str
    dimension: int
    codimension: int
    highest_weight: Vector
    adjunction_coefficients: tuple[int, int]  # q = c_u * u + c_m * sum(mu)
    # the weights chi of V(lam) with their multiplicities, sorted, and the
    # terms (a, nu, c) of K(s, x) = sum c s^a x^nu
    weight_system: tuple[tuple[Vector, int], ...]
    k_polynomial: tuple[tuple[int, Vector, int], ...]


class CocharacterParam(NamedTuple):
    """A weighting of the ambient coordinates: cocharacter mu and shift u."""

    mu: tuple[int, ...]
    u: int


class EmbeddingData(NamedTuple):
    """Everything the search needs about one weighted embedding."""

    format_name: str
    mu: tuple[int, ...]
    u: int
    weights: tuple[int, ...]  # ambient weights, sorted
    numerator: tuple[int, ...]  # H with P = H / prod(1 - t^w)
    numerator_reduced: tuple[int, ...]  # H / (1-t)^codimension
    adjunction_number: int  # q = deg H
    sigma: int  # canonical degree of the image, q - sum(weights)


# K-polynomials, one per format, in the order (a, nu).  Each term is a run
# of integers: a, the entries of nu, then c.  Text costs nothing to compile,
# where a literal of 250 nested tuples costs milliseconds in every process
# that imports this module without a bytecode cache.  The tests regenerate
# the tables from the weight multiplicities (tests/oracles.py, `k_polynomial`).
_GR25_K = """
     0  0  0  0  0  0  1    2  0  1  1  1  1 -1    2  1  0  1  1  1 -1
     2  1  1  0  1  1 -1    2  1  1  1  0  1 -1    2  1  1  1  1  0 -1
     3  1  1  1  1  2  1    3  1  1  1  2  1  1    3  1  1  2  1  1  1
     3  1  2  1  1  1  1    3  2  1  1  1  1  1    5  2  2  2  2  2 -1
"""
_G2_K = """
      0   0   0   1     2  -4  -2  -1     2  -3  -2  -1     2  -3  -1  -1
      2  -2  -2  -1     2  -2  -1  -2     2  -2   0  -1     2  -1  -1  -2
      2  -1   0  -2     2   0  -1  -1     2   0   0  -4     2   0   1  -1
      2   1   0  -2     2   1   1  -2     2   2   0  -1     2   2   1  -2
      2   2   2  -1     2   3   1  -1     2   3   2  -1     2   4   2  -1
      3  -5  -3   1     3  -5  -2   1     3  -4  -3   1     3  -4  -2   3
      3  -4  -1   1     3  -3  -2   4     3  -3  -1   4     3  -2  -2   3
      3  -2  -1   7     3  -2   0   3     3  -1  -2   1     3  -1  -1   7
      3  -1   0   7     3  -1   1   1     3   0  -1   4     3   0   0   9
      3   0   1   4     3   1  -1   1     3   1   0   7     3   1   1   7
      3   1   2   1     3   2   0   3     3   2   1   7     3   2   2   3
      3   3   1   4     3   3   2   4     3   4   1   1     3   4   2   3
      3   4   3   1     3   5   2   1     3   5   3   1     4  -6  -3  -1
      4  -5  -3  -2     4  -5  -2  -2     4  -4  -3  -2     4  -4  -2  -4
      4  -4  -1  -2     4  -3  -3  -1     4  -3  -2  -6     4  -3  -1  -6
      4  -3   0  -1     4  -2  -2  -4     4  -2  -1 -10     4  -2   0  -4
      4  -1  -2  -2     4  -1  -1 -10     4  -1   0 -10     4  -1   1  -2
      4   0  -1  -6     4   0   0 -12     4   0   1  -6     4   1  -1  -2
      4   1   0 -10     4   1   1 -10     4   1   2  -2     4   2   0  -4
      4   2   1 -10     4   2   2  -4     4   3   0  -1     4   3   1  -6
      4   3   2  -6     4   3   3  -1     4   4   1  -2     4   4   2  -4
      4   4   3  -2     4   5   2  -2     4   5   3  -2     4   6   3  -1
      5  -6  -3   1     5  -5  -3   1     5  -5  -2   1     5  -4  -3   1
      5  -4  -2   2     5  -4  -1   1     5  -3  -3   1     5  -3  -2   3
      5  -3  -1   3     5  -3   0   1     5  -2  -2   2     5  -2  -1   5
      5  -2   0   2     5  -1  -2   1     5  -1  -1   5     5  -1   0   5
      5  -1   1   1     5   0  -1   3     5   0   0   6     5   0   1   3
      5   1  -1   1     5   1   0   5     5   1   1   5     5   1   2   1
      5   2   0   2     5   2   1   5     5   2   2   2     5   3   0   1
      5   3   1   3     5   3   2   3     5   3   3   1     5   4   1   1
      5   4   2   2     5   4   3   1     5   5   2   1     5   5   3   1
      5   6   3   1     6  -6  -3   1     6  -5  -3   1     6  -5  -2   1
      6  -4  -3   1     6  -4  -2   2     6  -4  -1   1     6  -3  -3   1
      6  -3  -2   3     6  -3  -1   3     6  -3   0   1     6  -2  -2   2
      6  -2  -1   5     6  -2   0   2     6  -1  -2   1     6  -1  -1   5
      6  -1   0   5     6  -1   1   1     6   0  -1   3     6   0   0   6
      6   0   1   3     6   1  -1   1     6   1   0   5     6   1   1   5
      6   1   2   1     6   2   0   2     6   2   1   5     6   2   2   2
      6   3   0   1     6   3   1   3     6   3   2   3     6   3   3   1
      6   4   1   1     6   4   2   2     6   4   3   1     6   5   2   1
      6   5   3   1     6   6   3   1     7  -6  -3  -1     7  -5  -3  -2
      7  -5  -2  -2     7  -4  -3  -2     7  -4  -2  -4     7  -4  -1  -2
      7  -3  -3  -1     7  -3  -2  -6     7  -3  -1  -6     7  -3   0  -1
      7  -2  -2  -4     7  -2  -1 -10     7  -2   0  -4     7  -1  -2  -2
      7  -1  -1 -10     7  -1   0 -10     7  -1   1  -2     7   0  -1  -6
      7   0   0 -12     7   0   1  -6     7   1  -1  -2     7   1   0 -10
      7   1   1 -10     7   1   2  -2     7   2   0  -4     7   2   1 -10
      7   2   2  -4     7   3   0  -1     7   3   1  -6     7   3   2  -6
      7   3   3  -1     7   4   1  -2     7   4   2  -4     7   4   3  -2
      7   5   2  -2     7   5   3  -2     7   6   3  -1     8  -5  -3   1
      8  -5  -2   1     8  -4  -3   1     8  -4  -2   3     8  -4  -1   1
      8  -3  -2   4     8  -3  -1   4     8  -2  -2   3     8  -2  -1   7
      8  -2   0   3     8  -1  -2   1     8  -1  -1   7     8  -1   0   7
      8  -1   1   1     8   0  -1   4     8   0   0   9     8   0   1   4
      8   1  -1   1     8   1   0   7     8   1   1   7     8   1   2   1
      8   2   0   3     8   2   1   7     8   2   2   3     8   3   1   4
      8   3   2   4     8   4   1   1     8   4   2   3     8   4   3   1
      8   5   2   1     8   5   3   1     9  -4  -2  -1     9  -3  -2  -1
      9  -3  -1  -1     9  -2  -2  -1     9  -2  -1  -2     9  -2   0  -1
      9  -1  -1  -2     9  -1   0  -2     9   0  -1  -1     9   0   0  -4
      9   0   1  -1     9   1   0  -2     9   1   1  -2     9   2   0  -1
      9   2   1  -2     9   2   2  -1     9   3   1  -1     9   3   2  -1
      9   4   2  -1    11   0   0   1
"""


def _k_terms(table: str, rank: int) -> tuple[tuple[int, Vector, int], ...]:
    """The terms (a, nu, c) of a K table whose weights have rank entries."""
    ints = [int(x) for x in table.split()]
    step = rank + 2
    return tuple(
        (ints[i], tuple(ints[i + 1 : i + step - 1]), ints[i + step - 1])
        for i in range(0, len(ints), step)
    )


G2_FORMAT = FormatSpec(
    name="g2",
    dimension=5,
    codimension=8,
    highest_weight=(3, 2),  # highest long root; the module is the adjoint one
    adjunction_coefficients=(11, 0),
    weight_system=(
        ((-3, -2), 1), ((-3, -1), 1), ((-2, -1), 1), ((-1, -1), 1), ((-1, 0), 1),
        ((0, -1), 1), ((0, 0), 2), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1),
        ((2, 1), 1), ((3, 1), 1), ((3, 2), 1),
    ),
    k_polynomial=_k_terms(_G2_K, 2),
)

GR25_FORMAT = FormatSpec(
    name="gr25",
    dimension=6,
    codimension=3,
    highest_weight=(1, 1, 0, 0, 0),  # second exterior power of the standard module
    adjunction_coefficients=(5, 2),
    weight_system=(
        ((0, 0, 0, 1, 1), 1), ((0, 0, 1, 0, 1), 1), ((0, 0, 1, 1, 0), 1),
        ((0, 1, 0, 0, 1), 1), ((0, 1, 0, 1, 0), 1), ((0, 1, 1, 0, 0), 1),
        ((1, 0, 0, 0, 1), 1), ((1, 0, 0, 1, 0), 1), ((1, 0, 1, 0, 0), 1),
        ((1, 1, 0, 0, 0), 1),
    ),
    k_polynomial=_k_terms(_GR25_K, 5),
)

FORMATS: dict[str, FormatSpec] = {"g2": G2_FORMAT, "gr25": GR25_FORMAT}


def ambient_weights(fmt: FormatSpec, param: CocharacterParam) -> tuple[int, ...]:
    """Weights induced on the ambient coordinates, sorted ascending.

    Raises DomainError if any weight fails to be positive.
    """
    mu, u = param.mu, param.u
    ws: list[int] = []
    for v, m in fmt.weight_system:
        ws += [sum(x * y for x, y in zip(v, mu)) + u] * m
    if any(w <= 0 for w in ws):
        raise DomainError("invalid parameters: nonpositive ambient weight")
    assert len(ws) == fmt.dimension + fmt.codimension + 1
    return tuple(sorted(ws))


# -- Hilbert series ---------------------------------------------------------

_CERT_MESSAGE = "Hilbert numerator fails its certificate: format data inconsistent"


@cache
def hilbert_series(fmt: FormatSpec, param: CocharacterParam) -> EmbeddingData:
    """The weighted embedding attached to (format, parameter), fully certified.

    The numerator H (with P = H / prod(1 - t^w) over the ambient weights) is
    the format's K-polynomial specialised at s = t^u, x^nu = t^{<nu, mu>}:
    each term (a, nu, c) adds c to the coefficient of t^{a u + <nu, mu>}.
    No exponent is negative.  A term of s-degree a has nu in the convex hull
    of the a-fold sums of module weights, and a module weight chi gives the
    ambient weight <chi, mu> + u > 0; so a u + <nu, mu> is at least
    a * min(ambient weights) >= 0.  H is checked to have H(0) = 1, the degree
    predicted by the adjunction coefficients, the (anti)palindromic symmetry
    Gorenstein duality demands, and exact division by (1 - t)^codimension.
    """
    weights = ambient_weights(fmt, param)
    mu, u = param.mu, param.u
    exponents = [
        a * u + sum(x * y for x, y in zip(nu, mu)) for a, nu, _ in fmt.k_polynomial
    ]
    if min(exponents) < 0:  # only a table that breaks the argument above
        raise ArithmeticError(_CERT_MESSAGE)
    h = [0] * (max(exponents) + 1)
    for i, (_, _, c) in zip(exponents, fmt.k_polynomial):
        h[i] += c
    while h and not h[-1]:
        h.pop()
    cu, cm = fmt.adjunction_coefficients
    q = cu * u + cm * sum(mu)
    e = fmt.codimension
    sign = (-1) ** e
    if len(h) != q + 1 or h[0] != 1 or h[::-1] != [sign * c for c in h]:
        raise ArithmeticError(_CERT_MESSAGE)
    reduced = h
    try:
        for _ in range(e):
            reduced = div_one_minus_t_pow(reduced, 1)
    except ArithmeticError:
        raise ArithmeticError(_CERT_MESSAGE) from None
    return EmbeddingData(
        format_name=fmt.name,
        mu=mu,
        u=u,
        weights=weights,
        numerator=tuple(h),
        numerator_reduced=tuple(reduced),
        adjunction_number=q,
        sigma=q - sum(weights),
    )


# -- parameter enumeration -------------------------------------------------


def _params_g2(
    fmt: FormatSpec, u_max: int | None, q_max: int | None
) -> Iterator[CocharacterParam]:
    if u_max is None:
        raise DomainError("u_max is required for this format")
    chis = [chi for chi, _ in fmt.weight_system]
    for u in range(1, u_max + 1):
        if q_max is not None and fmt.adjunction_coefficients[0] * u > q_max:
            continue
        for a in range(-(u - 1), u):
            for b in range(-(u - 1), u):
                # most (a, b) give some weight u + <chi, mu> <= 0
                if u + min(x * a + y * b for x, y in chis) > 0:
                    yield CocharacterParam((a, b), u)


def _params_gr25(
    fmt: FormatSpec, u_max: int | None, q_max: int | None
) -> Iterator[CocharacterParam]:
    if q_max is None:
        raise DomainError(
            "q_max is required here: ambient weights are unbounded for fixed u"
        )
    # mu = (0, mu_1 <= ... <= mu_4), so the smallest weight is u + mu_1 and
    # u >= 1 - mu_1; then q = cu u + cm sum(mu) >= cu + cm mu_4 (as 3 cm >= cu)
    cu, cm = fmt.adjunction_coefficients
    for rest in combinations_with_replacement(range((q_max - cu) // cm + 1), 4):
        mu = (0,) + rest
        u_hi = (q_max - cm * sum(mu)) // cu
        if u_max is not None:
            u_hi = min(u_hi, u_max)
        for u in range(1 - mu[1], u_hi + 1):
            yield CocharacterParam(mu, u)


@cache
def enumerate_parameters(
    fmt: FormatSpec, u_max: int | None = None, q_max: int | None = None
) -> tuple[CocharacterParam, ...]:
    """All valid parameters up to the given bounds, one per weight multiset.

    Parameters inducing the same ambient weight multiset are identified; the
    representative kept is the first the format's generator yields (the
    lexicographically least mu).  Results are sorted by (sum of weights,
    weights).
    """
    generators = {"g2": _params_g2, "gr25": _params_gr25}
    if fmt.name not in generators:
        raise DomainError(f"unknown format {fmt.name!r}")
    found: dict[tuple[int, ...], CocharacterParam] = {}
    for param in generators[fmt.name](fmt, u_max, q_max):
        found.setdefault(ambient_weights(fmt, param), param)
    return tuple(found[ws] for ws in sorted(found, key=lambda ws: (sum(ws), ws)))
