"""Flag variety formats: weighted embeddings, ambient weights, Hilbert series.

A *format* is a rational homogeneous variety together with the compiled root
datum needed to compute with its coordinate ring.  A *parameter* is a
cocharacter ``mu`` plus a positive central shift ``u``; together they induce
positive weights on the ambient coordinates and hence a weighted-projective
embedding of the variety.

The Hilbert series of the weighted image is computed in closed form.  Writing
the character of the degree-d part restricted along ``mu`` via the Weyl
character formula and summing the geometric series over d gives

    P(t) = [sum_w sgn(w) t^{<w rho, mu>} / (1 - t^{<w lam, mu> + u})]
           / [sum_w sgn(w) t^{<w rho, mu>}]

valid when no root is orthogonal to ``mu``.  When some are, numerator and
denominator both vanish identically; we then expand both along a second
auxiliary direction delta (regular, so the degeneracy is resolved), s = 1+eps,
and take the first nonvanishing coefficient of each, which recovers P exactly.

Every term of that Weyl sum is an integer: a sign times a generalized
binomial coefficient C(<w rho, delta>, j).  So the closed form is summed in
integer polynomials over the common denominator prod (1 - t^g)^{j+1}, the g
running over the distinct <w lam, mu> + u, and no gcd is ever taken.  The
result is certified instead: the lower-order sums must vanish, and the
numerator times prod (1 - t^w) must divide exactly over Z by the
denominator, every quotient step an integer division.  The quotient is the
Hilbert numerator H, which must also have H(0) = 1, degree q and Gorenstein
(anti)symmetry.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement

from .ratfun import (
    DomainError,
    div_one_minus_t_pow,
    int_exact_div,
    int_mul,
    mul_one_minus_t_pow,
)
from .weyl import (
    Matrix,
    Vector,
    dot,
    freudenthal_multiplicities,
    identity_matrix,
    mat_vec,
    vscale,
    weyl_elements,
)


@dataclass(frozen=True)
class FormatSpec:
    """Compiled root datum of one homogeneous variety."""

    name: str
    lie_rank: int
    dimension: int
    codimension: int
    highest_weight: Vector
    weyl_vector: Vector
    weyl_generators: tuple[Matrix, ...]
    positive_roots: tuple[Vector, ...]  # simple roots occupy the first lie_rank slots
    invariant_form: Matrix
    auxiliary_cocharacter: Vector  # pairs > 0 with every positive root
    adjunction_coefficients: tuple[int, int]  # q = c_u * u + c_m * sum(mu)


@dataclass(frozen=True)
class CocharacterParam:
    """A weighting of the ambient coordinates: cocharacter mu and shift u."""

    mu: tuple[int, ...]
    u: int


@dataclass(frozen=True)
class EmbeddingData:
    """Everything the search needs about one weighted embedding."""

    format_name: str
    mu: tuple[int, ...]
    u: int
    weights: tuple[int, ...]  # ambient weights, sorted
    numerator: tuple[int, ...]  # H with P = H / prod(1 - t^w)
    numerator_reduced: tuple[int, ...]  # H / (1-t)^codimension
    adjunction_number: int  # q = deg H
    sigma: int  # canonical degree of the image, q - sum(weights)


def _transposition_matrix(n: int, i: int) -> Matrix:
    m = [list(r) for r in identity_matrix(n)]
    m[i], m[i + 1] = m[i + 1], m[i]
    return tuple(tuple(r) for r in m)


G2_FORMAT = FormatSpec(
    name="g2",
    lie_rank=2,
    dimension=5,
    codimension=8,
    highest_weight=(3, 2),  # highest long root; the module is the adjoint one
    weyl_vector=(5, 3),
    weyl_generators=(((-1, 3), (0, 1)), ((1, 0), (1, -1))),
    positive_roots=((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)),
    invariant_form=((2, -3), (-3, 6)),
    auxiliary_cocharacter=(1, 1),
    adjunction_coefficients=(11, 0),
)

GR25_FORMAT = FormatSpec(
    name="gr25",
    lie_rank=4,
    dimension=6,
    codimension=3,
    highest_weight=(1, 1, 0, 0, 0),  # second exterior power of the standard module
    weyl_vector=(4, 3, 2, 1, 0),  # rho representative; constant shifts drop out
    weyl_generators=tuple(_transposition_matrix(5, i) for i in range(4)),
    positive_roots=tuple(
        tuple(int(k == i) - int(k == j) for k in range(5))
        for i in range(5)
        for j in range(i + 1, 5)
        if j == i + 1
    )
    + tuple(
        tuple(int(k == i) - int(k == j) for k in range(5))
        for i in range(5)
        for j in range(i + 1, 5)
        if j > i + 1
    ),
    invariant_form=identity_matrix(5),
    auxiliary_cocharacter=(4, 3, 2, 1, 0),
    adjunction_coefficients=(5, 2),
)

FORMATS: dict[str, FormatSpec] = {"g2": G2_FORMAT, "gr25": GR25_FORMAT}


@cache
def _weight_system(fmt: FormatSpec) -> tuple[tuple[Vector, int], ...]:
    """Weights (with multiplicity) of the defining module, sorted."""
    return tuple(sorted(weight_multiplicities(fmt, 1).items()))


def weight_multiplicities(fmt: FormatSpec, d: int) -> dict[Vector, int]:
    """Weight multiplicities of the degree-d part of the coordinate ring."""
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if d == 0:
        return {vscale(0, fmt.highest_weight): 1}
    return freudenthal_multiplicities(
        vscale(d, fmt.highest_weight),
        fmt.positive_roots,
        fmt.lie_rank,
        fmt.invariant_form,
        fmt.weyl_vector,
        fmt.weyl_generators,
    )


def ambient_weights(fmt: FormatSpec, param: CocharacterParam) -> tuple[int, ...]:
    """Weights induced on the ambient coordinates, sorted ascending.

    Raises DomainError if any weight fails to be positive.
    """
    ws: list[int] = []
    for v, m in _weight_system(fmt):
        w = dot(v, param.mu) + param.u
        ws.extend([w] * m)
    if any(w <= 0 for w in ws):
        raise DomainError("invalid parameters: nonpositive ambient weight")
    assert len(ws) == fmt.dimension + fmt.codimension + 1
    return tuple(sorted(ws))


# -- closed-form Hilbert series -------------------------------------------

_CERT_MESSAGE = "truncation insufficient or format data inconsistent"


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
    delta = fmt.auxiliary_cocharacter
    top = len(fmt.positive_roots) + 1
    out = []
    for m, s in weyl_elements(fmt.weyl_generators):
        wr = mat_vec(m, fmt.weyl_vector)
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


def _closed_form_numerator(
    fmt: FormatSpec, param: CocharacterParam, weights: tuple[int, ...]
) -> list[int]:
    """H with P = H / prod(1 - t^w), from the closed form, in integers.

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
    for k in range(len(fmt.positive_roots) + 1):
        b_k = rho_part(everything, k)
        if b_k:
            break
    else:
        raise ArithmeticError(_CERT_MESSAGE)

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
        raise ArithmeticError(_CERT_MESSAGE)
    dividend = order_sum(k)
    for w in weights:
        dividend = mul_one_minus_t_pow(dividend, w)
    divisor = b_k
    for g in by_g:
        divisor = mul_one_minus_t_pow(divisor, g, k + 1)
    try:
        return int_exact_div(dividend, divisor)
    except ArithmeticError:
        raise ArithmeticError(_CERT_MESSAGE) from None


@cache
def hilbert_series(fmt: FormatSpec, param: CocharacterParam) -> EmbeddingData:
    """The weighted embedding attached to (format, parameter), fully certified.

    The numerator H (with P = H / prod(1 - t^w) over the ambient weights)
    comes out of one exact division over Z, and is checked to have H(0) = 1,
    the degree predicted by the adjunction coefficients, and the
    (anti)palindromic symmetry Gorenstein duality demands.
    """
    weights = ambient_weights(fmt, param)
    h = _closed_form_numerator(fmt, param, weights)
    cu, cm = fmt.adjunction_coefficients
    q = cu * param.u + cm * sum(param.mu)
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
        mu=param.mu,
        u=param.u,
        weights=weights,
        numerator=tuple(h),
        numerator_reduced=tuple(reduced),
        adjunction_number=q,
        sigma=q - sum(weights),
    )


# -- parameter enumeration -------------------------------------------------


def _params_g2(
    fmt: FormatSpec, u_max: int, q_max: int | None
) -> list[CocharacterParam]:
    found: dict[tuple[int, ...], CocharacterParam] = {}
    for u in range(1, u_max + 1):
        if q_max is not None and fmt.adjunction_coefficients[0] * u > q_max:
            continue
        for a in range(-(u - 1), u):
            for b in range(-(u - 1), u):
                param = CocharacterParam((a, b), u)
                try:
                    ws = ambient_weights(fmt, param)
                except DomainError:
                    continue
                if ws not in found:
                    found[ws] = param
    return list(found.values())


def _params_gr25(
    fmt: FormatSpec, u_max: int | None, q_max: int | None
) -> list[CocharacterParam]:
    if q_max is None:
        raise DomainError(
            "q_max is required here: ambient weights are unbounded for fixed u"
        )
    found: dict[tuple[int, ...], CocharacterParam] = {}
    top = max(q_max - 5, 0)
    for rest in combinations_with_replacement(range(top + 1), 4):
        mu = (0,) + rest
        s = sum(mu)
        u_lo = 1 - mu[1]
        u_hi = (q_max - 2 * s) // 5
        if u_max is not None:
            u_hi = min(u_hi, u_max)
        for u in range(u_lo, u_hi + 1):
            param = CocharacterParam(mu, u)
            try:
                ws = ambient_weights(fmt, param)
            except DomainError:
                continue
            if ws not in found:
                found[ws] = param
    return list(found.values())


@cache
def enumerate_parameters(
    fmt: FormatSpec, u_max: int | None = None, q_max: int | None = None
) -> tuple[CocharacterParam, ...]:
    """All valid parameters up to the given bounds, one per weight multiset.

    Parameters inducing the same ambient weight multiset are identified; the
    representative kept is the smallest in iteration order (lexicographically
    least mu).  Results are sorted by (sum of weights, weights).
    """
    if fmt.name == "g2":
        if u_max is None:
            raise DomainError("u_max is required for this format")
        params = _params_g2(fmt, u_max, q_max)
    elif fmt.name == "gr25":
        params = _params_gr25(fmt, u_max, q_max)
    else:
        raise DomainError(f"unknown format {fmt.name!r}")
    return tuple(
        sorted(
            params,
            key=lambda p: (
                sum(ambient_weights(fmt, p)),
                ambient_weights(fmt, p),
            ),
        )
    )
