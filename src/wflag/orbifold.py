"""Orbifold contributions to Hilbert series of polarized n-folds.

The Hilbert series of a projectively Gorenstein n-fold with canonical weight k
and isolated cyclic quotient singularities decomposes as an initial term
(depending only on the first few plurigenera) plus one closed-form term per
singularity.  This module computes those closed forms exactly and provides the
combinatorics of which singularity collections ("baskets") are admissible on a
given weighted projective variety.

It also holds the exact stage of the search, which writes a decomposition as
one integer system.  For P_X = H/∏(1−t^{p_i}) and c = k + n + 1, the initial
term is P_I = A/(1−t)^{n+1}, with A symmetric of degree c and its first
⌊c/2⌋ + 1 coefficients those of P_X·(1−t)^{n+1} (`initial_numerator`).  Over
the common denominator C = (1−t)ⁿ·∏(1−t^r) of a set of types, r running over
their distinct indices, the contribution of a type Q is t^l·V_Q/C with
V_Q = β_Q·∏_{r′≠r_Q}(1−t^{r′}) and the one shift l = ⌊(k+n+1)/2⌋ + 1 of
every type (β_Q and l as in `_inverse_numerator`).  Leaving t^l out keeps
V_Q a polynomial when l < 0.  So P_X − P_I = Σ m_Q·P_Q is the integer system
V·m = R·t^{−l} with R = (P_X − P_I)·C, built by `_integer_system`:
`decompositions` solves it for the multiplicities of a basket, and
`basket_kernel`, with R = 0, for the collections whose contributions sum
to zero.

Both find their points by one walk of the kernel (`_kernel_points`).  With
(D, x, kernel) from `solve`, a coordinate outside the kernel's support is
the same in every solution and must be a non-negative integer
(`_fixed_coordinate_rejected`).  The kernel splits into components with
disjoint supports (`_kernel_components`), each walked on its own, and the
points are the combinations of one find per component, pairwise distinct.
`basket_kernel` walks each component's 0/1 patterns (`_zero_sum_patterns`),
and `decompositions` its vertices (`_vertices`): the solution polytope is
the product of the components' polytopes, so its vertices are the
combinations of theirs.  Every point returned passes the certificate
V·m == R·t^{−l} in integers (`_certified`).  Past one of the `_*_MAX_*`
bounds, a walk raises DomainError.

The docstring of `decompositions` lists the stages of the search in order,
each marked as a sound cut or as part of the spec; every sound cut proves
itself in the docstring of the function that applies it.
"""
from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache, partial
from itertools import combinations, product, zip_longest
from math import comb, gcd, prod
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .intpoly import DomainError, div_one_minus_t_pow, mul_one_minus_t_pow
from .linalg import solve

if TYPE_CHECKING:  # `qorb` and `initial_term` import it when called
    from .ratfun import RationalFunction, UniPolynomial

# The bounds of the kernel walks; past one, the search raises DomainError.
#: kernel vectors of one component in the 0/1 pattern walk (2^24 patterns)
_PATTERN_WALK_MAX_VECTORS = 24
#: zero sets of one component in the vertex walk
_VERTEX_WALK_MAX_ZERO_SETS = 20_000
#: combinations of the components' vertices in one solve
_VERTEX_WALK_MAX_COMBINATIONS = 4_096


class QuotientSingularity(
    NamedTuple("QuotientSingularity", [("r", int), ("weights", tuple[int, ...])])
):
    """Isolated cyclic quotient point of type 1/r(a_1, ..., a_n).

    Weights are reduced representatives in (0, r), stored sorted, so equal
    types always compare equal; types are ordered by (r, weights), the one
    order of baskets and collections.
    """

    __slots__ = ()  # a NamedTuple takes no __new__ of its own, hence this subclass

    def __new__(cls, r: int, weights) -> QuotientSingularity:
        ws = tuple(sorted(int(a) for a in weights))
        if r < 2:
            raise DomainError("index must be at least 2")
        if not ws:
            raise DomainError("a quotient type needs at least one weight")
        if any(not 0 < a < r for a in ws):
            raise DomainError("weights must lie strictly between 0 and the index")
        return super().__new__(cls, int(r), ws)

    @classmethod
    def _make(cls, iterable) -> QuotientSingularity:
        """Build through `__new__`, so `_make` and `_replace` (which calls
        `_make`) sort and check as construction does."""
        return cls(*iterable)

    def __str__(self) -> str:
        return f"1/{self.r}({','.join(str(a) for a in self.weights)})"


class OrbifoldContribution(NamedTuple):
    """One singularity's closed-form share of a Hilbert series.

    ``numerator`` is B_Q = value·(1−t)ⁿ(1−t^r) when that product is a
    polynomial (always when k ≥ −n − 3, sometimes below), else None; its
    support lies in the window [⌊c/2⌋+1, ⌊c/2⌋+r−1] for c = k + n + 1.
    """

    value: RationalFunction
    numerator: UniPolynomial | None


def _shift(k: int, n: int) -> int:
    """The power l = ⌊(k+n+1)/2⌋ + 1 of t that every contribution carries."""
    return (k + n + 1) // 2 + 1


@cache
def _inverse_numerator(
    sing: QuotientSingularity, k: int, n: int
) -> tuple[int, tuple[int, ...]]:
    """(l, β) with l = `_shift`(k, n) and β the inverse of
    t^l·∏(1−t^{aᵢ})/(1−t)ⁿ modulo A = 1 + t + … + t^{r−1}, of degree below
    r − 1, trimmed.  In integers: (1−t^a)/(1−t) has the inverse
    Σ_{j<a′} t^{a·j} with a·a′ ≡ 1 (mod r), and t^{−1} ≡ t^{r−1}, so β is a
    product in ℤ[t]/(t^r − 1), reduced modulo A by cⱼ − c_{r−1}."""
    a = sing.weights
    if len(a) != n:
        raise DomainError("weight count must match the dimension")
    r = sing.r
    if (k + sum(a)) % r:
        raise DomainError("canonical weight not compatible")
    if any(gcd(r, ai) != 1 for ai in a):
        raise DomainError("non-isolated type")
    l = _shift(k, n)
    c = [0] * r
    c[-l % r] = 1
    for ai in a:
        steps = [ai * j % r for j in range(pow(ai, -1, r))]
        c = [sum(c[(i - s) % r] for s in steps) for i in range(r)]
    beta = [cj - c[-1] for cj in c[:-1]]
    while not beta[-1]:
        beta.pop()
    return l, tuple(beta)


@lru_cache(maxsize=4096)
def _local_column(
    sing: QuotientSingularity, indices: tuple[int, ...], k: int, n: int
) -> tuple[int, ...]:
    """V_Q modulo t^d − 1 for d = r_Q and the sorted kept indices: β_Q·∏ of
    1 − t^{r′ mod d} over the other indices r′, one cyclic pass each."""
    d = sing.r
    beta = _inverse_numerator(sing, k, n)[1]
    v = list(beta) + [0] * (d - len(beta))
    for r in indices:
        if r != d:
            v = [v[i] - v[(i - r) % d] for i in range(d)]
    return tuple(v)


def _shifted(l: int, beta: Sequence[int]) -> list[int] | None:
    """t^l·β, or None when l < 0 and t^{−l} does not divide β."""
    if l < 0 and any(beta[:-l]):
        return None
    return [0] * l + list(beta) if l >= 0 else list(beta[-l:])


@cache
def qorb(sing: QuotientSingularity, k: int, n: int = 3) -> OrbifoldContribution:
    """Closed-form contribution t^l·β/((1−t)ⁿ(1−t^r)) of an isolated quotient
    singularity (the InvMod formula of Buckley–Reid–Zhou; l and β as in
    `_inverse_numerator`).

    In general the shift is ⌊(k+n+1)/2⌋ + h with h = deg gcd(1 − t^r,
    ∏(1−t^{aᵢ})), and β is the extended-Euclid cofactor.  For n ≥ 1 and
    gcd(r, aᵢ) = 1 no r-th root of unity but 1 is a root of a 1 − t^{aᵢ}, so
    that gcd is 1 − t and h = 1; nor is a root of A one of
    t^l·∏(1−t^{aᵢ})/(1−t)ⁿ, so the two are coprime and the cofactor is the
    unique inverse of degree below r − 1, which is β.

    Raises DomainError if the canonical weight k is incompatible with the
    type, or if the type is not an isolated singularity.
    """
    from .ratfun import RationalFunction, UniPolynomial

    l, beta = _inverse_numerator(sing, k, n)
    den = mul_one_minus_t_pow([0] * max(-l, 0) + [1], 1, n)
    value = RationalFunction(
        UniPolynomial([0] * max(l, 0) + list(beta)),
        UniPolynomial(mul_one_minus_t_pow(den, sing.r)),
    )
    num = _shifted(l, beta)
    return OrbifoldContribution(value, None if num is None else UniPolynomial(num))


def initial_numerator(prefix: Sequence, n: int, k: int) -> list:
    """The numerator A of the initial term P_I = A/(1−t)^{n+1}, from the
    coefficients c_0 .. c_h of P_X with h = ⌊c/2⌋ and c = k + n + 1.

    A is symmetric of degree c, and its first h + 1 coefficients are those
    of P_X·(1−t)^{n+1}, which depend only on c_0 .. c_h: n + 1 sparse
    passes of `mul_one_minus_t_pow`, cut at degree h; A = [] when c < 0.
    The coefficients may be of any exact type: integers in the sweep,
    `Fraction`s in `initial_term`.
    """
    c = k + n + 1
    if c < 0:
        return []
    low = mul_one_minus_t_pow(prefix, 1, n + 1)[: c // 2 + 1]
    return low + low[: c - c // 2][::-1]


def initial_term(series: RationalFunction, n: int, k: int) -> RationalFunction:
    """The smooth part P_I = A/(1−t)^{n+1} of an orbifold Hilbert series
    decomposition, A as in `initial_numerator`."""
    from .ratfun import RF_ZERO, RationalFunction, UniPolynomial, series_of

    half = (k + n + 1) // 2
    if half < 0:
        return RF_ZERO
    A = initial_numerator(series_of(series, half), n, k)
    return RationalFunction(UniPolynomial(A), UniPolynomial.one_minus_t_pow(1) ** (n + 1))


def gcd_closure(values) -> frozenset[int]:
    """The gcds of the nonempty sub-multisets of the values, in one fold over
    the distinct values: a gcd of a sub-multiset that contains w is gcd(w, g),
    g the gcd of the rest when there is a rest, so already in the closure."""
    s: set[int] = set()
    for w in set(values):
        s |= {gcd(w, x) for x in s}
        s.add(w)
    return frozenset(s)


@cache
def _quotient_type(r: int, weights: tuple[int, ...]) -> QuotientSingularity:
    """The one `QuotientSingularity` of each (r, sorted weights) in a sweep."""
    return QuotientSingularity(r, weights)


@cache
def _types_for_index(
    r: int, residues: tuple[int, ...], k: int, n: int
) -> tuple[QuotientSingularity, ...]:
    """Distinct n-element sub-multisets of the sorted residues compatible
    with k, sorted: each distinct (n−1)-element head with the last weight
    ≡ −k − Σ head (mod r), if that is at least the head's last entry and the
    residues hold one more copy of it than the head.  Cached: the same
    (index, residue multiset) pair recurs constantly across a sweep.
    """
    out = []
    for head in sorted(set(combinations(residues, n - 1))):
        last = (-k - sum(head)) % r
        if (not head or last >= head[-1]) and residues.count(last) > head.count(last):
            out.append(_quotient_type(r, (*head, last)))
    return tuple(out)


def porb_cont(
    weights, n: int = 3, k: int = -1
) -> tuple[tuple[QuotientSingularity, ...], tuple[int, ...]]:
    """Candidate isolated singularity types on a weighted variety.

    Returns (types, extended_weights).  The weight list is extended by the new
    values of its gcd-closure (once each): every cyclic isotropy order on the
    ambient space is a gcd of weights, so the closure's values above 1 are
    the candidate indices r.  For each index, candidate types are the
    n-element sub-multisets of the residues of the original weights coprime
    to r whose weight sum is compatible with the canonical weight k.
    """
    ws = tuple(sorted(int(w) for w in weights))
    if any(w <= 0 for w in ws):
        raise DomainError("weights must be positive")
    closure = gcd_closure(ws)
    extended = tuple(sorted([*ws, *closure.difference(ws)]))
    types: list[QuotientSingularity] = []
    for r in sorted(closure - {1}):
        residues = tuple(sorted(w % r for w in ws if gcd(w, r) == 1))
        if len(residues) < n:
            continue
        types.extend(_types_for_index(r, residues, k, n))
    return tuple(types), extended


def fits(types, extended_weights) -> bool:
    """The fitting rule (spec): a collection of distinct types fits on the
    variety when, for every index r, it uses at most as many types of index
    r as there are weights equal to r in the extended weight list."""
    counts = Counter(extended_weights)
    return all(c <= counts[r] for r, c in Counter(t.r for t in types).items())


def _target(
    types, H: Sequence[int], parts: Sequence[int], k: int, n: int
) -> tuple[list[QuotientSingularity], list[int]] | None:
    """(kept, R·t^{−l}) for P_X = H/∏(1 − t^{p_i}): the types the `kept`
    rule keeps and the trimmed target of their system; ([], []) when
    P_X = P_I, and None when no type is kept or R·t^{−l} is not a
    polynomial, so that no basket exists.

    With I the indices of the offered types, one run of sparse passes builds
    R′ = (P_X − P_I)·(1−t)^{n+1}·∏_I(1−t^r) as
    H·(1−t)^{n+1}·∏_I(1−t^r)/∏(1−t^{p_i}) − A·∏_I(1−t^r).  The integrality
    test is an exact equivalence, not a cut: a basket m makes R·t^{−l} = V·m
    a polynomial, and R′ is the R of any K ⊆ I times (1−t)·∏_{I∖K}(1−t^r),
    so after a failed division no subset of the types has a basket.
    The `kept` rule (spec, with no soundness argument, and known to drop
    certified decompositions) keeps the types whose P_Q has at most the
    degree deg R′ − (n + 1) − Σ_I r of P_X − P_I; their indices K give
    R = R′/((1−t)·∏_{I∖K}(1−t^r)), by exact divisions again.
    """
    indices = sorted({t.r for t in types})
    # a factor 1 − t^r of the numerator that is also a part cancels
    X, rest = H, list(parts)
    for r in [1] * (n + 1) + indices:
        if r in rest:
            rest.remove(r)
        else:
            X = mul_one_minus_t_pow(X, r)
    try:
        for w in rest:
            X = div_one_minus_t_pow(X, w)
    except ArithmeticError:
        return None
    # the coefficients of P_X up to degree ⌊c/2⌋, all that P_I depends on
    h = (k + n + 1) // 2
    prefix = [H[i] if i < len(H) else 0 for i in range(h + 1)]
    for w in parts:
        for i in range(w, h + 1):
            prefix[i] += prefix[i - w]
    A = initial_numerator(prefix, n, k)
    for r in indices:
        A = mul_one_minus_t_pow(A, r)
    R = [x - a for x, a in zip_longest(X, A, fillvalue=0)]
    top = max((i for i, v in enumerate(R) if v), default=-1)
    if top < 0:
        return [], []
    # deg P_Q = l + deg β_Q − n − r_Q, and deg(P_X − P_I) = deg R′ − (n+1) − Σ_I r
    l = _shift(k, n)
    top -= sum(indices) + l
    kept = [q for q in types if len(_inverse_numerator(q, k, n)[1]) - q.r <= top]
    if not kept:
        return None
    try:
        R = div_one_minus_t_pow(R, 1)
        for r in set(indices) - {q.r for q in kept}:
            R = div_one_minus_t_pow(R, r)
    except ArithmeticError:
        return None
    R = _shifted(-l, R)
    return None if R is None else (kept, R)


def _folded_system(
    kept, indices: tuple[int, ...], target: Sequence[int], d: int, k: int, n: int
) -> tuple[int, list[int], list[list[int]]] | None:
    """The image modulo t^d − 1 of V·m = target, the system of the kept
    types, for d one of the sorted kept indices: the types of index d alone,
    with their `_local_column`s, against the folded target, solved as
    (D, x, kernel); None when it shows that the tuple has no basket.

    A sound cut: every V_Q of another kept index carries the factor 1 − t^d,
    which vanishes modulo t^d − 1.  So a basket m restricts, on the types
    of index d, to a solution m ≥ 0 in integers of the d folded equations
    Σ_{r_Q=d} m_Q·(V_Q mod t^d − 1) = R·t^{−l} mod t^d − 1, which an
    inconsistent system or a `_fixed_coordinate_rejected` rules out.
    """
    folded = [sum(target[i::d]) for i in range(d)]
    cols = [_local_column(q, indices, k, n) for q in kept if q.r == d]
    solved = solve(list(zip(*cols)), folded)
    return None if solved is None or _fixed_coordinate_rejected(*solved) else solved


def _integer_system(
    types, target: Sequence[int], k: int, n: int
) -> tuple[list[list[int]], list[int]]:
    """Σ m_Q·V_Q = target as (rows, rhs), one equation per power of t and
    one column V_Q per type (V_Q as in the module docstring); target = []
    gives the system of the zero-sum collections."""
    indices = sorted({t.r for t in types})
    vecs = []
    for t in types:
        v = list(_inverse_numerator(t, k, n)[1])
        for r in indices:
            if r != t.r:
                v = mul_one_minus_t_pow(v, r)
        vecs.append(v)
    length = max([len(target), *map(len, vecs)])
    rows = [[v[i] if i < len(v) else 0 for v in vecs] for i in range(length)]
    return rows, [*target] + [0] * (length - len(target))


def _certified(rows: list[list[int]], rhs: list[int], m: Sequence[int]) -> bool:
    """The certificate of every solution m (spec): V·m == R·t^{−l} in
    integers."""
    return all(sum(map(mul, row, m)) == b for row, b in zip(rows, rhs))


def _kernel_components(kernel: Sequence[Sequence[int]]) -> list[tuple[list[int], list]]:
    """The kernel vectors grouped into independent components, as pairs
    (coords, vecs): vectors whose supports overlap, directly or through a
    chain of others, share a component, and coords is the union of their
    supports.  The coords of different components are disjoint; components
    come in order of their first coordinate, vectors in kernel order."""
    comps: list[tuple[set[int], list[int]]] = []
    for idx, vec in enumerate(kernel):
        coords, members, rest = {i for i, v in enumerate(vec) if v}, [idx], []
        for comp in comps:
            if comp[0] & coords:
                coords |= comp[0]
                members += comp[1]
            else:
                rest.append(comp)
        comps = rest + [(coords, members)]
    return sorted((sorted(c), [kernel[i] for i in sorted(m)]) for c, m in comps)


def _fixed_coordinate_rejected(D: int, x: Sequence[int], kernel) -> bool:
    """Whether x/D plus the span of the kernel has no point m ≥ 0 in
    integers because a coordinate outside the kernel's support, the same in
    every point, is negative or not an integer."""
    return any((v < 0 or v % D) and not any(vec[i] for vec in kernel) for i, v in enumerate(x))


def _kernel_points(D: int, x: Sequence[int], kernel, walk, limit: int | None = None):
    """The points m of x/D + span(kernel), one per combination of the finds
    of walk(coords, vecs) on each component, a find being the values of m
    on coords (see the module docstring); more than limit raise DomainError.
    """
    if _fixed_coordinate_rejected(D, x, kernel):
        return
    components = _kernel_components(kernel)
    per_comp = []
    for coords, vecs in components:
        finds = walk(coords, vecs)
        if not finds:
            return
        per_comp.append(finds)
    if limit is not None and prod(map(len, per_comp)) > limit:
        raise DomainError("kernel search space too large")
    fixed = [v // D for v in x]
    for combo in product(*per_comp):
        m = fixed.copy()
        for (coords, _), values in zip(components, combo):
            for i, v in zip(coords, values):
                m[i] = v
        yield m


def _zero_sum_patterns(D: int, coords, vecs) -> list[tuple[int, ...]]:
    """The 0/1 finds of one component of a kernel with x = 0: none of its
    vectors, then each nonempty pattern of them whose sum is 0 or D at every
    coordinate.  The basis has D in its free coordinates, so these are all
    its points with values 0 and 1."""
    if len(vecs) > _PATTERN_WALK_MAX_VECTORS:
        raise DomainError("kernel search space too large")
    parts = [[vec[i] for i in coords] for vec in vecs]
    finds = [(0,) * len(coords)]
    for mask in range(1, 1 << len(parts)):
        chosen = (p for b, p in enumerate(parts) if (mask >> b) & 1)
        total = [sum(col) for col in zip(*chosen)]
        if all(v in (0, D) for v in total):
            finds.append(tuple(v // D for v in total))
    return finds


def _nonnegative_zero_set_points(D: int, x: Sequence[int], coords, vecs):
    """The points m ≥ 0 of one component that zero sets pin, in zero-set
    order, each as (values, scale) with m = values/scale on coords: a zero
    set of as many coordinates as the component has vectors, if its
    equations are non-singular, pins the coefficients lam/E of the vectors,
    and the coordinate i is then (E·x[i] + Σ lam·vec[i]) / (D·E)."""
    for zero_set in combinations(coords, len(vecs)):
        solved = solve(
            [[vec[i] for vec in vecs] for i in zero_set], [-x[i] for i in zero_set]
        )
        if solved is None or solved[2]:
            continue
        E, lam, _ = solved
        values = [E * x[i] + sum(map(mul, lam, (vec[i] for vec in vecs))) for i in coords]
        if all(v >= 0 for v in values):
            yield values, D * E


def _vertices(D: int, x: Sequence[int], coords, vecs) -> list[tuple[int, ...]]:
    """The distinct integer vertices m ≥ 0 of one component, in the order of
    their first zero set: the integral `_nonnegative_zero_set_points`."""
    if comb(len(coords), len(vecs)) > _VERTEX_WALK_MAX_ZERO_SETS:
        raise DomainError("kernel search space too large")
    found: dict[tuple[int, ...], None] = {}
    for values, scale in _nonnegative_zero_set_points(D, x, coords, vecs):
        if not any(v % scale for v in values):
            found.setdefault(tuple(v // scale for v in values))
    return list(found)


def _polytope_empty(D: int, x: Sequence[int], kernel) -> bool:
    """Whether x/D + span(kernel), a folded system with no fixed coordinate
    rejected, has no real point m ≥ 0: some component has x < 0 on a
    coordinate and no `_nonnegative_zero_set_points`.

    A sound cut: a basket restricts to a real point ≥ 0 of each folded
    system, so of each kernel component on its coordinates.  Unless x ≥ 0
    there, the component's points ≥ 0 form a polyhedron with no line (each
    kernel vector has D in its own free coordinate), empty without a vertex,
    a non-singular zero set with all values ≥ 0.  This needs only m ≥ 0,
    not the vertex or `kept` rules.  A component past
    `_VERTEX_WALK_MAX_ZERO_SETS` zero sets is not cut."""
    return any(
        any(x[i] < 0 for i in coords)
        and comb(len(coords), len(vecs)) <= _VERTEX_WALK_MAX_ZERO_SETS
        and next(_nonnegative_zero_set_points(D, x, coords, vecs), None) is None
        for coords, vecs in _kernel_components(kernel)
    )


def basket_kernel(
    types, extended_weights, k: int, n: int = 3
) -> tuple[tuple[QuotientSingularity, ...], ...]:
    """Admissible collections of at least two distinct types whose
    contributions sum to zero exactly.

    A collection is a 0/1 point of the nullspace of the contribution
    vectors, walked by `_kernel_points` with `_zero_sum_patterns` on each
    component, so at most 2^dim points are built.
    """
    types = tuple(types)
    if len(types) < 2:
        return ()
    rows, rhs = _integer_system(types, [], k, n)
    D, x, kernel = solve(rows, rhs)
    out = []
    for member in _kernel_points(D, x, kernel, partial(_zero_sum_patterns, D)):
        subset = tuple(t for t, used in zip(types, member) if used)
        if len(subset) < 2 or not fits(subset, extended_weights):
            continue
        # the certificate: the members' vectors sum to zero
        if _certified(rows, rhs, member):
            out.append(subset)
    return tuple(sorted(out))


def decompositions(
    types, H: Sequence[int], parts: Sequence[int], k: int, n: int
) -> list[dict[QuotientSingularity, int]]:
    """The baskets of P_X = H/∏(1 − t^{p_i}) = P_I + Σ m_Q·P_Q over the
    given types, each a map from type to multiplicity, before the fitting
    rule.  P_X = P_I gives the one empty basket: a smooth member.

    The baskets are the integer vertices m ≥ 0 of the solutions, pairwise
    distinct: `_kernel_points` with the `_vertices` of each component.  The
    integer solutions between two vertices are not returned.  For table
    row 2, c×1/2(1,1,1) + (9−c)×(1/4(1,1,3) + 1/4(3,3,3)) + 1/5(3,4,4) fits
    and passes the exact identity for every 0 ≤ c ≤ 9, and only c = 9 and
    c = 0 come back.

    The stages of the search, in order, each described in the docstring of
    the function named:

    1. `search._iter_pos_wt`: the top-weight cap (spec) and the divisor
       bounds of `search._divisor_bounds`, that is well-formedness (spec)
       and the pole-order caps of `search._pole_caps` (sound cut);
    2. `porb_cont`: the candidate types (spec);
    3. `_target`: the integrality of R (spec, an exact equivalence) and
       the `kept` rule (spec, with no soundness argument);
    4. `_folded_system` at each kept index, largest first, stopping at the
       first rejection (sound cut);
    5. `_polytope_empty` on every folded system (sound cut);
    6. `_integer_system`, `solve` and the vertex walk `_vertices` (spec);
    7. `_certified` (spec);
    8. `fits`, applied by `search.search_embedding` (spec).
    """
    found = _target(types, H, parts, k, n)
    if found is None:
        return []
    kept, target = found
    if not target:
        return [{}]
    indices = tuple(sorted({q.r for q in kept}))
    folded = []
    for d in indices[::-1]:
        solved = _folded_system(kept, indices, target, d, k, n)
        if solved is None:
            return []
        folded.append(solved)
    if any(_polytope_empty(*solved) for solved in folded):
        return []
    rows, rhs = _integer_system(kept, target, k, n)
    solved = solve(rows, rhs)
    if solved is None:
        return []
    D, x, kernel = solved
    walk = partial(_vertices, D, x)
    points = _kernel_points(D, x, kernel, walk, _VERTEX_WALK_MAX_COMBINATIONS)
    return [{q: v for q, v in zip(kept, m) if v} for m in points if _certified(rows, rhs, m)]
