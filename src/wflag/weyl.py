"""Weyl group machinery: closure, dominance and weight multiplicities.

All vectors are integer coordinate tuples; reflections are given as integer
matrices acting on those coordinates.  Two different pairings appear:

* ``dot`` — the evaluation of a weight against a one-parameter subgroup
  (cocharacter), used to turn weights into scalar gradings;
* ``form_pair`` — a Weyl-invariant symmetric form on the weight space, used
  for dominance tests and the Freudenthal recursion.
"""
from __future__ import annotations

from functools import cache
from itertools import product

from .linalg import det, solve

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


# -- small integer linear algebra -----------------------------------------


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in cols) for ra in a
    )


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


# -- Weyl group closure ----------------------------------------------------


@cache
def weyl_elements(generators: tuple[Matrix, ...]) -> tuple[tuple[Matrix, int], ...]:
    """All group elements generated by the given matrices, with determinant signs.

    Returned sorted by matrix entries so the order is reproducible.  A sweep
    never needs the whole group (`weyl_orbit` walks orbits instead); the
    Weyl-character reference methods of the tests do, and the benchmark's
    tracer (perfbench/spans.py) wraps this function by name.
    """
    n = len(generators[0])
    gen_signs = [det(g) for g in generators]
    seen: dict[Matrix, int] = {identity_matrix(n): 1}
    frontier = list(seen)
    while frontier:
        fresh = []
        for m in frontier:
            s = seen[m]
            for g, gs in zip(generators, gen_signs):
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen[prod] = s * gs
                    fresh.append(prod)
        frontier = fresh
    return tuple(sorted(seen.items()))


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


# -- dominance and simple-root coordinates ---------------------------------


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


# -- weight multiplicities -------------------------------------------------


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
