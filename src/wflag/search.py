"""Systematic search for quasi-smooth n-folds in weighted flag varieties.

For every embedding of a format (a choice of cocharacter parameters giving
ambient weights and a Hilbert numerator H) the search scans all plausible
weight tuples p of size s = n + e + 1 with Σp = q − k, forms the would-be
Hilbert series P_X = H / ∏(1 − t^{p_i}), and asks whether P_X decomposes as
the initial term P_I plus a nonnegative integer combination of isolated
cyclic quotient singularity contributions supported on the ambient weights.
Each success is emitted as a :class:`Candidate` carrying its basket of
singularities, its degree, and any zero-sum kernels among the potential
singularity types (which make the basket ambiguous).

The work is arranged as a funnel: a divisor-count bound inside the tuple
enumeration first, then cheap integer filters, then the integrality of
R = (P_X − P_I)·C over the common denominator C of the contributions (sparse
exact divisions by each 1 − t^{p_i}), and for the rare survivors the integer
coefficient system V·m = R·t^{−l} (every contribution carries the same power
t^l, left out of V), solved by fraction-free elimination over ℤ
(`linalg.solve`, whose solutions are integer vectors over one common
denominator D).  Every emitted basket m is
certified by the identity V·m == R·t^{−l} in integers, so the filters cannot
produce false positives.  They can miss true ones: before the exact stage a
type is dropped when its P_Q has a higher degree than P_X − P_I, a rule with
no soundness argument that drops certified decompositions (g2 (−2,2) u=5
at k = 1, for one).

The bound caps #{i : d | p_i} by bound_d = min(cap_d, s − 2 when d is
prime) for 2 ≤ d ≤ max(ambient), a table built once per embedding.  For
s ≥ 2, removing entry i leaves gcd > 1 exactly when a prime divides the
s − 1 others, so s − 2 on the primes is well-formedness.  cap_d is
v_{Φ_d}(H) + 1: each orbifold term B_Q/((1−t)ⁿ(1−t^{r_Q})) has at most a
simple pole at a primitive d-th root of unity ζ_d, d > 1, and P_I has none,
so an emitted P_X has at most a simple pole there; and as Φ_d is irreducible
and 1 − t^{p_i} vanishes simply at ζ_d exactly when d | p_i, the pole order
of P_X = H/∏(1 − t^{p_i}) at ζ_d is #{i : d | p_i} − v_{Φ_d}(H) when that is
positive.  The tuples ascend and the counts only grow as a prefix gets
longer, so every completion of a prefix with a count past its bound would
fail too: the enumeration cuts the prefix, and `tuples_scanned` counts the
tuples within the bounds.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, product
from math import comb, prod
from multiprocessing import get_context
from typing import Iterable, Iterator, Sequence

from .formats import (
    CocharacterParam,
    EmbeddingData,
    FORMATS,
    enumerate_parameters,
    hilbert_series,
)
from .linalg import solve
from .orbifold import (
    QuotientSingularity,
    _certified,
    _coefficient_system,
    _inverse_numerator,
    _kernel_components,
    _shift,
    _shifted,
    basket_kernel,
    fits,
    porb_cont,
    type_vectors,
)
from .ratfun import (
    DomainError,
    cyclotomic_valuation,
    denominator_poly,
    div_one_minus_t_pow,
    int_mul,
    mul_one_minus_t_pow,
)


# ---------------------------------------------------------------------------
# configuration and result types


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of a sweep over one format.

    ``u_max`` bounds the adjunction parameter for formats whose ambient
    weights grow with u alone; ``q_max`` bounds the adjunction number for
    formats needing it.  ``params`` overrides parameter enumeration with an
    explicit list (useful for targeting a single embedding).
    """

    format_name: str = "g2"
    k: int = -1
    n: int = 3
    u_min: int | None = None
    u_max: int | None = None
    q_max: int | None = None
    jobs: int = 1
    params: tuple[CocharacterParam, ...] | None = None


@dataclass(frozen=True)
class Candidate:
    """One suggested quasi-smooth n-fold found by the search."""

    format_name: str
    mu: tuple[int, ...]
    u: int
    x_weights: tuple[int, ...]
    k: int
    n: int
    degree: Fraction
    basket: tuple[tuple[QuotientSingularity, int], ...]
    kernels: tuple[tuple[QuotientSingularity, ...], ...]
    smooth: bool
    numerator: tuple[int, ...]

    def basket_str(self) -> str:
        if not self.basket:
            return "-"
        return ", ".join(
            (f"{m} x {sing}" if m != 1 else str(sing)) for sing, m in self.basket
        )


@dataclass(frozen=True)
class SweepResult:
    """Outcome of scanning a single embedding."""

    format_name: str
    mu: tuple[int, ...]
    u: int
    k: int
    n: int
    candidates: tuple[Candidate, ...]
    tuples_scanned: int
    elapsed_ms: float  # wall time of the scan, in ms to three decimals


def _candidate_order_key(c: Candidate):
    return (sum(c.x_weights), c.x_weights, c.basket)


def compact_weights(weights: Sequence[int]) -> str:
    """Render a sorted weight multiset as ``1,2^4,3^4,4^2,5``."""
    runs = [(w, len(list(group))) for w, group in groupby(weights)]
    return ",".join(str(w) if c == 1 else f"{w}^{c}" for w, c in runs)


# ---------------------------------------------------------------------------
# weight tuple enumeration


def _iter_pos_wt(ambient: Sequence[int], s: int, w: int, bounds: dict[int, int]):
    """Yield in ascending lexicographic order the size-s multisets from
    [1, max(ambient)] summing to w, with #{i : d | p_i} ≤ bounds[d] for each d
    and no more top weights than the ambient has.  One entry is never well
    formed (removing it leaves gcd 0), so s < 2 yields nothing."""
    amb = sorted(ambient)
    wmax = amb[-1]
    top_cap = amb.count(wmax)
    divs = [[d for d in bounds if v % d == 0] for v in range(wmax + 1)]
    count = dict.fromkeys(bounds, 0)
    acc: list[int] = []

    def rec(lo: int, remaining: int, slots: int):
        if slots == 0:
            yield tuple(acc)
            return
        start = max(lo, remaining - (slots - 1) * wmax)
        for v in range(start, min(wmax, remaining // slots) + 1):
            # the tuples ascend, so a top weight fills every slot left
            if v == wmax and slots > top_cap:
                break
            ds = divs[v]
            if any(count[d] >= bounds[d] for d in ds):
                continue
            for d in ds:
                count[d] += 1
            acc.append(v)
            yield from rec(v, remaining - v, slots - 1)
            acc.pop()
            for d in ds:
                count[d] -= 1

    if s >= 2 and w >= s:
        yield from rec(1, w, s)


def _divisor_bounds(wmax: int, s: int, caps: dict[int, int]) -> dict[int, int]:
    """The caps lowered to s − 2 at each prime d ≤ wmax (well-formedness)."""
    bounds = dict(caps)
    for d in range(2, wmax + 1):
        if all(d % f for f in range(2, d)):
            bounds[d] = min(bounds.get(d, s), s - 2)
    return bounds


def pos_wt(ambient: Sequence[int], s: int, w: int) -> list[tuple[int, ...]]:
    """All size-s multisets from [1, max(ambient)] summing to w that give a
    well-formed weighted projective space and respect the top-weight cap."""
    return list(_iter_pos_wt(ambient, s, w, _divisor_bounds(max(ambient), s, {})))


# ---------------------------------------------------------------------------
# the pole-order bound at roots of unity


def _pole_caps(H: Sequence[int], wmax: int, s: int) -> dict[int, int]:
    """The caps cap_d = v_{Φ_d}(H) + 1 for 2 ≤ d ≤ wmax, keeping only the
    caps below s, the size of a tuple."""
    caps = {d: cyclotomic_valuation(H, d) + 1 for d in range(2, wmax + 1)}
    return {d: cap for d, cap in caps.items() if cap < s}


# ---------------------------------------------------------------------------
# integer helpers for the scan hot path


def _series_prefix(H: Sequence[int], parts: Sequence[int], order: int) -> list[int]:
    """First coefficients of H / ∏(1 − t^{p_i})."""
    co = [H[i] if i < len(H) else 0 for i in range(order + 1)]
    for w in parts:
        for i in range(w, order + 1):
            co[i] += co[i - w]
    return co


def _initial_coeffs(H: Sequence[int], parts: Sequence[int], k: int, n: int) -> list[int]:
    """Integer coefficients of the initial-term numerator A with
    P_I = A/(1−t)^{n+1}; symmetric of degree k+n+1."""
    c = k + n + 1
    if c < 0:
        return []
    half = c // 2
    co = _series_prefix(H, parts, half)
    signs = [(-1) ** j * comb(n + 1, j) for j in range(half + 1)]
    pp = [
        sum(signs[j] * co[i - j] for j in range(min(i, half) + 1))
        for i in range(half + 1)
    ]
    A = [0] * (c + 1)
    for i in range(half + 1):
        A[i] = pp[i]
        A[c - i] = pp[i]
    return A


# ---------------------------------------------------------------------------
# the exact stage: integrality of R, then the integer system


def _integral_target(
    kept: Sequence[QuotientSingularity],
    N0: list[int],
    parts: Sequence[int],
    k: int,
    n: int,
) -> list[int] | None:
    """R·t^{−l} for R = N0·C/∏(1 − t^{p_i}), C = (1−t)ⁿ∏(1−t^r) over the
    indices r of the types and l = `_shift`(k, n), or None when it is not a
    polynomial; one sparse pass per factor.  Every contribution is t^l·V_Q/C
    (`type_vectors`), so V·m = R·t^{−l} is the system for any k.
    """
    R = mul_one_minus_t_pow(N0, 1, n)
    for r in sorted({sng.r for sng in kept}):
        R = mul_one_minus_t_pow(R, r)
    try:
        for w in parts:
            R = div_one_minus_t_pow(R, w)
    except ArithmeticError:
        return None
    return _shifted(-_shift(k, n), R)


def _exact_solutions(
    kept: list[QuotientSingularity],
    N0: list[int],
    parts: Sequence[int],
    k: int,
    n: int,
) -> list[dict[QuotientSingularity, int]]:
    """The integer vertices m ≥ 0 of the solutions of P_X − P_I =
    N0/∏(1 − t^{p_i}) = Σ m_Q·P_Q: in each independent component of the
    kernel, the solutions with as many zero coordinates as the component
    has dimensions, combined over the components.  The integer solutions
    between two vertices are not returned.  For table row 2, c×1/2(1,1,1) +
    (9−c)×(1/4(1,1,3) + 1/4(3,3,3)) + 1/5(3,4,4) fits and passes the exact
    identity for every 0 ≤ c ≤ 9, and only c = 9 and c = 0 come back.

    Over the common denominator C of the types this is Σ m_Q·V_Q = R·t^{−l}
    with R = (P_X − P_I)·C.  V·m is an integer polynomial for every integer
    m, so when R·t^{−l} is not one there is no solution; this test runs
    first, before any type vector is built.
    """
    R = _integral_target(kept, N0, parts, k, n)
    if R is None:
        return []
    V, _ = type_vectors(kept, k, n)
    rows, rhs = _coefficient_system(V, R)
    solved = solve(rows, rhs)
    if solved is None:
        return []
    return _enumerate_kernel_solutions(kept, *solved, rows, rhs)


def _enumerate_kernel_solutions(kept, D, particular, kernel, rows, rhs):
    """The solutions are particular/D plus rational combinations of the
    integer kernel vectors; every test below is one on integers."""
    # choices within distinct components of the kernel are independent
    components = _kernel_components(kernel)
    involved = {i for coords, _ in components for i in coords}
    # coordinates outside the kernel support agree across all solutions
    for i, v in enumerate(particular):
        if i not in involved and (v < 0 or v % D):
            return []

    # every extreme solution has at least dim-many vanishing coordinates in
    # each component, so pin the combination coefficients by choosing which
    # (a combination lam/E of the vectors gives the coordinate
    # (E·particular[i] + Σ lam·vec[i]) / (D·E))
    per_comp: list[list[dict[int, int]]] = []
    for coords, vecs in components:
        dim = len(vecs)
        if comb(len(coords), dim) > 20_000:
            raise DomainError("kernel search space too large")
        assigns: list[dict[int, int]] = []
        seen_vals: set[tuple[int, ...]] = set()
        for zero_set in combinations(coords, dim):
            solved = solve(
                [[vec[i] for vec in vecs] for i in zero_set],
                [-particular[i] for i in zero_set],
            )
            if solved is None or solved[2]:
                continue
            E, lam, _ = solved
            vals: dict[int, int] = {}
            for i in coords:
                v = E * particular[i] + sum(
                    lv * vec[i] for lv, vec in zip(lam, vecs)
                )
                if v < 0 or v % (D * E):
                    break
                vals[i] = v // (D * E)
            else:
                key = tuple(vals[i] for i in coords)
                if key not in seen_vals:
                    seen_vals.add(key)
                    assigns.append(vals)
        if not assigns:
            return []
        per_comp.append(assigns)

    total = 1
    for assigns in per_comp:
        total *= len(assigns)
        if total > 4096:
            raise DomainError("kernel search space too large")
    solutions: list[dict[QuotientSingularity, int]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for combo in product(*per_comp):
        # particular/D is integral outside the kernel support (checked
        # above), and the components overwrite every involved coordinate
        m = [v // D for v in particular]
        for vals in combo:
            for i, v in vals.items():
                m[i] = v
        key = tuple((i, v) for i, v in enumerate(m) if v)
        if key in seen or not _certified(rows, rhs, m):
            continue
        seen.add(key)
        solutions.append({s: v for s, v in zip(kept, m) if v})
    return solutions


# ---------------------------------------------------------------------------
# per-embedding scan


def search_embedding(
    format_name: str,
    param: CocharacterParam,
    k: int = -1,
    n: int = 3,
) -> tuple[list[Candidate], int]:
    """Scan one embedding; returns (candidates, number of tuples scanned)."""
    fmt = FORMATS[format_name]
    data = hilbert_series(fmt, param)
    e = fmt.codimension
    s = n + e + 1
    q = data.adjunction_number
    total = q - k
    H = data.numerator
    Hred1 = sum(data.numerator_reduced)
    ambient = data.weights

    candidates: list[Candidate] = []
    scanned = 0

    if total < s:
        return [], 0
    wmax = max(ambient)
    bounds = _divisor_bounds(wmax, s, _pole_caps(H, wmax, s))

    l = _shift(k, n)
    try:
        for parts in _iter_pos_wt(ambient, s, total, bounds):
            scanned += 1
            den_n1 = denominator_poly(parts, total)
            for _ in range(n + 1):
                den_n1 = div_one_minus_t_pow(den_n1, 1)
            A = _initial_coeffs(H, parts, k, n)
            # N0 = H − A·den_n1 is the numerator of P_X − P_I over ∏(1 − t^{p_i})
            prod_ai = int_mul(A, den_n1)
            N0 = [
                (H[i] if i < len(H) else 0) - (prod_ai[i] if i < len(prod_ai) else 0)
                for i in range(max(len(H), len(prod_ai)))
            ]
            dN0 = max((i for i, v in enumerate(N0) if v), default=-1)

            types, extended = porb_cont(parts, n, k)
            if dN0 < 0:
                # P_X = P_I exactly: smooth member
                solutions = [{}]
            else:
                rat_rhs = dN0 - total
                # unproven, see the module docstring; deg B_Q = l + deg β_Q
                kept = [
                    sng
                    for sng in types
                    if l + len(_inverse_numerator(sng, k, n)[1]) - 1 - n - sng.r
                    <= rat_rhs
                ]
                if not kept:
                    continue
                solutions = [
                    solution
                    for solution in _exact_solutions(kept, N0, parts, k, n)
                    if fits(solution, extended)
                ]
            if solutions:
                _emit(
                    candidates, data, format_name, parts, solutions, types,
                    extended, Hred1, k, n,
                )
    except DomainError as exc:
        # a cap of the kernel searches: say which tuple the sweep stopped at
        mu = ",".join(str(a) for a in param.mu)
        raise DomainError(
            f"{format_name} mu=({mu}) u={param.u} P[{compact_weights(parts)}]: {exc}"
        ) from None

    candidates.sort(key=_candidate_order_key)
    return candidates, scanned


def _emit(
    candidates: list[Candidate],
    data: EmbeddingData,
    format_name: str,
    parts: tuple[int, ...],
    solutions: list[dict[QuotientSingularity, int]],
    types: tuple[QuotientSingularity, ...],
    extended: tuple[int, ...],
    Hred1: int,
    k: int,
    n: int,
) -> None:
    """Append one candidate per solution of a weight tuple (distinct, and
    each tuple is scanned once), computing the tuple's kernels once."""
    degree = Fraction(Hred1, prod(parts))
    if degree <= 0:
        return
    kernels = basket_kernel(types, extended, k, n) if types else ()
    for solution in solutions:
        basket = tuple(sorted(solution.items()))
        candidates.append(
            Candidate(
                format_name=format_name,
                mu=data.mu,
                u=data.u,
                x_weights=parts,
                k=k,
                n=n,
                degree=degree,
                basket=basket,
                kernels=kernels,
                smooth=not basket,
                numerator=data.numerator,
            )
        )


# ---------------------------------------------------------------------------
# sweep driver


def _sweep_one(args) -> SweepResult:
    config, param = args
    t0 = time.perf_counter()
    cands, scanned = search_embedding(config.format_name, param, k=config.k, n=config.n)
    elapsed = round((time.perf_counter() - t0) * 1000, 3)
    return SweepResult(
        format_name=config.format_name,
        mu=param.mu,
        u=param.u,
        k=config.k,
        n=config.n,
        candidates=tuple(cands),
        tuples_scanned=scanned,
        elapsed_ms=elapsed,
    )


def sweep_parameters(config: SearchConfig) -> tuple[CocharacterParam, ...]:
    """The embeddings a config will visit, in deterministic order."""
    if config.params is not None:
        params = config.params
    else:
        fmt = FORMATS[config.format_name]
        params = enumerate_parameters(fmt, u_max=config.u_max, q_max=config.q_max)
    if config.u_min is not None:
        params = tuple(p for p in params if p.u >= config.u_min)
    return tuple(params)


def iter_search(config: SearchConfig) -> Iterator[SweepResult]:
    """Run the sweep, yielding one result per embedding in enumeration order.

    Results are identical for any worker count; with jobs > 1 the embeddings
    are distributed over a process pool and merged back in order.
    """
    params = sweep_parameters(config)
    tasks = [(config, p) for p in params]
    if config.jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _sweep_one(task)
        return
    ctx = get_context("fork")
    with ctx.Pool(processes=min(config.jobs, len(tasks))) as pool:
        for result in pool.imap(_sweep_one, tasks, chunksize=1):
            yield result


def candidate_key(cand: Candidate) -> tuple:
    """The identity a sweep deduplicates on: (weights, basket with counts)."""
    return (
        cand.x_weights,
        tuple((s.r, s.weights, m) for s, m in cand.basket),
    )


def merge_candidates(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Deduplicate by `candidate_key` and impose the canonical output order
    (Σ weights, weights, basket)."""
    merged: list[Candidate] = []
    seen: set = set()
    for cand in candidates:
        key = candidate_key(cand)
        if key in seen:
            continue
        seen.add(key)
        merged.append(cand)
    merged.sort(key=_candidate_order_key)
    return merged


def search(config: SearchConfig) -> list[Candidate]:
    """All candidates of the sweep: deduplicated by (weights, basket) and
    ordered by (Σ weights, weights, basket)."""
    return merge_candidates(
        cand for result in iter_search(config) for cand in result.candidates
    )


# ---------------------------------------------------------------------------
# the reference table


def _q(r: int, a: int, b: int, c: int) -> QuotientSingularity:
    return QuotientSingularity(r, (a, b, c))


#: The six log-terminal Fano threefold families found in the codimension-8
#: sweep with u ≤ 7 (degree column = (−K)³).  "degree" and "kernel" hold the
#: values this package computes and re-verifies exactly; where the original
#: published row differs, the published value is kept alongside under a
#: "published_*" key.  Known deviations, re-derived here from scratch:
#:   * row (−3,4):7 — published degree 4/65 is incompatible with the row's own
#:     basket and weights (the degree fixes the smooth initial term that the
#:     basket identity must close against); the identity closes exactly for
#:     1/22.
#:   * kernel column — published Y/N flags (Y on rows 2 and 6) cannot be
#:     produced by the published algorithm: every zero-sum subset of each
#:     row's types fails the stated index-sub-multiset test, so the computed
#:     flag is False for all rows.
G2_FANO_TABLE: tuple[dict, ...] = (
    {
        "mu": (0, 0),
        "u": 1,
        "weights": (1,) * 12,
        "degree": Fraction(18),
        "basket": (),
        "kernel": False,
        "published_kernel": False,
    },
    {
        "mu": (-1, 1),
        "u": 3,
        "weights": (1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5),
        "degree": Fraction(9, 10),
        "basket": ((_q(2, 1, 1, 1), 9), (_q(5, 3, 4, 4), 1)),
        "kernel": False,
        "published_kernel": True,
    },
    {
        "mu": (-1, 1),
        "u": 4,
        "weights": (2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5),
        "degree": Fraction(1, 5),
        "basket": ((_q(2, 1, 1, 1), 2), (_q(3, 1, 1, 2), 6), (_q(5, 3, 4, 4), 3)),
        "kernel": False,
        "published_kernel": False,
    },
    {
        "mu": (-2, 3),
        "u": 4,
        "weights": (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 6, 7),
        "degree": Fraction(9, 14),
        "basket": ((_q(4, 1, 1, 3), 2), (_q(7, 4, 5, 6), 1)),
        "kernel": False,
        "published_kernel": False,
    },
    {
        "mu": (-4, 6),
        "u": 7,
        "weights": (1, 1, 3, 5, 5, 7, 7, 7, 9, 9, 11, 13),
        "degree": Fraction(18, 91),
        "basket": ((_q(7, 1, 2, 5), 2), (_q(13, 7, 9, 11), 1)),
        "kernel": False,
        "published_kernel": False,
    },
    {
        "mu": (-3, 4),
        "u": 7,
        "weights": (2, 3, 4, 5, 6, 6, 7, 7, 8, 9, 10, 11),
        "degree": Fraction(1, 22),
        "basket": ((_q(2, 1, 1, 1), 7), (_q(3, 1, 1, 2), 3), (_q(11, 6, 7, 10), 1)),
        "kernel": False,
        "published_degree": Fraction(4, 65),
        "published_kernel": True,
    },
)
