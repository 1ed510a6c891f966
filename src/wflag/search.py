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

The per-tuple work is arranged as a funnel: cheap integer filters first, a
modular consistency prescreen next, and exact rational arithmetic only for
the rare survivors.  Every emitted candidate is re-verified through an exact
rational-function identity, so the fast paths cannot produce false positives.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, gcd, prod
from multiprocessing import get_context
from typing import Iterable, Iterator, Sequence

from .formats import (
    CocharacterParam,
    EmbeddingData,
    FORMATS,
    enumerate_parameters,
    hilbert_series,
)
from .orbifold import (
    OrbifoldContribution,
    QuotientSingularity,
    basket_kernel,
    porb_cont,
    qorb,
)
from .ratfun import (
    DomainError,
    RationalFunction,
    UniPolynomial,
    denominator_poly,
    div_one_minus_t,
    int_coeffs,
    int_mul,
)

_PRIME = (1 << 61) - 1  # Mersenne prime used by the modular prescreen


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
    numerator: UniPolynomial

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
    elapsed_ms: int


def _candidate_order_key(c: Candidate):
    basket_key = tuple((s.r, s.weights, m) for s, m in c.basket)
    return (sum(c.x_weights), c.x_weights, basket_key)


# ---------------------------------------------------------------------------
# weight tuple enumeration


def _well_formed(parts: Sequence[int]) -> bool:
    """True when removing any one entry leaves a multiset of gcd 1."""
    s = len(parts)
    pre = [0] * (s + 1)
    for i, v in enumerate(parts):
        pre[i + 1] = gcd(pre[i], v)
    suf = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        suf[i] = gcd(suf[i + 1], parts[i])
    return all(gcd(pre[i], suf[i + 1]) == 1 for i in range(s))


def _iter_pos_wt(ambient: Sequence[int], s: int, w: int):
    """Yield candidate weight tuples in ascending lexicographic order."""
    amb = sorted(ambient)
    wmax = amb[-1]
    cap = amb.count(wmax)
    acc: list[int] = []

    def rec(lo: int, remaining: int, slots: int):
        if slots == 0:
            if remaining == 0:
                parts = tuple(acc)
                if parts.count(wmax) <= cap and _well_formed(parts):
                    yield parts
            return
        start = max(lo, remaining - (slots - 1) * wmax)
        for v in range(start, min(wmax, remaining // slots) + 1):
            acc.append(v)
            yield from rec(v, remaining - v, slots - 1)
            acc.pop()

    if s >= 1 and w >= s:
        yield from rec(1, w, s)


def pos_wt(ambient: Sequence[int], s: int, w: int) -> list[tuple[int, ...]]:
    """All size-s multisets from [1, max(ambient)] summing to w that give a
    well-formed weighted projective space and respect the top-weight cap."""
    return list(_iter_pos_wt(ambient, s, w))


# ---------------------------------------------------------------------------
# degree and the reference solver


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


def _solve_free_zero(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Particular solution with free variables set to zero, or None."""
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    prow = 0
    for col in range(ncols):
        sel = next((r for r in range(prow, m) if aug[r][col]), None)
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = 1 / aug[prow][col]
        aug[prow] = [v * inv for v in aug[prow]]
        for r in range(m):
            if r != prow and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for r in range(m):
        if aug[r][ncols] and not any(aug[r][:ncols]):
            return None
    sol = [Fraction(0)] * ncols
    for r, col in pivots:
        sol[col] = aug[r][ncols]
    return sol


def solve_multiplicities(
    series: RationalFunction,
    init: RationalFunction,
    contribs: Sequence[OrbifoldContribution],
) -> list[int] | None:
    """Multiplicities m ≥ 0 with series = init + Σ mᵢ·contribᵢ, else None.

    The system is solved from evaluations at t = 2..j+1 and the winning
    combination is confirmed by an exact rational-function identity, so the
    choice of evaluation points is immaterial.
    """
    target = series - init
    j = len(contribs)
    if j == 0:
        return [] if target.num.is_zero() else None
    rows = []
    rhs = []
    for x in range(2, j + 2):
        rows.append([c.value.evaluate(Fraction(x)) for c in contribs])
        rhs.append(target.evaluate(Fraction(x)))
    sol = _solve_free_zero(rows, rhs)
    if sol is None:
        return None
    if any(v < 0 or v.denominator != 1 for v in sol):
        return None
    total = RationalFunction(UniPolynomial([0]), UniPolynomial([1]))
    for v, c in zip(sol, contribs):
        if v:
            total = total + c.value * RationalFunction(
                UniPolynomial([v]), UniPolynomial([1])
            )
    if total != target:
        return None
    return [int(v) for v in sol]


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


def _poly_deg_val(coeffs: Sequence[int]) -> tuple[int, int]:
    deg = -1
    val = -1
    for i, v in enumerate(coeffs):
        if v:
            deg = i
            if val < 0:
                val = i
    return deg, val


# ---------------------------------------------------------------------------
# modular prescreen


@cache
def _inv_mod(a: int) -> int:
    return pow(a % _PRIME, _PRIME - 2, _PRIME)


@cache
def _qorb_numerator_mod(sing: QuotientSingularity, k: int, n: int) -> tuple[tuple[int, ...], int]:
    """(numerator coefficients mod prime, degree) of the contribution."""
    numer = qorb(sing, k, n).numerator
    coeffs = []
    for c in numer.coeffs:
        coeffs.append(c.numerator * _inv_mod(c.denominator) % _PRIME)
    return tuple(coeffs), numer.degree


@cache
def _type_value_mod(sing: QuotientSingularity, k: int, n: int, x: int) -> int | None:
    """Contribution value at t=x mod prime; None when a denominator vanishes."""
    coeffs, _ = _qorb_numerator_mod(sing, k, n)
    b = 0
    for c in reversed(coeffs):
        b = (b * x + c) % _PRIME
    d = (1 - pow(x, sing.r, _PRIME)) * pow(1 - x, n, _PRIME) % _PRIME
    if d == 0:
        return None
    return b * _inv_mod(d) % _PRIME


@cache
def _type_value_exact(sing: QuotientSingularity, k: int, n: int, x: int) -> Fraction:
    return qorb(sing, k, n).value.evaluate(Fraction(x))


def _modp_consistent(rows: list[list[int]], rhs: list[int]) -> bool:
    """False when the augmented system is provably inconsistent mod the prime."""
    m = len(rows)
    ncols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, m):
            if aug[r][col]:
                sel = r
                break
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = _inv_mod(aug[prow][col])
        base = aug[prow]
        for r in range(prow + 1, m):
            f = aug[r][col]
            if f:
                f = f * inv % _PRIME
                aug[r] = [(a - f * b) % _PRIME for a, b in zip(aug[r], base)]
        prow += 1
        if prow == m:
            break
    for row in aug:
        if row[ncols] and not any(row[:ncols]):
            return False
    return True


# ---------------------------------------------------------------------------
# exact solving for prescreen survivors


def _rref(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Reduced row echelon of the augmented system.

    Returns (particular solution with free vars zero, kernel basis, pivot
    columns) or (None, None, None) when inconsistent.
    """
    m = len(rows)
    ncols = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    prow = 0
    for col in range(ncols):
        sel = next((r for r in range(prow, m) if aug[r][col]), None)
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = 1 / aug[prow][col]
        aug[prow] = [v * inv for v in aug[prow]]
        for r in range(m):
            if r != prow and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    for row in aug:
        if row[ncols] and not any(row[:ncols]):
            return None, None, None
    piv_cols = [c for _, c in pivots]
    particular = [Fraction(0)] * ncols
    for r, c in pivots:
        particular[c] = aug[r][ncols]
    kernel: list[list[Fraction]] = []
    for free in range(ncols):
        if free in piv_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in pivots:
            vec[c] = -aug[r][free]
        kernel.append(vec)
    return particular, kernel, piv_cols


def _combination_value(
    types: Sequence[QuotientSingularity], coeffs: Sequence[Fraction], k: int, n: int
) -> RationalFunction:
    total = RationalFunction(UniPolynomial([0]), UniPolynomial([1]))
    for sing, cval in zip(types, coeffs):
        if cval:
            total = total + qorb(sing, k, n).value * RationalFunction(
                UniPolynomial([cval]), UniPolynomial([1])
            )
    return total


def _solutions_from_exact_system(
    kept: list[QuotientSingularity],
    target: RationalFunction,
    k: int,
    n: int,
) -> list[dict[QuotientSingularity, int]]:
    """All nonnegative integer solutions of Σ m·P_Q = target whose support
    admits no internal zero-sum relation (those have a smaller representative
    that is also returned)."""
    j = len(kept)
    need = j + 4
    round_limit = 4
    for _ in range(round_limit):
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        x = 2
        while len(rows) < need:
            try:
                vals = [_type_value_exact(s, k, n, x) for s in kept]
                tval = target.evaluate(Fraction(x))
            except DomainError:
                x += 1
                continue
            rows.append(vals)
            rhs.append(tval)
            x += 1
        particular, kernel, _ = _rref(rows, rhs)
        if particular is None:
            return []
        if not kernel:
            return _check_unique(kept, particular, target, k, n)
        # confirm the evaluation kernel is a genuine function kernel;
        # otherwise take more evaluation points and repeat
        if all(
            _combination_value(kept, vec, k, n).num.is_zero() for vec in kernel
        ):
            return _enumerate_kernel_solutions(
                kept, particular, kernel, target, k, n
            )
        need += j + 2
    raise ArithmeticError("evaluation points failed to separate contributions")


def _check_unique(kept, particular, target, k, n):
    if any(v < 0 or v.denominator != 1 for v in particular):
        return []
    if _combination_value(kept, particular, k, n) != target:
        return []
    return [
        {s: int(v) for s, v in zip(kept, particular) if v}
    ]


def _enumerate_kernel_solutions(kept, particular, kernel, target, k, n):
    j = len(kept)
    involved = sorted(
        {i for vec in kernel for i in range(j) if vec[i]}
    )
    # coordinates outside the kernel support agree across all solutions
    for i in range(j):
        if i not in involved:
            v = particular[i]
            if v < 0 or v.denominator != 1:
                return []
    # split the kernel into components of co-occurring coordinates; choices
    # within distinct components are independent
    parent = {i: i for i in involved}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for vec in kernel:
        support = [i for i in involved if vec[i]]
        for i in support[1:]:
            parent[find(i)] = find(support[0])
    comp_coords: dict[int, list[int]] = {}
    for i in involved:
        comp_coords.setdefault(find(i), []).append(i)
    comp_vecs: dict[int, list[list[Fraction]]] = {r: [] for r in comp_coords}
    for vec in kernel:
        comp_vecs[find(next(i for i in involved if vec[i]))].append(vec)

    # every extreme solution has at least dim-many vanishing coordinates in
    # each component, so pin the combination coefficients by choosing which
    per_comp: list[list[dict[int, Fraction]]] = []
    for root in sorted(comp_coords):
        coords = comp_coords[root]
        vecs = comp_vecs[root]
        dim = len(vecs)
        if comb(len(coords), dim) > 20_000:
            raise DomainError("kernel search space too large")
        assigns: list[dict[int, Fraction]] = []
        seen_vals: set[tuple[Fraction, ...]] = set()
        for zero_set in combinations(coords, dim):
            rows = [[vec[i] for vec in vecs] for i in zero_set]
            rhs = [-particular[i] for i in zero_set]
            lam, lam_kernel, _ = _rref(rows, rhs)
            if lam is None or lam_kernel:
                continue
            vals: dict[int, Fraction] = {}
            for i in coords:
                v = particular[i] + sum(
                    lv * vec[i] for lv, vec in zip(lam, vecs)
                )
                if v < 0 or v.denominator != 1:
                    break
                vals[i] = v
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
        sol = list(particular)
        for vals in combo:
            for i, v in vals.items():
                sol[i] = v
        key = tuple(sorted((i, int(v)) for i, v in enumerate(sol) if v))
        if key in seen:
            continue
        if _combination_value(kept, sol, k, n) != target:
            continue
        seen.add(key)
        solutions.append({s: int(v) for s, v in zip(kept, sol) if v})
    return solutions


# ---------------------------------------------------------------------------
# per-embedding scan


def _support_admissible(
    solution: dict[QuotientSingularity, int], extended: Sequence[int]
) -> bool:
    """A solution may use at most as many distinct types of index r as there
    are weights equal to r among the extended ambient weights."""
    cnt = Counter(sng.r for sng in solution)
    ext = Counter(extended)
    return all(cnt[r] <= ext[r] for r in cnt)


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
    H = int_coeffs(data.numerator)
    Hx_mod: dict[int, int] = {}
    Hred1 = int(data.numerator_reduced.evaluate(Fraction(1)))
    ambient = data.weights

    candidates: list[Candidate] = []
    seen: set = set()
    scanned = 0

    if total < s:
        return [], 0

    for parts in _iter_pos_wt(ambient, s, total):
        scanned += 1
        den = denominator_poly(parts, total)
        den_n1 = den
        for _ in range(n + 1):
            den_n1 = div_one_minus_t(den_n1)
        A = _initial_coeffs(H, parts, k, n)
        # N0 = H − A·(den/(1−t)^{n+1}) is the numerator of P_X − P_I over den
        prod_ai = int_mul(A, den_n1)
        N0 = [
            (H[i] if i < len(H) else 0) - (prod_ai[i] if i < len(prod_ai) else 0)
            for i in range(max(len(H), len(prod_ai)))
        ]
        dN0, _vN0 = _poly_deg_val(N0)

        if dN0 < 0:
            # P_X = P_I exactly: smooth member
            _emit(
                candidates, seen, data, format_name, parts, {}, Hred1, k, n
            )
            continue

        types, extended = porb_cont(parts, n, k)
        if not types:
            continue
        rat_rhs = dN0 - total
        kept = [
            sng
            for sng in types
            if _qorb_numerator_mod(sng, k, n)[1] - n - sng.r <= rat_rhs
        ]
        if not kept:
            continue

        # modular consistency prescreen
        rows: list[list[int]] = []
        rhs: list[int] = []
        x = 2
        need = len(kept) + 4
        degenerate = False
        while len(rows) < need:
            vals = [_type_value_mod(sng, k, n, x) for sng in kept]
            if any(v is None for v in vals):
                x += 1
                if x > 200:
                    degenerate = True
                    break
                continue
            if x in Hx_mod:
                hx = Hx_mod[x]
            else:
                hx = 0
                for c in reversed(H):
                    hx = (hx * x + c) % _PRIME
                Hx_mod[x] = hx
            dpx = 1
            for w in parts:
                dpx = dpx * (1 - pow(x, w, _PRIME)) % _PRIME
            if dpx == 0:
                x += 1
                continue
            ax = 0
            for c in reversed(A):
                ax = (ax * x + c) % _PRIME
            rv = (
                hx * _inv_mod(dpx) - ax * _inv_mod(pow(1 - x, n + 1, _PRIME))
            ) % _PRIME
            rows.append(vals)
            rhs.append(rv)
            x += 1
        if not degenerate and not _modp_consistent(rows, rhs):
            continue

        # exact confirmation (rare)
        P_X = RationalFunction(data.numerator, UniPolynomial(den))
        P_I = RationalFunction(
            UniPolynomial(A), UniPolynomial([1, -1]) ** (n + 1)
        )
        target = P_X - P_I
        for solution in _solutions_from_exact_system(kept, target, k, n):
            if not _support_admissible(solution, extended):
                continue
            _emit(
                candidates, seen, data, format_name, parts, solution, Hred1, k, n
            )

    candidates.sort(key=_candidate_order_key)
    return candidates, scanned


def _emit(
    candidates: list[Candidate],
    seen: set,
    data: EmbeddingData,
    format_name: str,
    parts: tuple[int, ...],
    solution: dict[QuotientSingularity, int],
    Hred1: int,
    k: int,
    n: int,
) -> None:
    basket = tuple(
        sorted(solution.items(), key=lambda it: (it[0].r, it[0].weights))
    )
    key = (parts, basket)
    if key in seen:
        return
    seen.add(key)
    degree = Fraction(Hred1, prod(parts))
    if degree <= 0:
        return
    types, extended = porb_cont(parts, n, k)
    kernels = basket_kernel(types, extended, k, n) if types else ()
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
    t0 = time.monotonic()
    cands, scanned = search_embedding(config.format_name, param, k=config.k, n=config.n)
    elapsed = int((time.monotonic() - t0) * 1000)
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
    with ctx.Pool(processes=config.jobs) as pool:
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
# classification helpers and the reference table


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
