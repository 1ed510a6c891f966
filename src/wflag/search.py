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

The work is arranged as a funnel, whose stages `orbifold.decompositions`
lists in order.  The enumeration `_iter_pos_wt` caps #{i : d | p_i} by one
table of `_divisor_bounds` per embedding, from the pole-order caps of
`_pole_caps` and well-formedness, and `tuples_scanned` counts the tuples
within those bounds.  Each scanned tuple gets its candidate types from
`orbifold.porb_cont` and goes with H to the exact stage,
`orbifold.decompositions`, so the scan itself does no polynomial algebra
per tuple.  A tuple's types, and the `orbifold.basket_kernel` kernels of a
tuple with solutions, do not depend on H, and a sweep computes them once
per adjunction number q (once per worker with ``jobs`` > 1) in its tuple
front.  Every emitted basket m is certified by the identity
V·m == R·t^{−l} in integers (`orbifold._certified`), so the funnel cannot
produce false positives.  It can miss true ones: `orbifold._target` drops a
type when its P_Q has a higher degree than P_X − P_I (the `kept` rule), a
rule with no soundness argument that drops certified decompositions
(g2 (−2,2) u=5 at k = 1, for one).
"""
from __future__ import annotations

import os
import time
from fractions import Fraction
from itertools import groupby
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .formats import (
    CocharacterParam,
    EmbeddingData,
    FORMATS,
    enumerate_parameters,
    hilbert_series,
)
from .orbifold import (
    QuotientSingularity,
    basket_kernel,
    decompositions,
    fits,
    porb_cont,
)
from .intpoly import DomainError, cyclotomic_valuation


# ---------------------------------------------------------------------------
# configuration and result types


class SearchConfig(NamedTuple):
    """Parameters of a sweep over one format.

    ``u_max`` bounds the adjunction parameter for formats whose ambient
    weights grow with u alone; ``q_max`` bounds the adjunction number for
    formats needing it.  ``params`` overrides parameter enumeration with an
    explicit list (useful for targeting a single embedding).
    """

    format_name: str = "g2"
    k: int = -1
    n: int = 3
    u_max: int | None = None
    q_max: int | None = None
    jobs: int = 1
    params: tuple[CocharacterParam, ...] | None = None


class Candidate(NamedTuple):
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


class SweepResult(NamedTuple):
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


def embedding_label(mu: Sequence[int], u: int) -> str:
    """Render an embedding as ``mu=(-1,1) u=3``."""
    return f"mu=({','.join(str(a) for a in mu)}) u={u}"


def kernel_flag(kernels: object) -> str:
    """The BK column: ``Y`` when a zero-sum collection makes the basket
    ambiguous, else ``N``."""
    return "Y" if kernels else "N"


# ---------------------------------------------------------------------------
# weight tuple enumeration


def _iter_pos_wt(ambient: Sequence[int], s: int, w: int, bounds: dict[int, int]):
    """The size-s multisets from [1, max(ambient)] summing to w, with
    #{i : d | p_i} ≤ bounds[d] for each d and no more top weights than the
    ambient has (the top-weight cap, spec): ascending tuples, listed in
    lexicographic order.  One entry is never well formed (removing it
    leaves gcd 0), so s < 2 gives none.

    The walk places the largest entries first and cuts a prefix whose count
    passes its bound: a count only grows as a prefix gets longer, in
    whichever order the entries are placed, so every completion would fail
    too.  It also cuts a prefix when its last entry times the slots left
    falls short of the rest of the sum, since no later entry exceeds it; the
    tuples are sorted at the end."""
    amb = sorted(ambient)
    wmax = amb[-1]
    top_cap = amb.count(wmax)
    divs = [[d for d in bounds if v % d == 0] for v in range(wmax + 1)]
    count = dict.fromkeys(bounds, 0)
    acc: list[int] = []
    found: list[tuple[int, ...]] = []

    def rec(hi: int, remaining: int, slots: int, tops: int) -> None:
        if slots == 0:
            found.append(tuple(reversed(acc)))
            return
        for v in range(min(hi, remaining - slots + 1), 0, -1):
            # every later entry is at most v
            if v * slots < remaining:
                break
            if v == wmax and tops >= top_cap:
                continue
            ds = divs[v]
            if any(count[d] >= bounds[d] for d in ds):
                continue
            for d in ds:
                count[d] += 1
            acc.append(v)
            rec(v, remaining - v, slots - 1, tops + (v == wmax))
            acc.pop()
            for d in ds:
                count[d] -= 1

    if s >= 2:
        rec(wmax, w, s, 0)
    found.sort()
    return found


def _divisor_bounds(wmax: int, s: int, caps: dict[int, int]) -> dict[int, int]:
    """The caps lowered to s − 2 at each prime d ≤ wmax: bound_d =
    min(cap_d, s − 2 when d is prime) for #{i : d | p_i}.

    The prime bounds are well-formedness (spec), exactly: for s ≥ 2,
    removing entry i leaves gcd > 1 exactly when a prime divides the s − 1
    others, and a prime above wmax divides no entry."""
    bounds = dict(caps)
    for d in range(2, wmax + 1):
        if all(d % f for f in range(2, d)):
            bounds[d] = min(bounds.get(d, s), s - 2)
    return bounds


def pos_wt(ambient: Sequence[int], s: int, w: int) -> list[tuple[int, ...]]:
    """All size-s multisets from [1, max(ambient)] summing to w that give a
    well-formed weighted projective space and respect the top-weight cap,
    as ascending tuples in ascending lexicographic order."""
    return _iter_pos_wt(ambient, s, w, _divisor_bounds(max(ambient), s, {}))


# ---------------------------------------------------------------------------
# the pole-order bound at roots of unity


def _pole_caps(H: Sequence[int], wmax: int, s: int) -> dict[int, int]:
    """The caps cap_d = v_{Φ_d}(H) + 1 for 2 ≤ d ≤ wmax, keeping only the
    caps below s, the size of a tuple.

    The pole-order bound #{i : d | p_i} ≤ cap_d is a sound cut.  Each
    orbifold term t^l·β_Q/((1−t)ⁿ(1−t^{r_Q})) has at most a simple pole at
    a primitive d-th root of unity ζ_d, d > 1, and P_I has none, so a P_X
    with a basket has at most a simple pole there.  As Φ_d is irreducible
    and 1 − t^{p_i} vanishes simply at ζ_d exactly when d | p_i, the pole
    order of P_X = H/∏(1 − t^{p_i}) at ζ_d is #{i : d | p_i} − v_{Φ_d}(H)
    when that is positive."""
    caps = {d: cyclotomic_valuation(H, d) + 1 for d in range(2, wmax + 1)}
    return {d: cap for d, cap in caps.items() if cap < s}


# ---------------------------------------------------------------------------
# per-embedding scan


def search_embedding(
    format_name: str,
    param: CocharacterParam,
    k: int = -1,
    n: int = 3,
    front: dict | None = None,
) -> tuple[list[Candidate], int]:
    """Scan one embedding; returns (candidates, number of tuples scanned).

    ``front`` is the tuple front of a sweep (`iter_search` makes one), so
    that a sweep computes each tuple's `porb_cont` types, and its
    `basket_kernel` kernels once it has a solution, once per adjunction
    number.  It maps (q − k, k, n) to {tuple: [types, extended weights,
    kernels or None]} for the latest key only, as a tuple cannot recur
    under another sum.  Without a front, each tuple is computed here once:
    the enumeration yields no tuple twice."""
    fmt = FORMATS[format_name]
    data = hilbert_series(fmt, param)
    e = fmt.codimension
    s = n + e + 1
    q = data.adjunction_number
    total = q - k
    H = data.numerator
    ambient = data.weights

    candidates: list[Candidate] = []
    scanned = 0

    if total < s:
        return [], 0
    wmax = max(ambient)
    bounds = _divisor_bounds(wmax, s, _pole_caps(H, wmax, s))
    if front is None:
        front = {}
    tuples = front.get((total, k, n))
    if tuples is None:
        front.clear()
        tuples = front[total, k, n] = {}

    try:
        for parts in _iter_pos_wt(ambient, s, total, bounds):
            scanned += 1
            entry = tuples.get(parts)
            if entry is None:
                entry = tuples[parts] = [*porb_cont(parts, n, k), None]
            types, extended, kernels = entry
            solutions = [
                solution
                for solution in decompositions(types, H, parts, k, n)
                if fits(solution, extended)
            ]
            if solutions:
                if kernels is None:
                    kernels = basket_kernel(types, extended, k, n) if types else ()
                    entry[2] = kernels
                _emit(candidates, data, parts, solutions, kernels, k, n)
    except DomainError as exc:
        # a cap of the kernel searches: say which tuple the sweep stopped at
        raise DomainError(
            f"{format_name} {embedding_label(param.mu, param.u)} "
            f"P[{compact_weights(parts)}]: {exc}"
        ) from None

    candidates.sort(key=_candidate_order_key)
    return candidates, scanned


def _emit(
    candidates: list[Candidate],
    data: EmbeddingData,
    parts: tuple[int, ...],
    solutions: list[dict[QuotientSingularity, int]],
    kernels: tuple[tuple[QuotientSingularity, ...], ...],
    k: int,
    n: int,
) -> None:
    """Append one candidate per solution of a weight tuple (distinct, and
    each tuple is scanned once per embedding), all with the tuple's kernels.

    The degree is (H/(1 − t)^codim)(1)/∏p.  Its numerator is ∏w times the
    degree of the flag variety in its weighted projective space, so the
    degree is positive."""
    degree = Fraction(sum(data.numerator_reduced), prod(parts))
    for solution in solutions:
        basket = tuple(sorted(solution.items()))
        candidates.append(
            Candidate(
                format_name=data.format_name,
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


def _sweep_one(config: SearchConfig, param: CocharacterParam, front: dict) -> SweepResult:
    t0 = time.perf_counter()
    cands, scanned = search_embedding(
        config.format_name, param, k=config.k, n=config.n, front=front
    )
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
    return tuple(params)


def _work(
    config: SearchConfig, params: Sequence[CocharacterParam], task_r: int, result_w: int
) -> None:
    """A worker: read a 4-byte index into params at a time until EOF, and
    answer each with a pickle of (index, SweepResult or exception), which
    is self-delimiting: the parent reads it back with `pickle.load`."""
    import pickle

    front: dict = {}
    with open(result_w, "wb") as out:
        while head := os.read(task_r, 4):
            index = int.from_bytes(head, "little")
            try:
                result = _sweep_one(config, params[index], front)
            except Exception as exc:  # raised again in the parent
                result = exc
            out.write(pickle.dumps((index, result)))
            out.flush()


def _forked_sweep(
    config: SearchConfig, params: Sequence[CocharacterParam], jobs: int
) -> Iterator[SweepResult]:
    """Scan the embeddings params on `jobs` forked workers, one at a time
    each, and yield the results in the order of params.  Each worker has a
    record: pid (0 once reaped), task pipe, result file, index (None: idle)."""
    import pickle
    import select
    from contextlib import suppress
    from types import SimpleNamespace

    workers: list[SimpleNamespace] = []
    indices = iter(range(len(params)))
    done: dict[int, object] = {}

    def hand_out(w: SimpleNamespace) -> None:
        w.index = next(indices, None)
        if w.index is not None:
            with suppress(BrokenPipeError):  # dead: its result pipe reaches EOF
                os.write(w.task_w, w.index.to_bytes(4, "little"))

    try:
        for i in range(jobs):
            fds: list[int] = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in fds:
                    os.close(fd)
                raise DomainError(
                    f"cannot start sweep worker {i + 1} of {jobs}: {exc.strerror or exc}"
                ) from None
            task_r, task_w, result_r, result_w = fds
            if pid == 0:  # the worker leaves only by os._exit: no stdio flush
                status = 1
                try:
                    for fd in (task_w, result_r, *(w.task_w for w in workers)):
                        os.close(fd)
                    for w in workers:
                        w.results.close()
                    _work(config, params, task_r, result_w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(task_r)
            os.close(result_w)
            w = SimpleNamespace(pid=pid, task_w=task_w, results=open(result_r, "rb"))
            workers.append(w)
            hand_out(w)
        for want in range(len(params)):
            while want not in done:
                busy = [w.results for w in workers if w.index is not None]
                ready, _, _ = select.select(busy, [], [])
                for w in (w for w in workers if w.results in ready):
                    try:
                        index, result = pickle.load(w.results)
                    except (EOFError, pickle.UnpicklingError):
                        _, status = os.waitpid(w.pid, 0)
                        w.pid = 0
                        param = params[w.index]
                        raise DomainError(
                            f"the worker scanning {config.format_name} "
                            f"{embedding_label(param.mu, param.u)} died with "
                            f"exit status {os.waitstatus_to_exitcode(status)}"
                        ) from None
                    done[index] = result
                    hand_out(w)
            result = done.pop(want)
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for w in workers:
            os.close(w.task_w)  # EOF: an idle worker exits
            w.results.close()
            if w.pid:
                if w.index is not None:
                    import signal  # about 1 ms, paid only here

                    os.kill(w.pid, signal.SIGKILL)
                os.waitpid(w.pid, 0)


def iter_search(config: SearchConfig) -> Iterator[SweepResult]:
    """Run the sweep, yielding one result per embedding in enumeration order.

    Results are identical for any worker count.  With jobs > 1 the parent
    forks min(jobs, embeddings) workers and hands each one embedding at a
    time over a pipe; each answers with one pickle (self-delimiting, so no
    length prefix) of its `SweepResult`, or of the exception its scan
    raised, which the parent raises in turn.  A worker that cannot start
    (`os.pipe` or `os.fork` fails) or that dies before it answers ends the
    sweep with a `DomainError`, naming the worker or its embedding.  However
    the generator ends, the workers still busy are killed, every worker is
    reaped and every pipe is closed before it returns.  With two workers
    on two fast gr25 embeddings, the first result came back after about
    8 ms (fresh processes, median of 15, 2-core machine), against 27 ms
    with the `multiprocessing` pool this replaces (its import, `Pool(2)`
    and the first round trip).

    The serial loop, and each worker, keeps one tuple front for the sweep
    (see `search_embedding`), so a tuple's types and kernels are computed
    once per adjunction number, not once per embedding.
    `enumerate_parameters` sorts the embeddings by the sum of their ambient
    weights, of which q is a fixed multiple (1/2 for gr25, 11/14 for g2),
    and the workers take them in that order, so each q's embeddings come
    together and a front holds one adjunction number's distinct tuples at
    a time.  On gr25 k=1 q≤50 the 622,108 scanned tuples are 22,912
    distinct ones, and the sweep took 30.3 s against 45.6 s without the
    front (one run each, 2-core machine).
    """
    params = sweep_parameters(config)
    if config.jobs <= 1 or len(params) <= 1:
        front: dict = {}
        for param in params:
            yield _sweep_one(config, param, front)
        return
    yield from _forked_sweep(config, params, min(config.jobs, len(params)))


def _key(weights: tuple[int, ...], basket: Iterable) -> tuple:
    return (weights, tuple((s.r, s.weights, m) for s, m in basket))


def candidate_key(cand: Candidate) -> tuple:
    """The identity a sweep deduplicates on: (weights, basket with counts)."""
    return _key(cand.x_weights, cand.basket)


def table_row_key(row: dict) -> tuple:
    """The `candidate_key` of the candidate a `G2_FANO_TABLE` row describes."""
    return _key(row["weights"], sorted(row["basket"]))


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
