"""Integer polynomials of the sweep, and the package's domain error.

The hot paths (the reduced Hilbert numerator, the per-tuple scan and its
exact stage) work on plain ``list[int]`` coefficient lists, index i holding
the coefficient of t^i.  The only operations are two sparse passes:
multiplication by 1 − t^r and exact division by it.  Everything else on
integer lists is built from them, the number of times a cyclotomic
polynomial divides a list included, with no gcd and no long division.
The ℚ layer of `wflag.ratfun` is not needed here, so a sweep never loads it.
"""
from __future__ import annotations

from functools import cache
from typing import Sequence


class DomainError(ValueError):
    """An operation was requested outside the domain where it makes sense."""


def mul_one_minus_t_pow(a: Sequence[int], r: int, times: int = 1) -> list[int]:
    """a · (1 − t^r)^times, one sparse pass per factor."""
    out = list(a) + [0] * (r * times)
    deg = len(a) - 1
    for _ in range(times):
        deg += r
        for i in range(deg, r - 1, -1):
            out[i] -= out[i - r]
    return out


def div_one_minus_t_pow(a: Sequence[int], r: int) -> list[int]:
    """The quotient a / (1 − t^r) in ℤ[t], one sparse pass.

    The quotient runs the recurrence q[i] = a[i] + q[i−r] over the trimmed
    list; a is a multiple of (1 − t^r) exactly when its top r entries vanish,
    and otherwise ArithmeticError is raised.
    """
    q = _int_trim(a)
    for i in range(r, len(q)):
        q[i] += q[i - r]
    if any(q[-r:]):
        raise ArithmeticError("polynomial division is not exact")
    return q[:-r]


@cache
def _mobius_exponents(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(N, D): the divisors e of d with μ(d/e) = −1, and those with
    μ(d/e) = +1, so that Φ_d = ∏_D (1 − t^e) / ∏_N (1 − t^e) for d > 1."""
    N: list[int] = []
    D = [d]
    m = d
    for p in range(2, d + 1):
        if m % p == 0:  # p is prime: its smaller factors are gone from m
            while m % p == 0:
                m //= p
            N, D = N + [e // p for e in D], D + [e // p for e in N]
    return tuple(N), tuple(D)


def cyclotomic_valuation(a: Sequence[int], d: int) -> int:
    """The number of times Φ_d divides the nonzero integer list a exactly.

    By the Möbius identity Φ_d = ∏_{e | d} (1 − t^e)^{μ(d/e)}, exact for
    d > 1 (for d = 1 it gives 1 − t = −Φ_1, with the same divisibility),
    D = ±Φ_d·N for N the factors with μ = −1 and D those with μ = +1.  Each
    round multiplies a by N's factors, then divides exactly by D's factors
    one at a time, and the rounds are counted until a division fails.  This
    is sound: Φ_d | a exactly when D | a·N.  If D | a·N, each partial
    product of D's factors also divides a·N, so no step fails; if every
    step succeeds, the quotient q has q·D = a·N, so q = ±a/Φ_d.  A round
    lowers the degree by deg Φ_d ≥ 1, so at most deg a rounds succeed.
    """
    if not any(a):
        raise ZeroDivisionError("the zero polynomial has no valuation")
    N, D = _mobius_exponents(d)
    for v in range(len(a)):
        for e in N:
            a = mul_one_minus_t_pow(a, e)
        try:
            for e in D:
                a = div_one_minus_t_pow(a, e)
        except ArithmeticError:
            return v
    raise AssertionError("more rounds than the degree allows")


def _int_trim(a: Sequence[int]) -> list[int]:
    out = list(a)
    while out and not out[-1]:
        out.pop()
    return out
