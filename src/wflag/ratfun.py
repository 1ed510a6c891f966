"""Exact arithmetic for univariate polynomials and rational functions over Q.

There is no floating point anywhere.  `UniPolynomial` and `RationalFunction`
compute over Q with `fractions.Fraction`; rational functions are kept in a
canonical form (numerator and denominator coprime, denominator monic) so that
equality is plain structural equality.  This is the layer of the command
line's ``hilbert``, ``qorb``, ``initial`` and ``decompose`` subcommands and
of the reference code the tests check the sweep against, where the input is
a general rational function.  A sweep never loads it: its integer
polynomials are in `wflag.intpoly`, which also defines `DomainError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence, Union

from .intpoly import DomainError

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class UniPolynomial:
    """Dense univariate polynomial over Q.

    ``coeffs[i]`` is the coefficient of t^i; trailing zeros are trimmed on
    construction, so the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence[Scalar] = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -----------------------------------------------------

    @classmethod
    def one_minus_t_pow(cls, r: int) -> UniPolynomial:
        """The polynomial 1 - t^r (r >= 1)."""
        if r < 1:
            raise ValueError("exponent must be positive")
        return cls([1] + [0] * (r - 1) + [-1])

    # -- basic structure --------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations --------------------------------------------------

    def __add__(self, other: UniPolynomial | Scalar) -> UniPolynomial:
        if isinstance(other, (int, Fraction)):
            other = UniPolynomial([other])
        if not isinstance(other, UniPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> UniPolynomial:
        return UniPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: UniPolynomial | Scalar) -> UniPolynomial:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return UniPolynomial()
            return UniPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, UniPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UniPolynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: UniPolynomial) -> tuple[UniPolynomial, UniPolynomial]:
        if not isinstance(other, UniPolynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPolynomial(), self
        quot = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.leading
        oc = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + len(oc) - 1]
            if c:
                q = c * inv_lead
                quot[k] = q
                for j, co in enumerate(oc):
                    rem[k + j] -= q * co
        return UniPolynomial(quot), UniPolynomial(rem)

    def exact_div(self, other: UniPolynomial) -> UniPolynomial:
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("polynomial division is not exact")
        return q

    # -- other operations --------------------------------------------------

    def monic(self) -> UniPolynomial:
        if self.is_zero():
            return self
        lead = self.leading
        if lead == 1:
            return self
        return UniPolynomial([c / lead for c in self.coeffs])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = abs(c)
                t = "t" if i == 1 else f"t^{i}"
                term = t if mag == 1 else f"{mag}*{t}"
                if c < 0:
                    term = "-" + term
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)


P_ZERO = UniPolynomial()
P_ONE = UniPolynomial([1])


# -- gcd machinery ---------------------------------------------------------


def _integer_primitive(p: UniPolynomial) -> list[int]:
    """Scale a nonzero polynomial to a primitive integer coefficient list."""
    denom = 1
    for c in p.coeffs:
        d = c.denominator
        denom = denom * d // gcd(denom, d)
    ints = [int(c * denom) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]


def _int_pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials, content-stripped."""
    f = list(f)
    lg = g[-1]
    while len(f) >= len(g):
        lf = f[-1]
        if lf == 0:
            f.pop()
            continue
        shift = len(f) - len(g)
        # lg*f - lf*t^shift*g kills the leading term of f
        for i in range(len(f)):
            f[i] *= lg
        for j, c in enumerate(g):
            f[shift + j] -= lf * c
        while f and f[-1] == 0:
            f.pop()
    c = 0
    for v in f:
        c = gcd(c, v)
    if c > 1:
        f = [v // c for v in f]
    return f


def poly_gcd(a: UniPolynomial, b: UniPolynomial) -> UniPolynomial:
    """Monic gcd, computed with a primitive pseudo-remainder sequence.

    Working over primitive integer polynomials keeps the intermediate
    coefficients small, which matters for the long numerators that show up in
    Hilbert series manipulation; a naive Fraction Euclid blows up badly there.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    f, g = _integer_primitive(a), _integer_primitive(b)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _int_pseudo_rem(f, g)
    lead = f[-1]
    return UniPolynomial([Fraction(c, lead) for c in f])


# -- rational functions ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class RationalFunction:
    """Quotient of two UniPolynomials in canonical form.

    Canonical form: numerator and denominator coprime, denominator monic.
    Equality and hashing are structural, so two representations of the same
    function always compare equal.
    """

    num: UniPolynomial
    den: UniPolynomial

    def __init__(
        self,
        num: UniPolynomial | Sequence[Scalar] | Scalar,
        den: UniPolynomial | Sequence[Scalar] | Scalar = P_ONE,
    ) -> None:
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = P_ZERO, P_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.leading
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RationalFunction | UniPolynomial | Scalar) -> RationalFunction:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction | UniPolynomial | Scalar) -> RationalFunction:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: RationalFunction | UniPolynomial | Scalar) -> RationalFunction:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _coerce_poly(x: UniPolynomial | Sequence[Scalar] | Scalar) -> UniPolynomial:
    if isinstance(x, UniPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return UniPolynomial([x])
    return UniPolynomial(x)


def _coerce_rat(x: object) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (UniPolynomial, int, Fraction)):
        return RationalFunction(_coerce_poly(x), P_ONE)
    return NotImplemented  # type: ignore[return-value]


RF_ZERO = RationalFunction(P_ZERO)


def series_of(f: RationalFunction, order: int) -> tuple[Fraction, ...]:
    """Power series coefficients c_0 .. c_order of f at t = 0.

    Raises DomainError if f has a pole at the origin.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    num, den = f.num, f.den
    if num.is_zero():
        return (Fraction(0),) * (order + 1)
    # canonical form is coprime, so a denominator vanishing at 0 is a real pole
    if not den.coeffs[0]:
        raise DomainError("pole at t=0")
    nc, dc = num.coeffs, den.coeffs
    inv0 = 1 / dc[0]
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = nc[k] if k < len(nc) else Fraction(0)
        for j in range(1, min(k, len(dc) - 1) + 1):
            acc -= dc[j] * out[k - j]
        out.append(acc * inv0)
    return tuple(out)

