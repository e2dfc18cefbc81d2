"""Exact rational arithmetic and the two polynomial rings used everywhere else.

Everything in this module is exact: coefficients are integers over one
denominator, with `fractions.Fraction` at the API boundary, and no float
ever sneaks in until a caller explicitly evaluates.  This module is also
the package's one admission rule for exact inputs: ``rational`` turns a
string, int or Fraction into a Fraction and refuses every float (a
``numpy.float64`` included), and ``positive_rational`` adds the check that
the shape parameter alpha is > 0.  Every exact entry point of the package
admits alpha through ``positive_rational``.  Two rings are provided:

* ``AlphaPolynomial`` -- univariate polynomials in the shape parameter
  ``alpha`` over the rationals.
* ``ZPolynomial`` -- polynomials in an abstract variable ``z`` whose
  coefficients are ``AlphaPolynomial``s, i.e. elements of Q[alpha][z].

Both are immutable (hashable, safe to share across threads) and keep a
canonical form: trailing zero coefficients are stripped, so equal values
compare equal structurally.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int]


def rational(value: Union[str, int, Fraction]) -> Fraction:
    """Coerce a string like ``"3/4"``, an int, or a Fraction to a Fraction.

    Floats are deliberately rejected: silently converting a binary float
    would defeat the point of an exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce a float to an exact rational; "
                        "pass a string like '3/4' instead")
    return Fraction(value)


def positive_rational(value: Union[str, int, Fraction], name: str = "alpha") -> Fraction:
    """``rational(value)``, refused with a ValueError unless it is > 0."""
    a = rational(value)
    if a <= 0:
        raise ValueError(f"{name} must be positive")
    return a


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Return the fraction with smallest denominator in the closed interval [lo, hi].

    Stern-Brocot style descent; used to report bisection results as the
    simplest rational consistent with the bracketing interval.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_between(-hi, -lo)
    # Now 0 < lo < hi.
    floor_lo = lo.numerator // lo.denominator
    if floor_lo >= lo:
        # lo itself is an integer: nothing in the interval is simpler
        return Fraction(floor_lo)
    if floor_lo + 1 <= hi:
        # an integer lies strictly inside
        return Fraction(floor_lo + 1)
    frac = simplest_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac


def scaled_value(c: Sequence[int], z: Fraction) -> int:
    """q^d * c(p/q) for integer coefficients ``c`` (ascending), z = p/q, d = len(c) - 1.

    Homogeneous Horner evaluation: the result is an integer with the sign
    of c(z), computed without forming a single Fraction.
    """
    p, q = z.numerator, z.denominator
    acc, q_power = 0, 1
    for x in reversed(c):
        acc = acc * p + x * q_power
        q_power *= q
    return acc


@dataclass(frozen=True, init=False)
class AlphaPolynomial:
    """A polynomial in ``alpha``: ``num[i] / den`` multiplies ``alpha**i``.

    Ints over one positive ``den`` in lowest terms, never ending in a zero (the
    zero polynomial is ``()`` over 1, degree -1); floats are rejected.
    """

    num: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[RationalLike] = (), den: int | None = None) -> None:
        if den is None:
            fracs = [rational(c) for c in coeffs]
            den = math.lcm(*(c.denominator for c in fracs))
            coeffs = [c.numerator * (den // c.denominator) for c in fracs]
        num, den = [operator.index(x) for x in coeffs], operator.index(den)
        if den <= 0:
            raise ValueError("den must be a positive integer")
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num)
        object.__setattr__(self, "num", tuple(x // g for x in num))
        object.__setattr__(self, "den", den // g)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: RationalLike) -> AlphaPolynomial:
        return AlphaPolynomial((c,))

    @staticmethod
    def zero() -> AlphaPolynomial:
        return AlphaPolynomial(())

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Read-only view: ``coeffs[i]`` multiplies ``alpha**i``."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    # -- ring operations ----------------------------------------------
    # Operators return NotImplemented for foreign types (e.g. ZPolynomial)
    # so that Python can dispatch to the other operand's reflected method.

    def __add__(self, other: AlphaPolyLike) -> AlphaPolynomial:
        if not isinstance(other, (AlphaPolynomial, int, Fraction)):
            return NotImplemented
        other = _coerce_alpha(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        num = [x * sa + y * sb for x, y in zip_longest(self.num, other.num, fillvalue=0)]
        return AlphaPolynomial(num, den)

    __radd__ = __add__

    def __neg__(self) -> AlphaPolynomial:
        return AlphaPolynomial([-x for x in self.num], self.den)

    def __sub__(self, other: AlphaPolyLike) -> AlphaPolynomial:
        if not isinstance(other, (AlphaPolynomial, int, Fraction)):
            return NotImplemented
        return self + (-_coerce_alpha(other))

    def __rsub__(self, other: AlphaPolyLike) -> AlphaPolynomial:
        if not isinstance(other, (AlphaPolynomial, int, Fraction)):
            return NotImplemented
        return _coerce_alpha(other) + (-self)

    def __mul__(self, other: AlphaPolyLike) -> AlphaPolynomial:
        if not isinstance(other, (AlphaPolynomial, int, Fraction)):
            return NotImplemented
        other = _coerce_alpha(other)
        if self.is_zero or other.is_zero:
            return AlphaPolynomial.zero()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            for j, b in enumerate(other.num):
                out[i + j] += a * b
        return AlphaPolynomial(out, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, alpha: RationalLike) -> Fraction:
        """Evaluate exactly at a rational alpha (integer Horner)."""
        a = rational(alpha)
        return Fraction(scaled_value(self.num, a), self.den * a.denominator ** max(self.degree, 0))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*a")
            else:
                parts.append(f"{c}*a^{i}")
        return " + ".join(parts)


AlphaPolyLike = Union[AlphaPolynomial, Fraction, int]


def _coerce_alpha(value: AlphaPolyLike) -> AlphaPolynomial:
    if isinstance(value, AlphaPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return AlphaPolynomial.constant(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial in alpha")


#: the monomial ``alpha`` itself, handy for building expressions
ALPHA = AlphaPolynomial((0, 1))


def _as_alpha_tuple(coeffs: Iterable[AlphaPolyLike]) -> tuple[AlphaPolynomial, ...]:
    out = tuple(_coerce_alpha(c) for c in coeffs)
    while out and out[-1].is_zero:
        out = out[:-1]
    return out


@dataclass(frozen=True)
class ZPolynomial:
    """A polynomial in ``z`` whose coefficients live in Q[alpha].

    ``coeffs[j]`` (an :class:`AlphaPolynomial`) multiplies ``z**j``.
    Canonical form strips trailing zero coefficients, so equality is
    structural equality of the normalized representation.
    """

    coeffs: tuple[AlphaPolynomial, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_alpha_tuple(self.coeffs))

    @staticmethod
    def constant(c: AlphaPolyLike) -> ZPolynomial:
        return ZPolynomial((_coerce_alpha(c),))

    @staticmethod
    def zero() -> ZPolynomial:
        return ZPolynomial(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coeff(self) -> AlphaPolynomial:
        if self.is_zero:
            return AlphaPolynomial.zero()
        return self.coeffs[-1]

    @property
    def constant_term(self) -> AlphaPolynomial:
        if self.is_zero:
            return AlphaPolynomial.zero()
        return self.coeffs[0]

    def __add__(self, other: ZPolyLike) -> ZPolynomial:
        other = _coerce_z(other)
        n = max(len(self.coeffs), len(other.coeffs))
        zero = AlphaPolynomial.zero()
        a = self.coeffs + (zero,) * (n - len(self.coeffs))
        b = other.coeffs + (zero,) * (n - len(other.coeffs))
        return ZPolynomial(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> ZPolynomial:
        return ZPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: ZPolyLike) -> ZPolynomial:
        return self + (-_coerce_z(other))

    def __rsub__(self, other: ZPolyLike) -> ZPolynomial:
        return _coerce_z(other) + (-self)

    def __mul__(self, other: ZPolyLike) -> ZPolynomial:
        other = _coerce_z(other)
        if self.is_zero or other.is_zero:
            return ZPolynomial.zero()
        zero = AlphaPolynomial.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ZPolynomial(tuple(out))

    __rmul__ = __mul__

    def diff_z(self) -> ZPolynomial:
        """Formal derivative with respect to z (alpha is a constant here)."""
        if self.degree < 1:
            return ZPolynomial.zero()
        return ZPolynomial(tuple(j * c for j, c in enumerate(self.coeffs) if j >= 1))

    def specialize(self, alpha: RationalLike) -> tuple[Fraction, ...]:
        """Exact coefficients in z after substituting a rational alpha.

        Trailing zeros are stripped, so the result is again canonical.
        """
        out = [c(alpha) for c in self.coeffs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def evaluate(self, alpha: RationalLike, z: RationalLike) -> Fraction:
        """Exact evaluation: Horner in z on top of Horner in alpha."""
        a = rational(alpha)
        zz = rational(z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * zz + c(a)
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if j == 0:
                parts.append(f"({c})")
            elif j == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{j}")
        return " + ".join(parts)


ZPolyLike = Union[ZPolynomial, AlphaPolynomial, Fraction, int]


def _coerce_z(value: ZPolyLike) -> ZPolynomial:
    if isinstance(value, ZPolynomial):
        return value
    if isinstance(value, (AlphaPolynomial, int, Fraction)):
        return ZPolynomial.constant(_coerce_alpha(value))
    raise TypeError(f"cannot treat {value!r} as a polynomial in z")


#: the monomial ``z`` itself
Z = ZPolynomial((AlphaPolynomial.zero(), AlphaPolynomial.constant(1)))
