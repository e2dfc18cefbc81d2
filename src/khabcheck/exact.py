"""Exact rational arithmetic and the two polynomial rings used everywhere else.

Everything in this module is exact: coefficients are integers over one
denominator, a value at a point is a `fractions.Fraction`, and no float
ever sneaks in until a caller explicitly evaluates.  This module is also
the package's one admission rule for exact inputs: ``rational`` turns a
string, int or Fraction into a Fraction and refuses every float (a
``numpy.float64`` included), and ``positive_rational`` adds the check that
the shape parameter alpha is > 0.  Every exact entry point of the package
admits alpha through ``positive_rational``.

Exact polynomials are held as integer rows over one positive denominator,
and three functions own that form: ``lowest_terms`` makes rows canonical,
``cleared`` admits a list of rationals as integers over their least common
denominator, and ``row_value`` evaluates one row exactly at a rational
point (by the integer Horner of ``scaled_value``).  Two polynomial types
are built on them:

* ``AlphaPolynomial`` -- the ring of univariate polynomials in the shape
  parameter ``alpha`` over the rationals.
* ``ZPolynomial`` -- a polynomial in ``z`` with coefficients in Q[alpha],
  held as integer rows (row j lists the alpha coefficients of z^j) over
  one denominator.  It is built, specialized to one integer z-row at a
  rational alpha and evaluated; it carries no arithmetic.

Both are immutable (hashable, safe to share across threads) and keep a
canonical form: lowest terms, trailing zero coefficients stripped, so
equal values compare equal structurally.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest
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


def row_value(row: Sequence[int], den: int, x: Fraction) -> Fraction:
    """Exact value of ``row / den`` (ascending coefficients) at a rational x."""
    return Fraction(scaled_value(row, x), den * x.denominator ** max(len(row) - 1, 0))


def cleared(coeffs: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator.

    Each entry is admitted through ``rational``, so a float is a TypeError.
    """
    fracs = [rational(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in fracs))
    return [c.numerator * (den // c.denominator) for c in fracs], den


def lowest_terms(rows: Iterable[Iterable[int]], den: int) -> tuple[list[list[int]], int]:
    """Integer rows over one denominator, made canonical.

    Entries and ``den`` are admitted through ``operator.index`` (a float is
    a TypeError) and ``den`` must be positive.  Each row loses its trailing
    zeros, and rows and ``den`` are divided by their common gcd.
    """
    rows = [list(map(operator.index, row)) for row in rows]
    den = operator.index(den)
    if den <= 0:
        raise ValueError("den must be a positive integer")
    for row in rows:
        while row and not row[-1]:
            row.pop()
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        den //= g
    return rows, den


def _specialized(rows: Sequence[Sequence[int]], den: int, a: Fraction) -> tuple[list[int], int]:
    """The z-row of ``rows / den`` at alpha = a = p/q, as ``lowest_terms`` leaves it.

    Each alpha-row's ``scaled_value`` is scaled to q^d, d the largest
    alpha-degree, so all share the denominator den * q^d.
    """
    q = a.denominator
    d = max(map(len, rows), default=1) - 1
    values = [scaled_value(row, a) * q ** (d + 1 - len(row)) for row in rows]
    (row,), den = lowest_terms((values,), den * q ** d)
    return row, den


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
            coeffs, den = cleared(coeffs)
        (num,), den = lowest_terms((coeffs,), den)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

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
    # Operators return NotImplemented for foreign types, so a float operand
    # ends in a TypeError rather than a binary fraction.

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
        return row_value(self.num, self.den, rational(alpha))

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


@dataclass(frozen=True, init=False)
class ZPolynomial:
    """A polynomial in ``z`` with coefficients in Q[alpha].

    ``rows[j][i] / den`` multiplies ``alpha**i * z**j``: ints over one
    positive ``den`` in lowest terms, with no row ending in a zero and no
    trailing empty row (the zero polynomial is ``()`` over 1, degree -1).
    """

    rows: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Iterable[Iterable[int]] = (), den: int = 1) -> None:
        rows, den = lowest_terms(rows, den)
        while rows and not rows[-1]:
            rows.pop()
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[AlphaPolynomial, ...]:
        """Read-only view: ``coeffs[j]`` multiplies ``z**j``."""
        return tuple(AlphaPolynomial(row, self.den) for row in self.rows)

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    @property
    def leading_coeff(self) -> AlphaPolynomial:
        return AlphaPolynomial(self.rows[-1] if self.rows else (), self.den)

    def specialize(self, alpha: RationalLike) -> tuple[list[int], int]:
        """The z-coefficients at a rational alpha: ``(row, den)``, ``row / den``.

        Integers over one positive denominator, canonical by ``lowest_terms``
        (trailing zeros stripped), with no Fraction built on the way.
        """
        return _specialized(self.rows, self.den, rational(alpha))

    def evaluate(self, alpha: RationalLike, z: RationalLike) -> Fraction:
        """Exact evaluation: integer Horner in alpha per row, then in z."""
        return row_value(*_specialized(self.rows, self.den, rational(alpha)), rational(z))

    def __str__(self) -> str:
        if not self.rows:
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
