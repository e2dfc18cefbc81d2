"""Exact rational arithmetic and the integer-row form of exact polynomials.

Everything in this module is exact: coefficients are integers over one
denominator, a value at a point is a `fractions.Fraction`, and no float
ever sneaks in until a caller explicitly evaluates.  This module is also
the package's one admission rule for exact inputs: ``rational`` turns a
string, int or Fraction into a Fraction and refuses every float (a
``numpy.float64`` included), and ``positive_rational`` adds the check that
the shape parameter alpha is > 0.  Every exact entry point of the package
admits alpha through ``positive_rational``.

Exact polynomials are held as integer rows over one positive denominator,
and two functions own that form: ``lowest_terms`` makes rows canonical,
and ``row_value`` evaluates one row exactly at a rational point (by the
integer Horner of ``scaled_value``).  ``ZPolynomial`` is built on them: a
polynomial in ``z`` with coefficients in Q[alpha], held as integer rows
(row j lists the alpha coefficients of z^j) over one denominator.  It is
built, specialized to one integer z-row at a rational alpha and
evaluated; it carries no arithmetic.  The term algebra's ``MixedSum``
(``termalgebra``) is the package's other exact type, in the same form.

A ``ZPolynomial`` is immutable (hashable, safe to share across threads)
and canonical: lowest terms, trailing zero coefficients stripped, so
equal values compare equal structurally.  Immutability and comparison by
value come from ``Value``, the small ``__slots__`` base that every
validated value type of the package shares; the plain result records are
``typing.NamedTuple``s.  Neither needs ``dataclasses``, so importing the
package never loads it (or the ``inspect`` it pulls in).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
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


def row_value(row: Sequence[int], den: int, x: RationalLike) -> Fraction:
    """Exact value of ``row / den`` (ascending coefficients) at a rational x.

    x is admitted through ``rational``: a float is a TypeError.
    """
    x = rational(x)
    return Fraction(scaled_value(row, x), den * x.denominator ** max(len(row) - 1, 0))


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


class Value:
    """Base of the validated value types: immutable, and compared, hashed and
    shown by the fields a subclass names in its ``__slots__``.

    The subclass's ``__init__`` admits its arguments and sets every field
    once with ``_set``; assigning or deleting a field afterwards raises
    AttributeError.  An instance equals only an instance of its own class.
    A copy or a pickle calls the constructor again with the fields in slot
    order, so the validation runs on every path that makes an instance.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class ZPolynomial(Value):
    """A polynomial in ``z`` with coefficients in Q[alpha].

    ``rows[j][i] / den`` multiplies ``alpha**i * z**j``: ints over one
    positive ``den`` in lowest terms, with no row ending in a zero and no
    trailing empty row (the zero polynomial is ``()`` over 1, degree -1).
    """

    __slots__ = ("rows", "den")
    rows: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Iterable[Iterable[int]] = (), den: int = 1) -> None:
        rows, den = lowest_terms(rows, den)
        while rows and not rows[-1]:
            rows.pop()
        self._set(tuple(map(tuple, rows)), den)

    @property
    def degree(self) -> int:
        return len(self.rows) - 1

    def specialize(self, alpha: RationalLike) -> tuple[list[int], int]:
        """The z-coefficients at a rational alpha: ``(row, den)``, ``row / den``.

        Integers over one positive denominator, canonical by ``lowest_terms``
        (trailing zeros stripped), with no Fraction built on the way.
        """
        return _specialized(self.rows, self.den, rational(alpha))

    def evaluate(self, alpha: RationalLike, z: RationalLike) -> Fraction:
        """Exact evaluation: integer Horner in alpha per row, then in z."""
        return row_value(*_specialized(self.rows, self.den, rational(alpha)), z)
