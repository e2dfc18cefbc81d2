"""Exact rational arithmetic and the integer-row form of exact polynomials.

Everything in this module is exact: coefficients are integers over one
denominator, a value at a point is a `fractions.Fraction`, and no float
ever sneaks in until a caller explicitly evaluates.  This module is also
the package's one admission rule for exact inputs: ``rational`` turns a
string, int or Fraction into a Fraction and refuses every float (a
``numpy.float64`` included), ``positive_rational`` adds the check that
the shape parameter alpha is > 0, and ``index_at_least`` takes an index
through ``operator.index`` (a float is a TypeError) and refuses it below
a floor.  Every exact entry point of the package admits alpha through
``positive_rational``, and every index through ``index_at_least``.

Exact polynomials are held as integer rows over one positive denominator,
and two functions own that form: ``lowest_terms`` makes rows canonical,
and ``row_value`` evaluates one row exactly at a rational point (by the
integer Horner of ``scaled_value``).  Making rows canonical has one
path in two steps: ``_admitted`` takes every entry and the denominator
through ``operator.index`` and refuses a denominator <= 0, and
``_reduced`` strips trailing zeros and divides by the common gcd.  Only
the public doors admit (``lowest_terms``, the ``ZPolynomial`` and
``MixedSum`` constructors, ``positivity.coeffs_nonneg_on_pos``); rows the
package computed itself from admitted ints, such as a ``P_n`` from the
recurrence or a specialized row, are only reduced, once.

``ZPolynomial`` is built on them: a polynomial in ``z`` with coefficients
in Q[alpha], held as integer rows (row j lists the alpha coefficients of
z^j) over one denominator.  It is built, specialized to one integer z-row
at a rational alpha and evaluated; it carries no arithmetic.  The term algebra's ``MixedSum``
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


def positive_rational(value: Union[str, int, Fraction]) -> Fraction:
    """``rational(value)``, refused with a ValueError unless it is > 0."""
    a = rational(value)
    if a <= 0:
        raise ValueError("alpha must be positive")
    return a


def index_at_least(value: int, least: int, name: str) -> int:
    """``operator.index(value)`` (a float is a TypeError), refused below ``least``."""
    n = operator.index(value)
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    return n


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
    """Integer rows over one denominator, admitted and made canonical.

    Entries and ``den`` are admitted through ``operator.index`` (a float is
    a TypeError) and ``den`` must be positive (``_admitted``).  Each row then
    loses its trailing zeros, and rows and ``den`` are divided by their
    common gcd (``_reduced``).
    """
    return _reduced(*_admitted(rows, den))


def _admitted(rows: Iterable[Iterable[int]], den: int) -> tuple[list[list[int]], int]:
    """The admission half of ``lowest_terms``: every entry and ``den`` through
    ``operator.index`` into fresh lists, and ``den`` refused unless positive."""
    rows = [list(map(operator.index, row)) for row in rows]
    den = operator.index(den)
    if den <= 0:
        raise ValueError("den must be a positive integer")
    return rows, den


def _reduced(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """``lowest_terms`` without the admission, for rows the package computed
    itself from admitted ints: each row (a list, changed in place) loses its
    trailing zeros, and rows and ``den`` are divided by their common gcd."""
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

    Every alpha-row is valued over the one denominator den * q^d, d the
    largest alpha-degree: a row's value is the sum of row[i] * p^i * q^(d-i),
    a dot product with weights built once for all rows.
    """
    p, q = a.numerator, a.denominator
    d = max(map(len, rows), default=1) - 1
    weights = [q ** d]
    for _ in range(d):
        weights.append(weights[-1] // q * p)
    values = [sum(map(operator.mul, row, weights)) for row in rows]
    (row,), den = _reduced([values], den * weights[0])
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
        self._set(*_polynomial_fields(*lowest_terms(rows, den)))

    @classmethod
    def _of_ints(cls, rows: list[list[int]], den: int) -> ZPolynomial:
        """The polynomial of integer ``rows`` over ``den`` > 0 that the package
        computed itself from admitted ints: reduced, not admitted again."""
        p = object.__new__(cls)
        p._set(*_polynomial_fields(*_reduced(rows, den)))
        return p

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


def _polynomial_fields(rows: list[list[int]], den: int) -> tuple[tuple, int]:
    """A ``ZPolynomial``'s fields from reduced rows: trailing empty rows dropped."""
    while rows and not rows[-1]:
        rows.pop()
    return tuple(map(tuple, rows)), den
