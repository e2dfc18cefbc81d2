"""A small symbolic algebra closed under d/dt.

The functions we need to differentiate repeatedly all live in the linear
span of terms

    c(alpha) * t**(p + q*beta) * (1 + t**beta)**(-k),      beta = 2*alpha,

with integer ``p``, ``q >= 0``, ``k >= 0`` and a coefficient ``c`` that is a
polynomial in alpha.  Differentiating such a term in t yields two terms of
the same shape:

    d/dt [ c * t**(p+q*beta) * (1+t**beta)**(-k) ]
        =  c*(p + 2*q*alpha) * t**(p-1+q*beta)     * (1+t**beta)**(-k)
         - c*2*k*alpha       * t**(p-1+(q+1)*beta) * (1+t**beta)**(-k-1)

so the span is closed under d/dt and we can build high-order derivatives
exactly, in canonical form, without a general CAS.

``MixedSum`` holds a sum as integer rows over one positive denominator, like
``exact.ZPolynomial``: each sorted key ``(k, p, q)`` maps to the integer
alpha-coefficients of its term, equal keys merge, zero terms are dropped and
the whole is in lowest terms, so two sums representing the same function as
a formal linear combination compare equal.  Its operations (``scale``,
``shift_power``, ``derivative``: all the derivative oracle needs) are
integer row operations, and a single term is built from its row, e.g.
``MixedSum((((1, -1, 0), (0, -2)),))`` for
-2*alpha * t**(-1) * (1 + t**beta)**(-1); a sum of sums is the constructor
given their rows over a common denominator.  Only the constructor and
``derivative`` merge keys; ``lowest_terms`` admits each entry once.
``shift_power`` keeps a canonical sum canonical as it stands, and ``scale``
only multiplies and reduces, so neither rebuilds.

``mixed_evaluator(s, alpha)`` is the float view: each term's coefficient
and exponents are reduced to floats once per (sum, alpha), and the closure
evaluates at t; ``mixed_eval`` is its one-point case.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable

from .exact import Value, lowest_terms, rational


class MixedSum(Value):
    """A finite linear combination of terms, kept canonical.

    ``rows`` pairs each sorted key ``(k, p, q)`` with a row whose ``row[i] / den``
    multiplies ``alpha**i`` in that key's term: ints over one positive ``den``
    in lowest terms, no row ending in a zero (the zero sum is ``()`` over 1);
    floats are rejected.
    """

    __slots__ = ("rows", "den")
    rows: tuple[tuple[tuple[int, int, int], tuple[int, ...]], ...]
    den: int

    def __init__(self, rows: Iterable[tuple[tuple[int, int, int], Iterable[int]]] = (),
                 den: int = 1) -> None:
        merged: dict[tuple[int, int, int], Iterable[int]] = {}
        for key, row in rows:
            k, _, q = key = tuple(map(operator.index, key))
            if k < 0 or q < 0:
                raise ValueError("exponents q and k must be nonnegative")
            _merge(merged, key, row)
        self._set(*_canonical_rows(merged, den))

    @classmethod
    def _canonical(cls, rows: tuple, den: int) -> MixedSum:
        """A sum from rows that are already sorted, unique, nonempty and in
        lowest terms over ``den``: nothing is admitted or merged again."""
        s = object.__new__(cls)
        s._set(rows, den)
        return s

    def scale(self, factor: Fraction | int) -> MixedSum:
        # the keys stay as they are; a nonzero factor ends no row in a zero,
        # and a zero one empties every row
        f = rational(factor)
        num = f.numerator
        rows, den = lowest_terms(([x * num for x in row] for _, row in self.rows),
                                 self.den * f.denominator)
        return MixedSum._canonical(tuple(
            (key, tuple(row)) for (key, _), row in zip(self.rows, rows) if row), den)

    def shift_power(self, m: int) -> MixedSum:
        """Multiply the whole sum by t**m."""
        # adding m to every p keeps the keys sorted and unique, and the rows
        # and den are unchanged, so the result is canonical as it stands
        m = operator.index(m)
        return MixedSum._canonical(
            tuple(((k, p + m, q), row) for (k, p, q), row in self.rows), self.den)

    def derivative(self) -> MixedSum:
        """d/dt, applied term by term via the closed-form rule above."""
        merged: dict[tuple[int, int, int], Iterable[int]] = {}
        for (k, p, q), row in self.rows:
            p1, two_q, k2 = p - 1, 2 * q, -2 * k
            # power-of-t part: exponent p + q*beta differentiates to
            # (p + 2*q*alpha) * t**(p-1+q*beta)
            _merge(merged, (k, p1, q), [p * x + two_q * y for x, y in zip((*row, 0), (0, *row))])
            # (1+t**beta)**(-k) part: -2*k*alpha * t**(p-1+(q+1)*beta) * (1+t**beta)**(-k-1)
            _merge(merged, (k + 1, p1, q + 1), [0, *(k2 * x for x in row)])
        return MixedSum._canonical(*_canonical_rows(merged, self.den))


def _merge(merged: dict, key: tuple[int, int, int], row: Iterable[int]) -> None:
    """Add ``row`` to ``merged[key]``; a key seen for the first time keeps its row as is."""
    acc = merged.get(key)
    merged[key] = row if acc is None else [
        x + y for x, y in zip_longest(acc, row, fillvalue=0)]


def _canonical_rows(merged: dict, den: int) -> tuple[tuple, int]:
    """``merged``'s rows in key order, admitted and put in lowest terms over
    one denominator by ``lowest_terms``, with the empty ones dropped."""
    keys = sorted(merged)
    rows, den = lowest_terms((merged[key] for key in keys), den)
    return tuple((key, tuple(row)) for key, row in zip(keys, rows) if row), den


def mixed_eval(s: MixedSum, alpha: float, t: float) -> float:
    """Numerically evaluate a mixed sum at float (alpha, t), t > 0: the
    one-point case of ``mixed_evaluator``."""
    return mixed_evaluator(s, alpha)(t)


def mixed_evaluator(s: MixedSum, alpha: float) -> Callable[[float], float]:
    """A closure t -> the float value of a mixed sum at float alpha, t > 0.

    Each term's coefficient and exponents depend on alpha only, so they are
    computed once, here.  Each term is evaluated in log space to dodge
    overflow, and the terms are summed with ``math.fsum``.  An overflowing
    term is a signed infinity rather than an exception, so the caller sees
    a non-finite result: infinities of both signs sum to NaN.
    """
    beta = 2.0 * alpha
    terms = []  # (log|c|, sign of c, exponent of t, k), one per nonzero term
    for (k, p, q), row in s.rows:
        # Coefficient at float alpha via Horner (floats are fine here); int / int
        # is correctly rounded, so x / den is the float of each exact coefficient.
        cf = 0.0
        for x in reversed(row):
            cf = cf * alpha + x / s.den
        if cf == 0.0:
            continue
        terms.append((math.log(abs(cf)), 1.0 if cf > 0.0 else -1.0, p + q * beta, k))

    def at(t: float) -> float:
        if t <= 0.0:
            raise ValueError("t must be positive")
        log_t = math.log(t)
        bl = beta * log_t
        # log(1 + t**beta), stable on both sides of t = 1
        if bl > 0.0:
            log_base = bl + math.log1p(math.exp(-bl))
        else:
            log_base = math.log1p(math.exp(bl))
        values = []
        for log_c, sign, e, k in terms:
            log_mag = log_c + e * log_t - k * log_base
            values.append(sign * math.inf if log_mag > 709.0 else sign * math.exp(log_mag))
        try:
            return math.fsum(values)
        except ValueError:  # fsum refuses -inf + inf
            return math.nan

    return at
