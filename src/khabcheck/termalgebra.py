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
a formal linear combination compare equal.  A single term is built from its
row, e.g. ``MixedSum((((1, -1, 0), (0, -2)),))`` for
-2*alpha * t**(-1) * (1 + t**beta)**(-1); a sum of sums is the constructor
given their rows over a common denominator.  Only the constructor admits
its entries (through ``exact``'s admission step).  The one operation,
``derivative``, starts from admitted ints: it builds each output key's row
in one pass from the (at most two) keys that feed it, and reduces once.
The derivative oracle (``transition.transition_oracle``) applies the same
rule as one row formula and builds its sum through ``MixedSum._of_ints``.

``mixed_evaluator(s, alpha)`` is the float view: each term's coefficient
and exponents are reduced to floats once per (sum, alpha), and the closure
evaluates at t; ``mixed_eval`` is its one-point case.
"""

from __future__ import annotations

import math
import operator
from itertools import zip_longest
from typing import Callable, Iterable

from .exact import Value, _admitted, _reduced


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
        keys, entries = [], []
        for key, row in rows:
            k, _, q = key = tuple(map(operator.index, key))
            if k < 0 or q < 0:
                raise ValueError("exponents q and k must be nonnegative")
            keys.append(key)
            entries.append(row)
        # admitted rows are fresh lists, so a key seen once keeps its row as is
        entries, den = _admitted(entries, den)
        merged: dict[tuple[int, int, int], list[int]] = {}
        for key, row in zip(keys, entries):
            acc = merged.get(key)
            merged[key] = row if acc is None else [
                x + y for x, y in zip_longest(acc, row, fillvalue=0)]
        keys = sorted(merged)
        self._set(*_sum_fields(keys, [merged[key] for key in keys], den))

    @classmethod
    def _of_ints(cls, keys: list, rows: list[list[int]], den: int) -> MixedSum:
        """The sum of integer ``rows`` at sorted, unique ``keys`` over ``den`` > 0
        that the package computed itself from admitted ints: reduced, not
        admitted or merged again."""
        s = object.__new__(cls)
        s._set(*_sum_fields(keys, rows, den))
        return s

    def derivative(self) -> MixedSum:
        """d/dt by the closed-form rule above, one output key at a time.

        The key (k, p-1, q) collects (p + 2*q*alpha) * row(k, p, q) from the
        power of t and -2*(k-1)*alpha * row(k-1, p, q-1) from the power of
        the base; each row is built once and the whole is reduced once.
        """
        src = dict(self.rows)
        keys = sorted({(k, p - 1, q) for k, p, q in src}
                      | {(k + 1, p - 1, q + 1) for k, p, q in src})
        rows = []
        for k, p1, q in keys:
            p = p1 + 1
            r = src.get((k, p, q), ())
            two_q, k2 = 2 * q, 2 - 2 * k
            rows.append([p * x + two_q * y + k2 * z for x, y, z in zip_longest(
                r, (0, *r), (0, *src.get((k - 1, p, q - 1), ())), fillvalue=0)])
        return MixedSum._of_ints(keys, rows, self.den)


def _sum_fields(keys: list, rows: list[list[int]], den: int) -> tuple[tuple, int]:
    """A ``MixedSum``'s fields from the rows at sorted, unique keys: reduced
    once by ``_reduced``, with the empty rows dropped."""
    rows, den = _reduced(rows, den)
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
