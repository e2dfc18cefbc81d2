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

``MixedSum`` keeps terms merged by the key ``(k, p, q)`` in lexicographic
order with zero coefficients dropped; two sums representing the same
function as a formal linear combination compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .exact import ALPHA, AlphaPolynomial, AlphaPolyLike, _coerce_alpha


@dataclass(frozen=True)
class MixedTerm:
    """One term  coeff(alpha) * t**(p + q*beta) * (1 + t**beta)**(-k)."""

    coeff: AlphaPolynomial
    p: int
    q: int
    k: int

    def __post_init__(self) -> None:
        if self.q < 0 or self.k < 0:
            raise ValueError("exponents q and k must be nonnegative")

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.k, self.p, self.q)

    def value(self, alpha: float, t: float) -> float:
        """Evaluate at floats, working in log space to dodge overflow.

        Overflow is reported as a signed infinity rather than raised, so a
        caller summing many terms sees a non-finite result instead of an
        exception.
        """
        if t <= 0.0:
            raise ValueError("t must be positive")
        # Coefficient at float alpha via Horner (floats are fine here); int / int
        # is correctly rounded, so x / den is the float of each exact coefficient.
        cf = 0.0
        for x in reversed(self.coeff.num):
            cf = cf * alpha + x / self.coeff.den
        if cf == 0.0:
            return 0.0
        beta = 2.0 * alpha
        log_t = math.log(t)
        bl = beta * log_t
        # log(1 + t**beta), stable on both sides of t = 1
        if bl > 0.0:
            log_base = bl + math.log1p(math.exp(-bl))
        else:
            log_base = math.log1p(math.exp(bl))
        log_mag = math.log(abs(cf)) + (self.p + self.q * beta) * log_t - self.k * log_base
        sign = 1.0 if cf > 0.0 else -1.0
        if log_mag > 709.0:
            return sign * math.inf
        return sign * math.exp(log_mag)

    def __str__(self) -> str:
        return f"({self.coeff}) * t^({self.p}+{self.q}b) * (1+t^b)^(-{self.k})"


def _normalize(terms: Iterable[MixedTerm]) -> tuple[MixedTerm, ...]:
    merged: dict[tuple[int, int, int], AlphaPolynomial] = {}
    for term in terms:
        key = term.key
        if key in merged:
            merged[key] = merged[key] + term.coeff
        else:
            merged[key] = term.coeff
    out = []
    for key in sorted(merged):
        coeff = merged[key]
        if not coeff.is_zero:
            k, p, q = key
            out.append(MixedTerm(coeff, p, q, k))
    return tuple(out)


@dataclass(frozen=True)
class MixedSum:
    """A finite linear combination of :class:`MixedTerm`, kept canonical."""

    terms: tuple[MixedTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _normalize(self.terms))

    @staticmethod
    def single(coeff: AlphaPolyLike, p: int, q: int, k: int) -> MixedSum:
        return MixedSum((MixedTerm(_coerce_alpha(coeff), p, q, k),))

    @staticmethod
    def zero() -> MixedSum:
        return MixedSum(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: MixedSum) -> MixedSum:
        return MixedSum(self.terms + other.terms)

    def __neg__(self) -> MixedSum:
        return self.scale(-1)

    def __sub__(self, other: MixedSum) -> MixedSum:
        return self + (-other)

    def scale(self, factor: AlphaPolyLike) -> MixedSum:
        f = _coerce_alpha(factor)
        return MixedSum(tuple(
            MixedTerm(t.coeff * f, t.p, t.q, t.k) for t in self.terms))

    def shift_power(self, m: int) -> MixedSum:
        """Multiply the whole sum by t**m."""
        return MixedSum(tuple(
            MixedTerm(t.coeff, t.p + m, t.q, t.k) for t in self.terms))

    def derivative(self) -> MixedSum:
        """d/dt, applied term by term via the closed-form rule above."""
        out: list[MixedTerm] = []
        for t in self.terms:
            # power-of-t part: exponent p + q*beta differentiates to
            # (p + 2*q*alpha) * t**(p-1+q*beta)
            front = t.coeff * (AlphaPolynomial.constant(t.p) + 2 * t.q * ALPHA)
            if not front.is_zero:
                out.append(MixedTerm(front, t.p - 1, t.q, t.k))
            if t.k > 0:
                chain = t.coeff * (-2 * t.k) * ALPHA
                out.append(MixedTerm(chain, t.p - 1, t.q + 1, t.k + 1))
        return MixedSum(tuple(out))

    def value(self, alpha: float, t: float) -> float:
        return math.fsum(term.value(alpha, t) for term in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return "  +  ".join(str(t) for t in self.terms)


def mixed_diff(s: MixedSum, order: int = 1) -> MixedSum:
    """Differentiate a mixed sum ``order`` times with respect to t."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    for _ in range(order):
        s = s.derivative()
    return s


def mixed_eval(s: MixedSum, alpha: float, t: float) -> float:
    """Numerically evaluate a mixed sum at float (alpha, t), t > 0."""
    return s.value(alpha, t)
