"""Exact constants attached to the kernel family.

The central object is the rational number

    B(alpha, n) = (1/alpha) * prod_{k=1..n-1} k / (k + alpha),

a Beta-function value in disguise: B(alpha, n) = Beta(alpha, n) for integer
n >= 1.  Its reciprocal

    alpha * prod_{k=1..n-1} (1 + alpha/k)

is the constant multiplying pi on the right-hand side of the target
inequality, and the power moment of the n-th kernel,

    integral_0^1 K_n(x) * x**(alpha-1) dx,

equals B(alpha, n+1) / alpha.  Everything here is exact, on an alpha
admitted by ``exact.positive_rational``, so a float alpha is refused rather
than turned into a binary fraction.  With alpha = p/q, each product runs
over the integers, as one numerator and one denominator, and forms a
single ``Fraction`` at the end.  The telescoped moments come from one
generator that subtracts one term per n, so ``verify_moment_identity``
walks them once.  The density that attains equality,
alpha * t**(alpha-1) / B(alpha, n), is ``quadrature.extremal_density_fn``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import Iterator

from .exact import RationalLike, positive_rational


def beta_int(alpha: RationalLike, n: int) -> Fraction:
    """Exact B(alpha, n) = (1/alpha) * prod_{k=1..n-1} k/(k+alpha), n >= 1."""
    a = positive_rational(alpha)
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = a.numerator, a.denominator
    # with a = p/q, each factor k/(k+a) is kq/(kq+p)
    num, den = q, p
    for k in range(1, n):
        num *= k * q
        den *= k * q + p
    return Fraction(num, den)


def rhs_constant(alpha: RationalLike, n: int) -> Fraction:
    """The exact pi-coefficient  alpha * prod_{k=1..n-1} (1 + alpha/k)  of the
    inequality's right side.

    By construction this is exactly ``1 / beta_int(alpha, n)``; the product
    form is computed independently so the reciprocity law is a real check,
    not a tautology.
    """
    a = positive_rational(alpha)
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = a.numerator, a.denominator
    # with a = p/q, each factor 1 + a/k is (kq+p)/(kq)
    num, den = p, q
    for k in range(1, n):
        num *= k * q + p
        den *= k * q
    return Fraction(num, den)


def kernel_power_moment(alpha: RationalLike, n: int, mode: str = "product") -> Fraction:
    """Exact value of integral_0^1 K_n(x) x**(alpha-1) dx, for n >= 0.

    Two independent routes are kept deliberately separate:

    * ``mode="product"`` uses the closed form B(alpha, n+1)/alpha.
    * ``mode="sum"`` uses the telescoped form
      1/alpha**2 - sum_{m=1..n} B(alpha, m+1)/m,
      which integrates the family's step-down relation term by term.

    Agreement of the two modes is one of the identity checks.
    """
    a = positive_rational(alpha)
    if n < 0:
        raise ValueError("n must be >= 0")
    if mode == "product":
        return beta_int(a, n + 1) / a
    if mode == "sum":
        return next(islice(_telescoped(a), n, None))
    raise ValueError(f"unknown mode {mode!r}; expected 'product' or 'sum'")


def _telescoped(a: Fraction) -> Iterator[Fraction]:
    """The telescoped moments 1/a**2 - sum_{m=1..n} B(a, m+1)/m for
    n = 0, 1, 2, ..., each one subtraction from the one before."""
    value = 1 / (a * a)
    yield value
    for m in count(1):
        value -= beta_int(a, m + 1) / m
        yield value


def verify_moment_identity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check product-mode == sum-mode exactly for every n in 0..n_max.

    One pass: the telescoped sum is walked once, not restarted for each n.
    """
    a = positive_rational(alpha)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [kernel_power_moment(a, n, "product") == telescoped
            for n, telescoped in zip(range(n_max + 1), _telescoped(a))]


def verify_reciprocity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check beta_int * rhs_constant == 1 exactly, n = 1..n_max."""
    a = positive_rational(alpha)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [beta_int(a, n) * rhs_constant(a, n) == 1 for n in range(1, n_max + 1)]
