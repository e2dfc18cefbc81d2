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
single ``Fraction`` at the end.  ``moment_routes`` yields the moment by
both routes, the closed form and the telescoped sum, for n = 0..n_max in
one walk; ``verify_moment_identity`` and the CLI's ``identities`` both
read it.  The density that attains equality,
alpha * t**(alpha-1) / B(alpha, n), is ``quadrature.extremal_density_fn``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
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


def kernel_power_moment(alpha: RationalLike, n: int) -> Fraction:
    """Exact value of integral_0^1 K_n(x) x**(alpha-1) dx, for n >= 0, by the
    closed form B(alpha, n+1)/alpha (the product route)."""
    a = positive_rational(alpha)
    if n < 0:
        raise ValueError("n must be >= 0")
    return beta_int(a, n + 1) / a


def _telescoped(a: Fraction) -> Iterator[Fraction]:
    """The telescoped moments 1/a**2 - sum_{m=1..n} B(a, m+1)/m for
    n = 0, 1, 2, ..., each one subtraction from the one before."""
    value = 1 / (a * a)
    yield value
    for m in count(1):
        value -= beta_int(a, m + 1) / m
        yield value


def moment_routes(alpha: RationalLike, n_max: int) -> Iterator[tuple[Fraction, Fraction]]:
    """The kernel power moment by both routes, (product, telescoped), for
    n = 0..n_max.

    The two routes are kept deliberately separate: the product route is
    ``kernel_power_moment``'s closed form, the telescoped route
    1/alpha**2 - sum_{m=1..n} B(alpha, m+1)/m integrates the family's
    step-down relation term by term.  Their agreement is one of the
    identity checks.  The telescoped sum is walked once, not restarted for
    each n; alpha and n_max are admitted before the walk starts.
    """
    a = positive_rational(alpha)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return zip((kernel_power_moment(a, n) for n in range(n_max + 1)), _telescoped(a))


def verify_moment_identity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check product route == telescoped route exactly for every n in 0..n_max."""
    return [product == telescoped for product, telescoped in moment_routes(alpha, n_max)]


def verify_reciprocity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check beta_int * rhs_constant == 1 exactly, n = 1..n_max."""
    a = positive_rational(alpha)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [beta_int(a, n) * rhs_constant(a, n) == 1 for n in range(1, n_max + 1)]
