"""Exact constants attached to the kernel family.

The central object is the rational number

    B(alpha, n) = (1/alpha) * prod_{k=1..n-1} k / (k + alpha),

a Beta-function value in disguise: B(alpha, n) = Beta(alpha, n) for integer
n >= 1.  Its reciprocal

    alpha * prod_{k=1..n-1} (1 + alpha/k)

is the constant multiplying pi on the right-hand side of the target
inequality, and the power moment of the n-th kernel,

    integral_0^1 K_n(x) * x**(alpha-1) dx,

equals B(alpha, n+1) / alpha, the product route of ``moment_routes``.
Everything here is exact, on an alpha admitted by
``exact.positive_rational``, so a float alpha is refused rather than turned
into a binary fraction.  ``_products`` walks B and the pi-coefficient as
two running products, n = 1, 2, ...; ``beta_int`` and ``rhs_constant`` are
one step of it.  Each identity is one walk of it yielding (n, exact target,
exact value), read by the ``verify_*`` checks and the CLI's
``identities``.  The density that attains equality,
alpha * t**(alpha-1) / B(alpha, n), is ``quadrature.extremal_density_fn``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import Iterator

from .exact import RationalLike, positive_rational


def _admitted(alpha: RationalLike, n: int, least: int, name: str = "n") -> Fraction:
    """alpha admitted by ``positive_rational``, then n refused below least."""
    a = positive_rational(alpha)
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    return a


def _products(a: Fraction) -> Iterator[tuple[Fraction, Fraction]]:
    """(B(a, n), pi-coefficient(a, n)) for n = 1, 2, ..., each a running
    product of its own, so that their reciprocity is a real check."""
    p, q = a.numerator, a.denominator
    beta, coeff = 1 / a, a
    for k in count(1):
        yield beta, coeff
        # with a = p/q, B's factor k/(k+a) is kq/(kq+p), the coefficient's
        # 1 + a/k is (kq+p)/(kq)
        beta *= Fraction(k * q, k * q + p)
        coeff *= Fraction(k * q + p, k * q)


def beta_int(alpha: RationalLike, n: int) -> Fraction:
    """Exact B(alpha, n) = (1/alpha) * prod_{k=1..n-1} k/(k+alpha), n >= 1."""
    return next(islice(_products(_admitted(alpha, n, 1)), n - 1, None))[0]


def rhs_constant(alpha: RationalLike, n: int) -> Fraction:
    """The exact pi-coefficient  alpha * prod_{k=1..n-1} (1 + alpha/k)  of the
    inequality's right side.

    By construction this is exactly ``1 / beta_int(alpha, n)``; the product
    form is computed independently so the reciprocity law is a real check,
    not a tautology.
    """
    return next(islice(_products(_admitted(alpha, n, 1)), n - 1, None))[1]


def _moment_walk(a: Fraction, n_max: int) -> Iterator[tuple[int, Fraction, Fraction]]:
    telescoped = 1 / (a * a)
    for n, (beta, _) in zip(range(n_max + 1), _products(a)):  # beta = B(a, n+1)
        if n:
            telescoped -= beta / n
        yield n, beta / a, telescoped


def moment_routes(alpha: RationalLike, n_max: int) -> Iterator[tuple[int, Fraction, Fraction]]:
    """The kernel power moment by both routes, (n, product, telescoped), for
    n = 0..n_max.

    The two routes are kept deliberately separate: the product route is
    the closed form B(alpha, n+1)/alpha, the telescoped route
    1/alpha**2 - sum_{m=1..n} B(alpha, m+1)/m integrates the family's
    step-down relation term by term.  Their agreement is one of the
    identity checks.  Both read one walk of B, the sum updated as it goes;
    alpha and n_max are admitted before the walk starts.
    """
    return _moment_walk(_admitted(alpha, n_max, 0, "n_max"), n_max)


def reciprocity_routes(alpha: RationalLike, n_max: int) -> Iterator[tuple[int, int, Fraction]]:
    """(n, 1, B(alpha, n) * pi-coefficient(alpha, n)) for n = 1..n_max, from
    one walk of both products; empty for n_max = 0."""
    steps = zip(range(1, n_max + 1), _products(_admitted(alpha, n_max, 0, "n_max")))
    return ((n, 1, beta * coeff) for n, (beta, coeff) in steps)


def verify_moment_identity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check product route == telescoped route exactly for every n in 0..n_max."""
    return [target == value for _, target, value in moment_routes(alpha, n_max)]


def verify_reciprocity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check beta_int * rhs_constant == 1 exactly, n = 1..n_max."""
    a = _admitted(alpha, n_max, 1, "n_max")
    return [target == value for _, target, value in reciprocity_routes(a, n_max)]
