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
into a binary fraction.  ``_products`` walks the numerators and
denominators of B and of the pi-coefficient as four running integer
products, n = 1, 2, ...; ``beta_int`` and ``rhs_constant`` are one step of
it, as Fractions.  Each identity is one walk of it yielding (n, target,
value, den): the exact target and value are two integers over one shared
denominator, so an identity is an integer equality, and the float of
either is one correctly rounded int division.  The ``verify_*`` checks and
the CLI's ``identities`` read them.  The density that attains equality,
alpha * t**(alpha-1) / B(alpha, n), is ``quadrature.extremal_density_fn``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import gcd
from typing import Iterator

from .exact import RationalLike, positive_rational


def _admitted(alpha: RationalLike, n: int, least: int, name: str = "n") -> Fraction:
    """alpha admitted by ``positive_rational``, then n refused below least."""
    a = positive_rational(alpha)
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    return a


def _products(a: Fraction) -> Iterator[tuple[int, int, int, int]]:
    """B(a, n) = b_num / b_den and pi-coefficient(a, n) = c_num / c_den for
    n = 1, 2, ..., as four running integer products, so that their
    reciprocity is a real check.

    With a = p/q, B's factor k/(k+a) is kq/(kq+p) and the coefficient's
    1 + a/k is (kq+p)/(kq); nothing is reduced on the way.
    """
    p, q = a.numerator, a.denominator
    b_num, b_den, c_num, c_den = q, p, p, q  # 1/a and a
    for k in count(1):
        yield b_num, b_den, c_num, c_den
        kq = k * q
        b_num *= kq
        b_den *= kq + p
        c_num *= kq + p
        c_den *= kq


def _step(alpha: RationalLike, n: int) -> tuple[int, int, int, int]:
    """``_products`` at n >= 1, after admitting alpha and n."""
    return next(islice(_products(_admitted(alpha, n, 1)), n - 1, None))


def beta_int(alpha: RationalLike, n: int) -> Fraction:
    """Exact B(alpha, n) = (1/alpha) * prod_{k=1..n-1} k/(k+alpha), n >= 1."""
    b_num, b_den, _, _ = _step(alpha, n)
    return Fraction(b_num, b_den)


def rhs_constant(alpha: RationalLike, n: int) -> Fraction:
    """The exact pi-coefficient  alpha * prod_{k=1..n-1} (1 + alpha/k)  of the
    inequality's right side.

    By construction this is exactly ``1 / beta_int(alpha, n)``; the product
    form is computed independently so the reciprocity law is a real check,
    not a tautology.
    """
    _, _, c_num, c_den = _step(alpha, n)
    return Fraction(c_num, c_den)


def _moment_walk(a: Fraction, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    p, q = a.numerator, a.denominator
    telescoped = q * q  # 1/a^2 over p^2
    for n, (b_num, b_den, _, _) in zip(range(n_max + 1), _products(a)):  # B(a, n+1)
        if n:
            # the shared denominator gains the factor nq+p, and B(a, n+1)/n
            # over it is p * b_num / n = p q^(n+1) (n-1)!, an integer
            telescoped = telescoped * (n * q + p) - p * b_num // n
        yield n, q * b_num, telescoped, p * b_den


def moment_routes(alpha: RationalLike, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """The kernel power moment by both routes, (n, product, telescoped,
    den), for n = 0..n_max: each route's value is its integer over the one
    shared denominator den = p^2 * prod_{k=1..n} (kq+p), alpha = p/q.

    The two routes are kept deliberately separate: the product route is
    the closed form B(alpha, n+1)/alpha, whose numerator is q^(n+2) n!; the
    telescoped route 1/alpha**2 - sum_{m=1..n} B(alpha, m+1)/m integrates
    the family's step-down relation term by term, as the integer walk
    N_n = N_{n-1} (nq+p) - p q^(n+1) (n-1)! from N_0 = q^2.  Their
    agreement is one of the identity checks, an integer equality that
    takes no gcd.  Both read one walk of B, the sum updated as it goes;
    alpha and n_max are admitted before the walk starts.
    """
    return _moment_walk(_admitted(alpha, n_max, 0, "n_max"), n_max)


def reciprocity_routes(alpha: RationalLike, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, den, B(alpha, n) * pi-coefficient(alpha, n) * den, den) for
    n = 1..n_max, from one walk of both products; empty for n_max = 0.

    The product is 1 exactly when the product of the two numerators equals
    the product of the two denominators.  Each side is first divided by
    the gcds of a numerator with the other factor's denominator, so where
    the walks meet (B's numerator is the coefficient's denominator, and
    the other way round) the two products are 1 and 1.
    """
    return _reciprocity_walk(_admitted(alpha, n_max, 0, "n_max"), n_max)


def _reciprocity_walk(a: Fraction, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    for n, (b_num, b_den, c_num, c_den) in zip(range(1, n_max + 1), _products(a)):
        g, h = gcd(b_num, c_den), gcd(c_num, b_den)
        den = (b_den // h) * (c_den // g)
        yield n, den, (b_num // g) * (c_num // h), den


def verify_moment_identity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check product route == telescoped route exactly for every n in 0..n_max."""
    return [target == value for _, target, value, _ in moment_routes(alpha, n_max)]


def verify_reciprocity(alpha: RationalLike, n_max: int) -> list[bool]:
    """Check beta_int * rhs_constant == 1 exactly, n = 1..n_max."""
    a = _admitted(alpha, n_max, 1, "n_max")
    return [target == value for _, target, value, _ in _reciprocity_walk(a, n_max)]
