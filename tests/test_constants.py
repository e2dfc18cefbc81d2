"""Beta-product constants, moment identities, and the extremal density."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khabcheck import constants
from khabcheck.constants import (
    beta_int,
    moment_routes,
    reciprocity_routes,
    rhs_constant,
    verify_moment_identity,
    verify_reciprocity,
)
from khabcheck.quadrature import extremal_density_fn


def test_beta_int_frozen_values():
    assert beta_int(F(1, 2), 1) == 2
    assert beta_int(F(1, 2), 2) == F(4, 3)
    assert beta_int(F(1, 2), 3) == F(16, 15)
    assert beta_int(F(2), 1) == F(1, 2)
    assert beta_int(F(2), 3) == F(1, 12)


@pytest.mark.parametrize("n", range(1, 9))
def test_beta_int_at_alpha_one_is_reciprocal(n):
    assert beta_int(F(1), n) == F(1, n)


def test_beta_int_recurrence():
    # B(a, n+1) = B(a, n) * n / (n + a)
    a = F(3, 7)
    for n in range(1, 12):
        assert beta_int(a, n + 1) == beta_int(a, n) * n / (n + a)


def test_beta_int_matches_gamma_ratio():
    # B(a, n) = Gamma(a) Gamma(n) / Gamma(a + n), checked in floating point
    for a in (0.25, 0.5, 1.5, 2.75):
        for n in (1, 2, 5, 9):
            expected = (math.gamma(a) * math.gamma(n)) / math.gamma(a + n)
            assert float(beta_int(F(a), n)) == pytest.approx(expected, rel=1e-12)


def test_rhs_constant_frozen_values():
    assert rhs_constant(F(1, 2), 2) == F(3, 4)
    assert rhs_constant(F(1), 1) == 1
    assert rhs_constant(F(1), 3) == 3


def test_rhs_constant_is_independent_product_form():
    # a * prod_{k<n} (1 + a/k) rather than 1 / B(a, n): reciprocity is a
    # genuine cross-check between two pi-coefficient routes, not a tautology
    a = F(2, 5)
    expected = a
    for k in range(1, 6):
        expected *= 1 + a / k
    assert rhs_constant(a, 6) == expected


@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(1), F(5, 3), F(3)])
def test_reciprocity(alpha):
    assert verify_reciprocity(alpha, 12)
    for n in range(1, 13):
        assert rhs_constant(alpha, n) * beta_int(alpha, n) == 1


def test_moment_routes_agree_exactly():
    for alpha in (F(1, 3), F(1, 2), F(7, 4)):
        routes = list(moment_routes(alpha, 12))
        assert len(routes) == 13
        p, q = alpha.numerator, alpha.denominator
        for n, (m, product, telescoped, den) in enumerate(routes):
            assert m == n
            # alpha = p/q: q^(n+2) n! over the shared p^2 prod_{k<=n} (kq+p)
            assert den == p * p * math.prod(k * q + p for k in range(1, n + 1))
            assert product == q ** (n + 2) * math.factorial(n)
            assert F(product, den) == beta_int(alpha, n + 1) / alpha
            assert product == telescoped


def _product_moment(alpha, n):
    """The kernel power moment B(alpha, n+1)/alpha, as ``moment_routes`` yields it."""
    _, product, _, den = list(moment_routes(alpha, n))[n]
    return F(product, den)


def test_kernel_power_moment_frozen_values():
    # integral of -log(x) * x^(a-1) over (0,1) is 1/a^2
    assert _product_moment(F(1, 2), 0) == 4
    assert _product_moment(F(1), 0) == 1
    assert _product_moment(F(1, 2), 1) == F(8, 3)


def test_verify_moment_identity_randomized():
    rng = random.Random(91)
    for _ in range(20):
        den = rng.randint(1, 40)
        num = rng.randint(1, 3 * den)
        alpha = F(num, den)
        assert all(verify_moment_identity(alpha, 10))


def test_moment_matches_quadrature():
    # numeric cross-check of the exact telescoping against direct integration
    from khabcheck.kernel import kernel_eval
    from khabcheck.quadrature import integrate_unit_interval

    for alpha, n in ((F(1, 2), 0), (F(1, 2), 3), (F(3, 4), 2)):
        a = float(alpha)
        res = integrate_unit_interval(
            lambda x: kernel_eval(n, x) * x ** (a - 1.0),
            power_at_zero=a - 1.0,
        )
        assert res.converged
        assert res.value == pytest.approx(float(_product_moment(alpha, n)), rel=1e-9)


# -- integer products against step-by-step Fraction loops -------------------------

def _beta_by_fractions(a, n):
    value = 1 / a
    for k in range(1, n):
        value *= F(k) / (k + a)
    return value


def _rhs_by_fractions(a, n):
    coeff = a
    for k in range(1, n):
        coeff *= 1 + a / k
    return coeff


# alpha = p/q with p, q in 1..10^6 spans [1e-6, 1e6]
extreme_alphas = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))


@given(extreme_alphas, st.integers(0, 30))
@example(F(1, 10**6), 30)
@example(F(10**6), 30)
@settings(max_examples=80, deadline=None)
def test_integer_products_equal_fraction_loops(alpha, n):
    if n >= 1:
        assert beta_int(alpha, n) == _beta_by_fractions(alpha, n)
        assert rhs_constant(alpha, n) == _rhs_by_fractions(alpha, n)
    product = _beta_by_fractions(alpha, n + 1) / alpha
    telescoped = 1 / (alpha * alpha)
    for m in range(1, n + 1):
        telescoped -= _beta_by_fractions(alpha, m + 1) / m
    m, product_num, telescoped_num, den = list(moment_routes(alpha, n))[n]
    assert (m, F(product_num, den), F(telescoped_num, den)) == (n, product, telescoped)


@pytest.mark.parametrize("alpha", [F(1, 2), F(23, 97), F(7, 3), F(1, 10**6), F(1, 10**160),
                                   F(5)])
def test_telescoped_values_equal_the_restarted_sums(alpha):
    values = [F(telescoped, den) for _, _, telescoped, den in moment_routes(alpha, 30)]
    assert len(values) == 31
    for n, value in enumerate(values):
        restarted = 1 / (alpha * alpha) - sum(
            (beta_int(alpha, m + 1) / m for m in range(1, n + 1)), F(0))
        assert value == restarted
    assert verify_moment_identity(alpha, 30) == [True] * 31


# -- the walks against the products restarted from k = 1 for every n ----------------

def _restarted_beta(a, n):
    p, q = a.numerator, a.denominator
    num, den = q, p
    for k in range(1, n):
        num *= k * q
        den *= k * q + p
    return F(num, den)


def _restarted_coefficient(a, n):
    p, q = a.numerator, a.denominator
    num, den = p, q
    for k in range(1, n):
        num *= k * q + p
        den *= k * q
    return F(num, den)


@pytest.mark.parametrize("alpha", [F(1, 10**160), F(1, 3), F(1000, 4099), F(5), F(7, 3)])
def test_walks_equal_the_restarted_products(alpha):
    moments = list(moment_routes(alpha, 60))
    reciprocity = list(reciprocity_routes(alpha, 60))
    assert [n for n, _, _, _ in moments] == list(range(61))
    assert [n for n, _, _, _ in reciprocity] == list(range(1, 61))
    telescoped = 1 / (alpha * alpha)
    for n, product, value, den in moments:
        if n:
            telescoped -= _restarted_beta(alpha, n + 1) / n
        assert F(product, den) == _restarted_beta(alpha, n + 1) / alpha
        assert F(value, den) == telescoped
    for n, target, value, den in reciprocity:
        assert target == den
        assert F(value, den) == _restarted_beta(alpha, n) * _restarted_coefficient(alpha, n)
    for n in range(1, 61):
        assert beta_int(alpha, n) == _restarted_beta(alpha, n)
        assert rhs_constant(alpha, n) == _restarted_coefficient(alpha, n)


def test_walks_read_no_one_point_product(monkeypatch):
    def refused(alpha, n):
        raise AssertionError("a walk restarted a product")

    monkeypatch.setattr(constants, "beta_int", refused)
    monkeypatch.setattr(constants, "rhs_constant", refused)
    alpha = F(2, 7)
    assert len(list(moment_routes(alpha, 20))) == 21
    assert len(list(reciprocity_routes(alpha, 20))) == 20
    assert verify_moment_identity(alpha, 20) == [True] * 21
    assert verify_reciprocity(alpha, 20) == [True] * 20


def test_reciprocity_routes_at_n_max_zero_is_empty():
    assert list(reciprocity_routes(F(1, 2), 0)) == []
    assert list(reciprocity_routes(F(1, 2), 1)) == [(1, 1, 1, 1)]


def test_identity_checks_refuse_an_empty_index_range():
    # all([]) is True, so an empty list would read as a pass
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        verify_moment_identity(F(1, 2), -1)
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        moment_routes(F(1, 2), -1)  # refused when called, before any walk
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        reciprocity_routes(F(1, 2), -1)  # refused when called, before any walk
    with pytest.raises(ValueError, match="^n_max must be >= 1$"):
        verify_reciprocity(F(1, 2), 0)
    # alpha is admitted first
    with pytest.raises(TypeError):
        verify_moment_identity(0.5, -1)
    with pytest.raises(TypeError):
        moment_routes(0.5, -1)
    with pytest.raises(TypeError):
        reciprocity_routes(0.5, -1)
    with pytest.raises(TypeError):
        verify_reciprocity(0.5, 0)
    assert verify_moment_identity(F(1, 2), 0) == [True]
    assert verify_reciprocity(F(1, 2), 1) == [True]


def test_extremal_density_frozen_values():
    assert extremal_density_fn(F(1, 2), 1).evaluator(1.0) == pytest.approx(0.25, abs=1e-15)
    assert extremal_density_fn(F(1, 2), 2).evaluator(4.0) == pytest.approx(3.0 / 16.0,
                                                                           abs=1e-15)
    # a * t^(a-1) / B(a, n) with a = 1, n = 2 gives the constant 2
    assert extremal_density_fn(F(1), 2).evaluator(123.0) == pytest.approx(2.0)


def test_extremal_density_scales_like_power():
    a, n = F(1, 3), 3
    for t in (0.1, 1.0, 7.0):
        q = extremal_density_fn(a, n).evaluator
        ratio = q(2.0 * t) / q(t)
        assert ratio == pytest.approx(2.0 ** (float(a) - 1.0), rel=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError):
        beta_int(F(0), 1)
    with pytest.raises(ValueError):
        beta_int(F(-1, 2), 2)
    with pytest.raises(ValueError):
        beta_int(F(1, 2), 0)
    with pytest.raises(ValueError):
        rhs_constant(F(1, 2), 0)
    with pytest.raises(ValueError):
        moment_routes(F(1, 2), -1)
