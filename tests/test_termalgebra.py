"""Closed-form derivative algebra for c(a) * t^(p+2qa) * (1+t^(2a))^(-k) sums."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khabcheck.termalgebra import MixedSum, mixed_diff, mixed_eval


def small_sums():
    # key (k, p, q) with an alpha-row: the term row(alpha)/den * t^(p+2qa) * (1+t^(2a))^(-k)
    key = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 3))
    rows = st.lists(st.tuples(key, st.lists(st.integers(-20, 20), max_size=3)), max_size=4)
    return st.builds(MixedSum, rows, st.integers(1, 12))


def term(k, p, q, *row, den=1):
    """The one-term sum row(alpha)/den * t^(p+2qa) * (1+t^(2a))^(-k)."""
    return MixedSum([((k, p, q), row)], den)


def test_single_term_structure():
    s = term(2, 1, 0, 3, den=2)  # 3/2 * t * (1+t^(2a))^(-2)
    assert (s.rows, s.den) == ((((2, 1, 0), (3,)),), 2)
    # at a = 1/2, t = 1: 3/2 * 1 * 2^-2
    assert mixed_eval(s, 0.5, 1.0) == pytest.approx(0.375, abs=1e-15)


def test_negative_exponents_q_and_k_are_refused():
    for q, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            term(k, 0, q, 1)


def test_terms_with_equal_keys_merge():
    s = term(2, 0, 1, 1) + term(2, 0, 1, 2)
    assert (s.rows, s.den) == ((((2, 0, 1), (3,)),), 1)
    assert MixedSum([((2, 0, 1), [1]), ((2, 0, 1), [0, 1])]) == term(2, 0, 1, 1, 1)


def test_cancellation_produces_empty_sum():
    s = term(1, 1, 1, 1)
    assert (s - s).rows == ()
    assert mixed_eval(s - s, 0.5, 2.0) == 0.0


# -- derivative rule, frozen by hand ----------------------------------------
#
# d/dt [ t^(p+2qa) (1+t^(2a))^(-k) ]
#   = (p+2qa) t^(p-1+2qa) (1+t^(2a))^(-k)  -  2ka t^(p-1+2(q+1)a) (1+t^(2a))^(-k-1)

def test_derivative_of_pure_power():
    s = term(0, 3, 0, 1)  # t^3
    assert s.derivative() == term(0, 2, 0, 3)


def test_derivative_of_weight_reciprocal():
    # d/dt (1+t^(2a))^(-1) = -2a t^(2a-1) (1+t^(2a))^(-2)
    w = term(1, 0, 0, 1)
    assert w.derivative().rows == (((2, -1, 1), (0, -2)),)


def test_second_derivative_of_weight_reciprocal():
    # d2/dt2 (1+t^(2a))^(-1)
    #   = -2a(2a-1) t^(2a-2) (1+t^(2a))^(-2) + 8a^2 t^(4a-2) (1+t^(2a))^(-3)
    # -2a(2a-1) = 2a - 4a^2 and 8a^2, as alpha-rows
    w = term(1, 0, 0, 1)
    second = w.derivative().derivative()
    assert (second.rows, second.den) == ((((2, -2, 1), (0, 2, -4)),
                                          ((3, -2, 2), (0, 0, 8))), 1)


def test_negated_derivative_of_inverse_power_pair():
    # -d/dt [ t^(-1) (1+t^(2a))^(-2) ]
    #   = t^(-2)(1+t^(2a))^(-2) + 4a t^(2a-2) (1+t^(2a))^(-3)
    s = term(2, -1, 0, 1)
    d = -s.derivative()
    assert d == term(2, -2, 0, 1) + term(3, -2, 1, 0, 4)
    # at a = 1/2, t = 1: 1/4 + 2 * (1/8) = 1/2
    assert mixed_eval(d, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_derivative_values():
    # d/dt log(1+t^(2a)) has slope a at t = 1; its negative-reciprocal form:
    w = term(1, 0, 0, 1)
    assert mixed_eval(w.derivative(), 0.5, 1.0) == pytest.approx(-0.25, abs=1e-15)


@given(small_sums(), small_sums())
@settings(max_examples=60)
def test_derivative_is_linear(s, u):
    left = (s + u).derivative()
    right = s.derivative() + u.derivative()
    assert left == right


@given(small_sums(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_derivative_commutes_with_power_shift(s, m):
    # d/dt [ t^m s(t) ] = m t^(m-1) s(t) + t^m s'(t)
    left = s.shift_power(m).derivative()
    right = s.derivative().shift_power(m) + s.scale(F(m)).shift_power(m - 1)
    assert left == right


def test_scale_by_a_fraction():
    # 2(3a + 1) * t^(1+2a) * (1+t^(2a))^(-1), times -5/4: -(5/2)(3a + 1)
    s = term(1, 1, 1, 2, 6).scale(F(-5, 4))
    assert (s.rows, s.den) == ((((1, 1, 1), (-5, -15)),), 2)


def test_mixed_diff_orders():
    s = term(1, 0, 0, 1)
    assert mixed_diff(s, 0) == s
    assert mixed_diff(s, 2) == s.derivative().derivative()
    with pytest.raises(ValueError):
        mixed_diff(s, -1)


def test_finite_differences_match_symbolic_derivative():
    rng = random.Random(20240817)
    w = term(1, 0, 0, 1)
    cases = [w, w.derivative(), term(2, 2, 1, 1, den=3),
             term(3, -1, 0, -2) + term(1, 1, 2, 1)]
    for s in cases:
        ds = s.derivative()
        for _ in range(25):
            alpha = rng.uniform(0.1, 1.5)
            t = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            h = t * 1e-6
            numeric = (mixed_eval(s, alpha, t + h)
                       - mixed_eval(s, alpha, t - h)) / (2 * h)
            symbolic = mixed_eval(ds, alpha, t)
            assert numeric == pytest.approx(symbolic, rel=1e-6, abs=1e-9)


def test_extreme_arguments_do_not_overflow():
    # log-domain evaluation keeps huge t finite (or a clean signed inf)
    s = term(0, 5, 0, 1)
    assert mixed_eval(s, 0.5, 1e300) == math.inf
    decaying = term(2, 0, 0, 1)
    assert mixed_eval(decaying, 2.0, 1e200) == 0.0
    assert mixed_eval(decaying, 2.0, 1e-200) == pytest.approx(1.0)


def test_overflowing_terms_of_both_signs_sum_to_nan():
    # +inf and -inf terms have no sum; the result is NaN, not a ValueError
    s = term(0, 5, 0, 1) - term(0, 6, 0, 1)
    assert math.isnan(mixed_eval(s, 0.5, 1e300))
