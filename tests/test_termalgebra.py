"""Closed-form derivative algebra for c(a) * t^(p+2qa) * (1+t^(2a))^(-k) sums."""

import math
import random
import struct
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khabcheck.termalgebra import MixedSum, mixed_eval, mixed_evaluator


def small_sums():
    # key (k, p, q) with an alpha-row: the term row(alpha)/den * t^(p+2qa) * (1+t^(2a))^(-k)
    key = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 3))
    rows = st.lists(st.tuples(key, st.lists(st.integers(-20, 20), max_size=3)), max_size=4)
    return st.builds(MixedSum, rows, st.integers(1, 12))


def term(k, p, q, *row, den=1):
    """The one-term sum row(alpha)/den * t^(p+2qa) * (1+t^(2a))^(-k)."""
    return MixedSum([((k, p, q), row)], den)


def plus(*sums):
    """The sum of mixed sums: the constructor given all their rows over a
    common denominator, where it merges equal keys."""
    den = math.lcm(*(s.den for s in sums))
    return MixedSum([(key, [x * (den // s.den) for x in row])
                     for s in sums for key, row in s.rows], den)


def scaled(s, f):
    """f * s for a rational f, rebuilt through the constructor."""
    f = F(f)
    return MixedSum([(key, [f.numerator * x for x in row]) for key, row in s.rows],
                    s.den * f.denominator)


def minus(s, u):
    return plus(s, scaled(u, -1))


def shifted(s, m):
    """t**m * s, rebuilt through the constructor."""
    return MixedSum([((k, p + m, q), row) for (k, p, q), row in s.rows], s.den)


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
    s = plus(term(2, 0, 1, 1), term(2, 0, 1, 2))
    assert (s.rows, s.den) == ((((2, 0, 1), (3,)),), 1)
    assert MixedSum([((2, 0, 1), [1]), ((2, 0, 1), [0, 1])]) == term(2, 0, 1, 1, 1)


def test_cancellation_produces_empty_sum():
    s = term(1, 1, 1, 1)
    assert minus(s, s).rows == ()
    assert mixed_eval(minus(s, s), 0.5, 2.0) == 0.0


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
    d = scaled(s.derivative(), -1)
    assert d == plus(term(2, -2, 0, 1), term(3, -2, 1, 0, 4))
    # at a = 1/2, t = 1: 1/4 + 2 * (1/8) = 1/2
    assert mixed_eval(d, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_derivative_values():
    # d/dt log(1+t^(2a)) has slope a at t = 1; its negative-reciprocal form:
    w = term(1, 0, 0, 1)
    assert mixed_eval(w.derivative(), 0.5, 1.0) == pytest.approx(-0.25, abs=1e-15)


@given(small_sums(), small_sums())
@settings(max_examples=60)
def test_derivative_is_linear(s, u):
    left = plus(s, u).derivative()
    right = plus(s.derivative(), u.derivative())
    assert left == right


@given(small_sums(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_derivative_commutes_with_power_shift(s, m):
    # d/dt [ t^m s(t) ] = m t^(m-1) s(t) + t^m s'(t)
    left = shifted(s, m).derivative()
    right = plus(shifted(s.derivative(), m), shifted(scaled(s, m), m - 1))
    assert left == right


def test_finite_differences_match_symbolic_derivative():
    rng = random.Random(20240817)
    w = term(1, 0, 0, 1)
    cases = [w, w.derivative(), term(2, 2, 1, 1, den=3),
             plus(term(3, -1, 0, -2), term(1, 1, 2, 1))]
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
    s = minus(term(0, 5, 0, 1), term(0, 6, 0, 1))
    assert math.isnan(mixed_eval(s, 0.5, 1e300))


# -- canonical form kept without rebuilding -----------------------------------

def _rebuilt(s):
    """The sum the generic constructor makes of ``s``'s own rows and den."""
    return MixedSum(s.rows, s.den)


def _same(s):
    # equal as data, with tuple rows of ints, as the constructor leaves them
    r = _rebuilt(s)
    return ((s.rows, s.den) == (r.rows, r.den)
            and all(type(row) is tuple and all(type(x) is int for x in row)
                    for _, row in s.rows))


@given(small_sums())
@settings(max_examples=150)
def test_operations_return_what_the_constructor_rebuilds(s):
    assert _same(s.derivative())


# -- float view: built once per (sum, alpha) ----------------------------------

def _mixed_eval_reference(s, alpha, t):
    """mixed_eval as it was before the float view was split from t."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    beta = 2.0 * alpha
    log_t = math.log(t)
    bl = beta * log_t
    if bl > 0.0:
        log_base = bl + math.log1p(math.exp(-bl))
    else:
        log_base = math.log1p(math.exp(bl))
    values = []
    for (k, p, q), row in s.rows:
        cf = 0.0
        for x in reversed(row):
            cf = cf * alpha + x / s.den
        if cf == 0.0:
            continue
        log_mag = math.log(abs(cf)) + (p + q * beta) * log_t - k * log_base
        sign = 1.0 if cf > 0.0 else -1.0
        values.append(sign * math.inf if log_mag > 709.0 else sign * math.exp(log_mag))
    try:
        return math.fsum(values)
    except ValueError:
        return math.nan


def _bits(x):
    return struct.pack("<d", x)


TS = (1e-300, 1e-9, 0.3, 1.0, 2.5, 1e9, 1e300, math.inf, math.nan)


@given(small_sums(), st.floats(0.01, 60.0))
@example(term(0, 5, 0, -1), 0.5)  # -inf at t = 1e300
@example(minus(term(0, 5, 0, 1), term(0, 6, 0, 1)), 0.5)  # inf - inf: NaN at t = 1e300
@settings(max_examples=150)
def test_evaluator_matches_the_one_point_reference_bit_for_bit(s, alpha):
    f = mixed_evaluator(s, alpha)
    for t in TS:
        want = _bits(_mixed_eval_reference(s, alpha, t))
        assert _bits(f(t)) == want
        assert _bits(mixed_eval(s, alpha, t)) == want
    for t in (0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="^t must be positive$"):
            f(t)

