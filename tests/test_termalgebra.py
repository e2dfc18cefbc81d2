"""Closed-form derivative algebra for c(a) * t^(p+2qa) * (1+t^(2a))^(-k) sums."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khabcheck.exact import ALPHA, AlphaPolynomial
from khabcheck.termalgebra import MixedSum, MixedTerm, mixed_diff, mixed_eval

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def small_sums():
    term = st.tuples(
        small_fractions,
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
    )
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (MixedSum.single(c, p, q, k) for c, p, q, k in ts),
            MixedSum(),
        ))


def test_single_term_structure():
    s = MixedSum.single(F(3, 2), p=1, q=0, k=2)
    (term,) = s.terms
    assert term.coeff == AlphaPolynomial.constant(F(3, 2))
    assert (term.p, term.q, term.k) == (1, 0, 2)


def test_negative_exponents_q_and_k_are_refused():
    for q, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            MixedSum.single(1, 0, q, k)


def test_terms_with_equal_keys_merge():
    s = MixedSum.single(1, 0, 1, 2) + MixedSum.single(2, 0, 1, 2)
    (term,) = s.terms
    assert term.coeff == AlphaPolynomial.constant(F(3))


def test_cancellation_produces_empty_sum():
    s = MixedSum.single(1, 1, 1, 1)
    assert (s - s).terms == ()
    assert mixed_eval(s - s, 0.5, 2.0) == 0.0


# -- derivative rule, frozen by hand ----------------------------------------
#
# d/dt [ t^(p+2qa) (1+t^(2a))^(-k) ]
#   = (p+2qa) t^(p-1+2qa) (1+t^(2a))^(-k)  -  2ka t^(p-1+2(q+1)a) (1+t^(2a))^(-k-1)

def test_derivative_of_pure_power():
    s = MixedSum.single(1, p=3, q=0, k=0)
    (term,) = s.derivative().terms
    assert term.coeff == AlphaPolynomial.constant(F(3))
    assert (term.p, term.q, term.k) == (2, 0, 0)


def test_derivative_of_weight_reciprocal():
    # d/dt (1+t^(2a))^(-1) = -2a t^(2a-1) (1+t^(2a))^(-2)
    w = MixedSum.single(1, p=0, q=0, k=1)
    (term,) = w.derivative().terms
    assert term.coeff == -2 * ALPHA
    assert (term.p, term.q, term.k) == (-1, 1, 2)


def test_second_derivative_of_weight_reciprocal():
    # d2/dt2 (1+t^(2a))^(-1)
    #   = -2a(2a-1) t^(2a-2) (1+t^(2a))^(-2) + 8a^2 t^(4a-2) (1+t^(2a))^(-3)
    w = MixedSum.single(1, p=0, q=0, k=1)
    terms = {(t.p, t.q, t.k): t.coeff for t in w.derivative().derivative().terms}
    assert terms == {
        (-2, 1, 2): -2 * ALPHA * (2 * ALPHA - 1),
        (-2, 2, 3): 8 * ALPHA * ALPHA,
    }


def test_negated_derivative_of_inverse_power_pair():
    # -d/dt [ t^(-1) (1+t^(2a))^(-2) ]
    #   = t^(-2)(1+t^(2a))^(-2) + 4a t^(2a-2) (1+t^(2a))^(-3)
    s = MixedSum.single(1, p=-1, q=0, k=2)
    d = -s.derivative()
    terms = {(t.p, t.q, t.k): t.coeff for t in d.terms}
    assert terms == {
        (-2, 0, 2): AlphaPolynomial.constant(F(1)),
        (-2, 1, 3): 4 * ALPHA,
    }
    # at a = 1/2, t = 1: 1/4 + 2 * (1/8) = 1/2
    assert mixed_eval(d, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_derivative_values():
    # d/dt log(1+t^(2a)) has slope a at t = 1; its negative-reciprocal form:
    w = MixedSum.single(1, p=0, q=0, k=1)
    assert mixed_eval(w.derivative(), 0.5, 1.0) == pytest.approx(-0.25, abs=1e-15)


@given(small_sums(), small_sums())
@settings(max_examples=60)
def test_derivative_is_linear(s, u):
    left = (s + u).derivative()
    right = s.derivative() + u.derivative()
    assert left.terms == right.terms


@given(small_sums(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_derivative_commutes_with_power_shift(s, m):
    # d/dt [ t^m s(t) ] = m t^(m-1) s(t) + t^m s'(t)
    left = s.shift_power(m).derivative()
    right = s.derivative().shift_power(m) + s.scale(F(m)).shift_power(m - 1)
    assert left.terms == right.terms


def test_scale_by_a_fraction():
    s = MixedSum.single(2 * (3 * ALPHA + 1), 1, 1, 1).scale(F(-5, 4))
    (term,) = s.terms
    assert term.coeff == F(-5, 2) * (3 * ALPHA + 1)
    assert (s.rows, s.den) == ((((1, 1, 1), (-5, -15)),), 2)


def test_mixed_diff_orders():
    s = MixedSum.single(1, 0, 0, 1)
    assert mixed_diff(s, 0).terms == s.terms
    assert mixed_diff(s, 2).terms == s.derivative().derivative().terms
    with pytest.raises(ValueError):
        mixed_diff(s, -1)


def test_finite_differences_match_symbolic_derivative():
    rng = random.Random(20240817)
    w = MixedSum.single(1, p=0, q=0, k=1)
    cases = [w, w.derivative(), MixedSum.single(F(1, 3), 2, 1, 2),
             MixedSum.single(-2, -1, 0, 3) + MixedSum.single(1, 1, 2, 1)]
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
    s = MixedSum.single(1, p=5, q=0, k=0)
    assert mixed_eval(s, 0.5, 1e300) == math.inf
    decaying = MixedSum.single(1, p=0, q=0, k=2)
    assert mixed_eval(decaying, 2.0, 1e200) == 0.0
    assert mixed_eval(decaying, 2.0, 1e-200) == pytest.approx(1.0)


def test_overflowing_terms_of_both_signs_sum_to_nan():
    # +inf and -inf terms have no sum; the result is NaN, not a ValueError
    s = MixedSum.single(1, p=5, q=0, k=0) - MixedSum.single(1, p=6, q=0, k=0)
    assert math.isnan(mixed_eval(s, 0.5, 1e300))
