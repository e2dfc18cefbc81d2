"""Transition family: polynomial recurrence, stable evaluation, derivative oracle."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khabcheck.exact import ALPHA, Z, ZPolynomial
from khabcheck.termalgebra import mixed_eval
from khabcheck.transition import (
    PhiFamily,
    asymptotic_check,
    log_weight,
    log_weight_derivatives,
    oracle_equiv_check,
    transition_eval,
    transition_evaluator,
    transition_oracle,
    transition_poly,
    transition_via_base_derivatives,
)


# -- exact polynomial layer --------------------------------------------------

def test_first_polynomials_match_hand_expansion():
    assert transition_poly(0) == ZPolynomial.constant(1)
    assert transition_poly(1) == (2 * ALPHA + 1) * Z + (1 - 2 * ALPHA)

    # expanded by hand from one recurrence step applied to the degree-1 case
    a = ALPHA
    p2 = ((2 * a + 1) * (a + 1) * Z * Z
          + (1 - 2 * a) * (2 * a + 1) * Z * 2
          + (1 - 2 * a) * (1 - a))
    assert transition_poly(2) == p2


def test_degree_equals_index():
    for n in range(9):
        assert transition_poly(n).degree == n


@pytest.mark.parametrize("n", range(11))
def test_half_alpha_collapses_to_monomial(n):
    # at a = 1/2 the whole polynomial collapses onto its top coefficient
    assert transition_poly(n).specialize(F(1, 2)) == ((F(0),) * n + (F(n + 1),))


def test_leading_and_constant_coefficients_closed_form():
    for n in range(1, 11):
        lead = transition_poly(n).leading_coeff
        const = transition_poly(n).constant_term
        lead_expected = ZPolynomial.constant(1).leading_coeff  # the 1-poly
        const_expected = lead_expected
        for k in range(1, n + 1):
            lead_expected = lead_expected * (1 + F(2, k) * ALPHA)
            const_expected = const_expected * (1 - F(2, k) * ALPHA)
        assert lead == lead_expected
        assert const == const_expected


def _rational_recurrence(n_max):
    """P_0..P_n_max by the recurrence over Q[alpha][z], as a reference."""
    polys = [ZPolynomial.constant(1)]
    for n in range(1, n_max + 1):
        prev = polys[-1]
        linear = (2 * ALPHA + 1) * Z + (1 - F(2, n) * ALPHA)
        damping = F(1, n) * 2 * ALPHA * (Z * Z + Z)
        polys.append(linear * prev - damping * prev.diff_z())
    return polys


def test_integer_recurrence_matches_rational_recurrence():
    for n, expected in enumerate(_rational_recurrence(30)):
        assert transition_poly(n) == expected, n


def test_polynomial_cache_returns_identical_objects():
    assert transition_poly(5) is transition_poly(5)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        transition_poly(-1)
    with pytest.raises(ValueError):
        transition_eval(-1, F(1, 2), 1.0)


# -- float evaluation ---------------------------------------------------------

def test_frozen_point_values():
    assert transition_eval(0, F(1, 2), 1.0) == pytest.approx(0.25, abs=1e-15)
    assert transition_eval(1, F(1, 2), 1.0) == pytest.approx(0.25, abs=1e-15)
    assert transition_eval(3, F(1, 2), 2.0) == pytest.approx(32.0 / 243.0,
                                                             rel=1e-14)


@pytest.mark.parametrize("n", range(7))
def test_half_alpha_has_elementary_closed_form(n):
    # (n+1) t^n / (1+t)^(n+2)
    for t in (0.05, 0.5, 1.0, 3.0, 40.0):
        expected = (n + 1) * t ** n / (1.0 + t) ** (n + 2)
        assert transition_eval(n, F(1, 2), t) == pytest.approx(expected,
                                                               rel=1e-12)


def test_evaluator_matches_pointwise_calls():
    phi = transition_evaluator(4, F(1, 3))
    for t in (0.01, 0.7, 13.0):
        assert phi(t) == transition_eval(4, F(1, 3), t)


def test_extreme_arguments_stay_finite_and_positive():
    for n in (0, 3, 8):
        for t in (1e-280, 1e-12, 1e12, 1e280):
            v = transition_eval(n, F(1, 4), t)
            assert math.isfinite(v)
            assert v >= 0.0


def test_overflowing_power_takes_the_asymptotic_branch():
    # t^(2a) overflows a float here; Phi ~ 4 a^2 lead(P_n)(a) t^(-1-2a)
    assert transition_eval(2, F(3), 1e120) == 0.0
    t = 10.0 ** 3.1
    lead = float(transition_poly(1).leading_coeff(F(50)))
    expected = math.exp(math.log(4 * 50.0 ** 2 * lead) - 101.0 * math.log(t))
    assert transition_eval(1, F(50), t) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_non_positive_or_non_finite_t_is_rejected(t):
    with pytest.raises(ValueError):
        transition_eval(3, F(1, 4), t)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 20),
       alpha=st.fractions(min_value=F(1, 256), max_value=8, max_denominator=4099),
       t=st.floats(min_value=1e-300, max_value=1e300))
def test_evaluation_is_finite_over_the_supported_range(n, alpha, t):
    assert math.isfinite(transition_eval(n, alpha, t))


# -- log-weight and the derivative oracle ------------------------------------

def test_log_weight_values_and_symmetry():
    assert log_weight(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    # w(t) + w(1/t) = -2a log t  rearranges the shared factor exactly
    for t in (0.3, 2.0, 50.0):
        a = 0.7
        lhs = log_weight(t, a) - log_weight(1.0 / t, a)
        assert lhs == pytest.approx(-2.0 * a * math.log(t), rel=1e-13)


def test_log_weight_is_stable_for_huge_arguments():
    # naive log(1 + t^(-2a)) underflows; the stable form keeps the tail
    v = log_weight(1e200, 0.5)
    assert v == pytest.approx(1e-200, rel=1e-12)


def test_log_weight_derivative_seed():
    derivs = log_weight_derivatives(3)
    a, t = 0.5, 2.0
    h = t * 1e-7
    numeric = (log_weight(t + h, a) - log_weight(t - h, a)) / (2 * h)
    assert mixed_eval(derivs[0], a, t) == pytest.approx(numeric, rel=1e-7)
    # first derivative at t = 1 is -a
    assert mixed_eval(derivs[0], 0.5, 1.0) == pytest.approx(-0.5, abs=1e-15)


def test_oracle_base_case_structure():
    (term,) = transition_oracle(0).terms
    assert term.coeff == 4 * ALPHA * ALPHA
    assert (term.p, term.q, term.k) == (-1, 1, 2)
    # at a = 1/2 this is 1/(1+t)^2
    for t in (0.2, 1.0, 9.0):
        assert mixed_eval(transition_oracle(0), 0.5, t) == pytest.approx(
            1.0 / (1.0 + t) ** 2, rel=1e-14)


def test_oracle_agrees_with_polynomial_route():
    report = oracle_equiv_check(
        n_max=5,
        alpha_samples=(F(1, 4), F(1, 2), F(4, 5)),
        t_samples=(0.01, 0.3, 1.0, 4.0, 250.0),
        rel_tol=1e-10,
    )
    assert report.passed
    assert report.failures == ()
    assert report.checked == 6 * 3 * 5


def test_step_recurrence_via_finite_differences():
    # each family member is -(t^n / n) d/dt [ previous * t^(1-n) ]
    for n in (1, 2, 4):
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            for t in (0.3, 1.0, 3.0):
                h = t * 1e-6

                def scaled(u, _n=n, _a=alpha):
                    return transition_eval(_n - 1, _a, u) * u ** (1 - _n)

                slope = (scaled(t + h) - scaled(t - h)) / (2 * h)
                expected = -(t ** n / n) * slope
                got = transition_eval(n, alpha, t)
                assert got == pytest.approx(expected, rel=1e-5)


def test_alternative_shortcut_disagrees_beyond_base_case():
    """The tempting shortcut (scaled n-th derivatives of the base member)
    matches at n = 0 but is NOT the same family from n = 1 on; the gap is
    macroscopic and documented in the design notes."""
    # base case: exact agreement
    for t in (0.5, 1.0, 2.0):
        assert mixed_eval(transition_via_base_derivatives(0), 0.5, t) == (
            pytest.approx(transition_eval(0, F(1, 2), t), rel=1e-14))
    # first step: off by a factor 2 at this point (2/27 versus 4/27)
    shortcut = mixed_eval(transition_via_base_derivatives(1), 0.5, 2.0)
    true_value = transition_eval(1, F(1, 2), 2.0)
    assert true_value == pytest.approx(4.0 / 27.0, rel=1e-14)
    assert shortcut == pytest.approx(2.0 / 27.0, rel=1e-12)
    assert abs(shortcut - true_value) > 1e-2


# -- asymptotic sanity ---------------------------------------------------------

def test_asymptotic_report_small_and_large_t():
    rep = asymptotic_check(0, F(1, 2), omega=F(1, 10))
    assert rep.passed
    assert rep.large_t_ok and rep.small_t_ok
    rep2 = asymptotic_check(2, F(1, 4), omega=F(1))
    assert rep2.passed
    # the scaled large-t samples approach 4 a^2 |leading coefficient|
    lead = transition_poly(2).leading_coeff(F(1, 4))
    assert rep2.large_t_limit == pytest.approx(4 * 0.25 ** 2 * float(lead))


def test_family_builder_and_validation():
    fam = PhiFamily.build(F(1, 2), max_n=4)
    assert fam.max_n == 4
    assert len(fam.polys) == 5
    assert fam.validate((0.1, 1.0, 10.0), rel_tol=1e-10)
    phi2 = fam.evaluator(2)
    assert phi2(1.0) == pytest.approx(transition_eval(2, F(1, 2), 1.0))
    with pytest.raises(ValueError):
        fam.evaluator(5)
