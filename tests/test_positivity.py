"""Positivity verdicts on (0, infinity): exact certificates and witnesses."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khabcheck.positivity import (
    QuadraticCoeffs,
    Status,
    alpha_threshold,
    coeffs_nonneg_on_pos,
    poly_nonneg_on_pos,
    quad_nonneg,
    region_scan,
)
from khabcheck.transition import transition_poly


# -- quadratic criterion -------------------------------------------------------

def test_quadratic_nonnegative_with_touching_root():
    v = quad_nonneg(QuadraticCoeffs(F(1), F(-2), F(1)))  # (z-1)^2
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "criterion-case-1"


def test_quadratic_negative_has_exact_witness():
    v = quad_nonneg(QuadraticCoeffs(F(1), F(-3), F(1)))
    assert v.status is Status.NEGATIVE
    assert v.witness == F(3, 2)
    assert v.witness_value == F(-5, 4)
    # the witness is exact: re-evaluating reproduces the negative value
    q = QuadraticCoeffs(F(1), F(-3), F(1))
    assert q.eval(v.witness) == v.witness_value < 0


def test_quadratic_degenerate_cases():
    # no quadratic term, positive slope and intercept
    v = quad_nonneg(QuadraticCoeffs(F(0), F(9, 5), F(1, 5)))
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "criterion-case-3"
    # negative slope alone eventually wins
    v2 = quad_nonneg(QuadraticCoeffs(F(0), F(-1), F(10)))
    assert v2.status is Status.NEGATIVE
    assert F(0) < v2.witness
    assert v2.witness_value < 0
    # constants
    assert quad_nonneg(QuadraticCoeffs(F(0), F(0), F(2))).status is Status.NONNEGATIVE
    assert quad_nonneg(QuadraticCoeffs(F(0), F(0), F(-2))).status is Status.NEGATIVE


def test_quadratic_negative_leading_coefficient():
    v = quad_nonneg(QuadraticCoeffs(F(-1), F(5), F(100)))
    assert v.status is Status.NEGATIVE
    assert QuadraticCoeffs(F(-1), F(5), F(100)).eval(v.witness) < 0


def test_random_quadratics_verdicts_are_sound():
    rng = random.Random(4242)
    sample_points = [F(k, 10) for k in range(1, 1001)]
    nonneg_seen = neg_seen = 0
    for _ in range(500):
        q = QuadraticCoeffs(
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
            F(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        v = quad_nonneg(q)
        if v.status is Status.NEGATIVE:
            neg_seen += 1
            assert v.witness > 0
            assert q.eval(v.witness) == v.witness_value < 0
        else:
            nonneg_seen += 1
            assert all(q.eval(z) >= 0 for z in sample_points)
    # the seeded stream must exercise both branches
    assert nonneg_seen > 50 and neg_seen > 50


def test_general_route_agrees_with_quadratic_criterion():
    rng = random.Random(77)
    for _ in range(200):
        coeffs = (
            F(rng.randint(-6, 6), rng.randint(1, 6)),
            F(rng.randint(-6, 6), rng.randint(1, 6)),
            F(rng.randint(-6, 6), rng.randint(1, 6)),
        )
        via_quad = quad_nonneg(QuadraticCoeffs(coeffs[2], coeffs[1], coeffs[0]))
        via_general = coeffs_nonneg_on_pos(coeffs)
        assert via_quad.status is via_general.status
        if via_general.status is Status.NEGATIVE:
            c, b, a2 = coeffs
            w = via_general.witness
            assert a2 * w * w + b * w + c < 0


# -- general degree: Sturm route -----------------------------------------------

def test_all_nonnegative_coefficients_fast_path():
    v = coeffs_nonneg_on_pos((F(1), F(0), F(3)))
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "all-coefficients-nonnegative"


def test_strictly_positive_quartic_has_no_positive_root():
    # z^2 - z + 1 > 0 everywhere; Sturm confirms no root on (0, bound]
    v = coeffs_nonneg_on_pos((F(1), F(-1), F(1)))
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "sturm-no-positive-root"


def test_touching_roots_with_even_multiplicity():
    # (z-1)^2 (z^2+1) touches zero at z = 1 without crossing
    coeffs = (F(1), F(-2), F(2), F(-2), F(1))
    v = coeffs_nonneg_on_pos(coeffs)
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "sturm-even-multiplicity"


def test_simple_crossing_is_detected_with_witness():
    # (z-1)(z-2)(z-3) dips negative on (1,2) and (0,1) tails
    coeffs = (F(-6), F(11), F(-6), F(1))
    v = coeffs_nonneg_on_pos(coeffs)
    assert v.status is Status.NEGATIVE
    w = v.witness
    value = sum(c * w ** i for i, c in enumerate(coeffs))
    assert value == v.witness_value < 0
    assert w > 0


def test_zero_polynomial_is_nonnegative():
    assert coeffs_nonneg_on_pos((F(0),)).status is Status.NONNEGATIVE
    assert coeffs_nonneg_on_pos(()).status is Status.NONNEGATIVE


def test_monomial_factor_is_stripped():
    # z^3 (z - 2)^2 is nonnegative although low coefficients vanish
    coeffs = (F(0), F(0), F(0), F(4), F(-4), F(1))
    assert coeffs_nonneg_on_pos(coeffs).status is Status.NONNEGATIVE


def test_negative_leading_coefficient_witness():
    v = coeffs_nonneg_on_pos((F(100), F(0), F(0), F(-1)))
    assert v.status is Status.NEGATIVE
    c0, _, _, c3 = F(100), F(0), F(0), F(-1)
    assert c0 + c3 * v.witness ** 3 < 0


# -- polynomials whose sign is known by construction ------------------------------

def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _value(coeffs, z):
    return sum(c * z ** i for i, c in enumerate(coeffs))


def _build(factor, double_roots=(), simple_roots=()):
    coeffs = list(factor)
    for r in double_roots:
        coeffs = _times(coeffs, [r * r, -2 * r, F(1)])
    for r in simple_roots:
        coeffs = _times(coeffs, [-r, F(1)])
    return coeffs


# nonnegative coefficients, not all zero: positive on (0, oo)
positive_factors = st.lists(
    st.fractions(min_value=0, max_value=20, max_denominator=50),
    min_size=1, max_size=4).filter(any)
small_roots = st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100)
tall_roots = st.builds(F, st.integers(1, 2 ** 80), st.integers(1, 2 ** 80))
roots = st.one_of(small_roots, tall_roots)
TALL = F(2 ** 80 - 1, 2 ** 79 + 1)


@settings(max_examples=150, deadline=None)
@given(positive_factors, st.lists(roots, max_size=3))
@example([F(1), F(0), F(1)], [TALL])
@example([F(3)], [F(7, 3), F(7, 3)])
def test_squared_factors_keep_the_polynomial_nonnegative(factor, double_roots):
    v = coeffs_nonneg_on_pos(_build(factor, double_roots))
    assert v.status is Status.NONNEGATIVE
    # a positive root rules out all-nonnegative coefficients, and it is
    # found by isolation, so the certificate is determined
    expected = ("sturm-even-multiplicity" if double_roots
                else "all-coefficients-nonnegative")
    assert v.certificate == expected


@settings(max_examples=150, deadline=None)
@given(positive_factors, st.lists(roots, max_size=2),
       st.lists(roots, min_size=1, max_size=2, unique=True))
@example([F(1)], [], [TALL, TALL + F(1, 2 ** 90)])
@example([F(1), F(0), F(1)], [F(5, 4)], [F(1), F(3, 2)])
def test_simple_positive_roots_make_the_polynomial_negative(factor, double_roots,
                                                            simple_roots):
    coeffs = _build(factor, double_roots, simple_roots)
    v = coeffs_nonneg_on_pos(coeffs)
    assert v.status is Status.NEGATIVE
    assert v.witness > 0
    assert _value(coeffs, v.witness) == v.witness_value < 0


def test_negative_dip_too_narrow_for_floats_is_found_exactly():
    # (z^2 + 1)(z - 1)(z - 1 - 2^-70): negative only on (1, 1 + 2^-70), far
    # below float resolution, so the exact isolation rung must find it
    r1, r2 = F(1), 1 + F(1, 2 ** 70)
    coeffs = _times(_times([F(1), F(0), F(1)], [-r1, F(1)]), [-r2, F(1)])
    v = coeffs_nonneg_on_pos(coeffs)
    assert v.status is Status.NEGATIVE
    assert r1 < v.witness < r2
    assert _value(coeffs, v.witness) == v.witness_value < 0


# -- transition polynomials across the critical parameter -----------------------

@pytest.mark.parametrize("alpha", [F(1, 10), F(1, 4), F(2, 5), F(1, 2)])
def test_transition_polys_nonnegative_at_or_below_half(alpha):
    for n in range(9):
        v = poly_nonneg_on_pos(transition_poly(n), alpha)
        assert v.status is Status.NONNEGATIVE, (n, alpha)


@pytest.mark.parametrize("alpha", [F(51, 100), F(3, 4), F(1)])
def test_transition_polys_negative_above_half(alpha):
    for n in range(1, 9):
        v = poly_nonneg_on_pos(transition_poly(n), alpha)
        assert v.status is Status.NEGATIVE, (n, alpha)
        specialized = transition_poly(n).specialize(alpha)
        value = sum(c * v.witness ** i for i, c in enumerate(specialized))
        assert value == v.witness_value < 0


def test_constant_member_is_nonnegative_for_every_alpha():
    for alpha in (F(1, 10), F(1, 2), F(3), F(100)):
        assert poly_nonneg_on_pos(transition_poly(0), alpha).status is (
            Status.NONNEGATIVE)


def test_degree_one_witness_by_hand():
    # member 1 at alpha = 10: 21 z - 19, negative on (0, 19/21)
    v = poly_nonneg_on_pos(transition_poly(1), F(10))
    assert v.status is Status.NEGATIVE
    assert 0 < v.witness < F(19, 21)


# -- threshold search ------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 6))
def test_alpha_threshold_brackets_one_half(n):
    lo, hi = alpha_threshold(n, tol=F(1, 10 ** 6))
    assert lo <= F(1, 2) <= hi
    assert hi - lo <= F(1, 10 ** 6)
    assert poly_nonneg_on_pos(transition_poly(n), lo).status is Status.NONNEGATIVE
    assert poly_nonneg_on_pos(transition_poly(n), hi).status is Status.NEGATIVE


def test_alpha_threshold_accepts_float_tolerance():
    lo, hi = alpha_threshold(2, tol=1e-6)
    assert hi - lo <= F(1, 10 ** 6) * 2  # rationalized tolerance stays close
    assert lo <= F(1, 2) <= hi


def test_alpha_threshold_rejects_always_nonnegative_input():
    with pytest.raises(ValueError):
        alpha_threshold(0)


# -- region scan ------------------------------------------------------------------

def test_region_scan_grid():
    report = region_scan(range(4), (F(1, 4), F(1, 2), F(3, 4)))
    assert not report.all_nonnegative
    cell = report.cell(2, F(3, 4))
    assert cell.verdict.status is Status.NEGATIVE
    assert cell.conjecture_n == 3  # conjecture numbering is index + 1
    assert report.cell(2, F(1, 2)).verdict.status is Status.NONNEGATIVE
    below = region_scan(range(4), (F(1, 4), F(1, 2)))
    assert below.all_nonnegative


def test_region_scan_is_deterministic():
    a = region_scan((2, 0, 1), (F(1, 2), F(1, 4)))
    b = region_scan((0, 1, 2), (F(1, 4), F(1, 2)))
    assert [(c.poly_index, c.alpha) for c in a.cells] == (
        [(c.poly_index, c.alpha) for c in b.cells])


def test_region_scan_matches_pinned_verdicts():
    # status and certificate of every cell, recorded from the Fraction-based
    # decision procedure this integer engine replaced
    pinned = json.loads(
        (Path(__file__).parent / "data" / "region_scan_21x40.json").read_text())
    alphas = [F(a) for a in pinned["alphas"]]
    assert alphas == [F(k, 20) for k in range(1, 41)]
    report = region_scan(range(21), alphas)
    assert len(report.cells) == 21 * 40
    for cell in report.cells:
        v = cell.verdict
        expected = pinned["cells"][str(cell.poly_index)][alphas.index(cell.alpha)]
        assert [v.status.value, v.certificate] == expected, (cell.poly_index, cell.alpha)
        if v.status is Status.NEGATIVE:
            value = transition_poly(cell.poly_index).evaluate(cell.alpha, v.witness)
            assert value == v.witness_value < 0
