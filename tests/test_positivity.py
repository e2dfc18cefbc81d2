"""Positivity verdicts on (0, infinity): exact certificates and witnesses."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khabcheck.positivity import (
    Status,
    alpha_threshold,
    coeffs_nonneg_on_pos,
    poly_nonneg_on_pos,
    region_scan,
)
from khabcheck.exact import scaled_value
from khabcheck.positivity import _split_point, _witness_candidates
from khabcheck.transition import transition_poly


def _cleared(coeffs):
    """Rationals as integer numerators over their least common denominator."""
    den = math.lcm(*(F(c).denominator for c in coeffs))
    return [int(c * den) for c in coeffs], den


# -- quadratics: the general ladder against the three-case criterion -----------

def _quadratic(coeffs, z):
    """c0 + c1 z + c2 z^2 at z, exactly."""
    c0, c1, c2 = coeffs
    return (c2 * z + c1) * z + c0


def _quadratic_criterion(coeffs):
    """Status of c0 + c1 z + c2 z^2 on z > 0 by the three-case criterion.

    A reference independent of the ladder.  With c2 > 0 and c1 < 0 the
    vertex -c1/(2 c2) is positive, so nonnegativity is a nonpositive
    discriminant and otherwise the vertex is a witness; with c2 > 0 and
    c1 >= 0 it is c0 >= 0; with c2 = 0 it is c1 >= 0 and c0 >= 0; with
    c2 < 0 the leading term wins for large z.  Returns the status and the
    vertex witness, or None where the criterion names no witness.
    """
    c0, c1, c2 = coeffs
    if c2 > 0 and c1 < 0:
        if c1 * c1 - 4 * c2 * c0 <= 0:
            return Status.NONNEGATIVE, None
        return Status.NEGATIVE, -c1 / (2 * c2)
    if c2 > 0:
        nonnegative = c0 >= 0
    else:
        nonnegative = c2 == 0 and c1 >= 0 and c0 >= 0
    return Status.NONNEGATIVE if nonnegative else Status.NEGATIVE, None


def _assert_agrees_with_criterion(coeffs):
    """The ladder's verdict on a quadratic, checked against the criterion."""
    v = coeffs_nonneg_on_pos(*_cleared(coeffs))
    status, vertex = _quadratic_criterion(coeffs)
    assert v.status is status, coeffs
    if status is Status.NEGATIVE:
        assert v.witness > 0
        assert _quadratic(coeffs, v.witness) == v.witness_value < 0
        if vertex is not None:
            assert _quadratic(coeffs, vertex) < 0
    return v


def test_quadratic_nonnegative_with_touching_root():
    v = _assert_agrees_with_criterion((F(1), F(-2), F(1)))  # (z-1)^2
    assert v.certificate == "sturm-even-multiplicity"


def test_quadratic_negative_has_exact_witness():
    # z^2 - 3z + 1 < 0 on ((3-sqrt 5)/2, (3+sqrt 5)/2); the vertex is 3/2
    coeffs = (F(1), F(-3), F(1))
    assert _quadratic_criterion(coeffs) == (Status.NEGATIVE, F(3, 2))
    _assert_agrees_with_criterion(coeffs)


def test_quadratic_degenerate_cases():
    # no quadratic term, positive slope and intercept
    v = _assert_agrees_with_criterion((F(1, 5), F(9, 5), F(0)))
    assert v.certificate == "all-coefficients-nonnegative"
    # negative slope alone eventually wins
    _assert_agrees_with_criterion((F(10), F(-1), F(0)))
    # constants
    assert _assert_agrees_with_criterion((F(2), F(0), F(0))).status is Status.NONNEGATIVE
    assert _assert_agrees_with_criterion((F(-2), F(0), F(0))).status is Status.NEGATIVE


def test_quadratic_negative_leading_coefficient():
    v = _assert_agrees_with_criterion((F(100), F(5), F(-1)))
    assert v.witness == 102  # beyond the Cauchy root bound 2 + 100/1


def test_random_quadratics_verdicts_are_sound():
    rng = random.Random(4242)
    sample_points = [F(k, 10) for k in range(1, 1001)]
    nonneg_seen = neg_seen = 0
    for _ in range(500):
        coeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))[::-1]
        v = _assert_agrees_with_criterion(coeffs)
        if v.status is Status.NEGATIVE:
            neg_seen += 1
        else:
            nonneg_seen += 1
            assert all(_quadratic(coeffs, z) >= 0 for z in sample_points)
    # the seeded stream must exercise both branches
    assert nonneg_seen > 50 and neg_seen > 50


def test_general_route_agrees_with_quadratic_criterion():
    rng = random.Random(77)
    for _ in range(200):
        _assert_agrees_with_criterion(
            tuple(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)))


# -- general degree: Sturm route -----------------------------------------------

def test_all_nonnegative_coefficients_fast_path():
    v = coeffs_nonneg_on_pos([1, 0, 3])
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "all-coefficients-nonnegative"


def test_strictly_positive_quartic_has_no_positive_root():
    # z^2 - z + 1 > 0 everywhere; Sturm confirms no root on (0, bound]
    v = coeffs_nonneg_on_pos([1, -1, 1])
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "sturm-no-positive-root"


def test_touching_roots_with_even_multiplicity():
    # (z-1)^2 (z^2+1) touches zero at z = 1 without crossing
    v = coeffs_nonneg_on_pos([1, -2, 2, -2, 1])
    assert v.status is Status.NONNEGATIVE
    assert v.certificate == "sturm-even-multiplicity"


def test_simple_crossing_is_detected_with_witness():
    # (z-1)(z-2)(z-3) dips negative on (1,2) and (0,1) tails
    coeffs = [-6, 11, -6, 1]
    v = coeffs_nonneg_on_pos(coeffs)
    assert v.status is Status.NEGATIVE
    w = v.witness
    value = sum(c * w ** i for i, c in enumerate(coeffs))
    assert value == v.witness_value < 0
    assert w > 0


def test_zero_polynomial_is_nonnegative():
    assert coeffs_nonneg_on_pos([0]).status is Status.NONNEGATIVE
    assert coeffs_nonneg_on_pos([]).status is Status.NONNEGATIVE
    assert coeffs_nonneg_on_pos([0, 0], 7).status is Status.NONNEGATIVE


def test_monomial_factor_is_stripped():
    # z^3 (z - 2)^2 is nonnegative although low coefficients vanish
    assert coeffs_nonneg_on_pos([0, 0, 0, 4, -4, 1]).status is Status.NONNEGATIVE


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=6), st.integers(1, 30), st.integers(1, 30))
@example([1, -2, 2, -2, 1], 3, 4)  # touching root: the Sturm rung decides
@example([0, 0, -6, 11, -6, 1], 5, 6)  # z^2 (z-1)(z-2)(z-3): a z^m factor and a dip
def test_verdict_depends_on_the_polynomial_not_its_writing(c, den, k):
    v = coeffs_nonneg_on_pos(c, den)
    assert coeffs_nonneg_on_pos([k * x for x in c], k * den) == v
    if v.status is Status.NEGATIVE:
        assert v.witness_value == _value([F(x, den) for x in c], v.witness) < 0


def test_split_point_steps_off_a_root_at_the_midpoint():
    assert _split_point([-1, 1], F(0), F(2)) == F(1, 2)  # z - 1 vanishes at 1
    assert _split_point([-1, 1], F(0), F(4)) == F(2)


def test_negative_leading_coefficient_witness():
    v = coeffs_nonneg_on_pos([100, 0, 0, -1])
    assert v.status is Status.NEGATIVE
    assert 100 - v.witness ** 3 == v.witness_value < 0


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
    v = coeffs_nonneg_on_pos(*_cleared(_build(factor, double_roots)))
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
    v = coeffs_nonneg_on_pos(*_cleared(coeffs))
    assert v.status is Status.NEGATIVE
    assert v.witness > 0
    assert _value(coeffs, v.witness) == v.witness_value < 0


def test_negative_dip_too_narrow_for_floats_is_found_exactly():
    # (z^2 + 1)(z - 1)(z - 1 - 2^-70): negative only on (1, 1 + 2^-70), far
    # below float resolution, so the exact isolation rung must find it
    r1, r2 = F(1), 1 + F(1, 2 ** 70)
    coeffs = _times(_times([F(1), F(0), F(1)], [-r1, F(1)]), [-r2, F(1)])
    v = coeffs_nonneg_on_pos(*_cleared(coeffs))
    assert v.status is Status.NEGATIVE
    assert r1 < v.witness < r2
    assert _value(coeffs, v.witness) == v.witness_value < 0


@pytest.mark.parametrize("n, alpha", [(30, 299), (40, 5000)])
def test_witness_candidates_are_tried_most_negative_first(n, alpha):
    # at the largest extrema (z ~ 1.4e9 at n = 30, alpha = 299) c(z) lies
    # beyond the float range, where plain Horner gives -inf or NaN
    c, _ = transition_poly(n).specialize(alpha)
    tried = _witness_candidates(c)
    exact = [F(scaled_value(c, F(x)), F(x).denominator ** (len(c) - 1))
             for x in tried]
    # every local minimum of these members is negative: n/2 of the n - 1
    assert len(tried) == n // 2
    assert all(v < 0 for v in exact)
    assert exact == sorted(exact)


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
        row, den = transition_poly(n).specialize(alpha)
        assert _value([F(x, den) for x in row], v.witness) == v.witness_value < 0


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


@pytest.mark.parametrize("n", range(1, 13))
def test_alpha_threshold_meets_a_tolerance_of_1e_13(n, deadline):
    with deadline(10):
        lo, hi = alpha_threshold(n, 1e-13)
    assert lo <= F(1, 2) <= hi
    assert 0 < hi - lo <= F(1e-13)


@pytest.mark.parametrize("tol", [0, -1, math.nan, math.inf])
def test_alpha_threshold_rejects_a_tolerance_outside_zero_to_infinity(tol):
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        alpha_threshold(1, tol)


# -- region scan ------------------------------------------------------------------

def test_region_scan_grid():
    report = region_scan(range(4), (F(1, 4), F(1, 2), F(3, 4)))
    cells = {(c.poly_index, c.alpha): c for c in report.cells}
    assert len(cells) == len(report.cells) == 12
    cell = cells[2, F(3, 4)]
    assert cell.verdict.status is Status.NEGATIVE
    assert cell.conjecture_n == 3  # conjecture numbering is index + 1
    assert cells[2, F(1, 2)].verdict.status is Status.NONNEGATIVE
    below = region_scan(range(4), (F(1, 4), F(1, 2)))
    assert all(c.verdict.status is Status.NONNEGATIVE for c in below.cells)


def test_region_scan_admits_indices_as_integers():
    # a float index is refused, not truncated to a neighbouring index
    with pytest.raises(TypeError):
        region_scan([1.5, 2.9], [F(1, 4)])
    cells = region_scan(np.arange(3), [F(1, 4)]).cells
    assert [type(c.poly_index) for c in cells] == [int] * 3
    assert cells == region_scan(range(3), [F(1, 4)]).cells


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
