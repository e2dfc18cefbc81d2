"""Exact polynomial tests: canonical forms, ring laws, evaluation."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khabcheck.exact import (
    ALPHA,
    AlphaPolynomial,
    ZPolynomial,
    positive_rational,
    rational,
    simplest_between,
)
from khabcheck.termalgebra import MixedSum

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def alpha_polys(max_degree=4):
    return st.lists(small_fractions, max_size=max_degree + 1).map(
        lambda cs: AlphaPolynomial(tuple(cs)))


def z_polys(max_degree=3):
    rows = st.lists(st.lists(st.integers(-50, 50), max_size=3), max_size=max_degree + 1)
    return st.builds(ZPolynomial, rows, st.integers(1, 20))


def mixed_sums(max_terms=4):
    key = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 3))
    rows = st.lists(st.tuples(key, st.lists(st.integers(-50, 50), max_size=3)),
                    max_size=max_terms)
    return st.builds(MixedSum, rows, st.integers(1, 20))


# -- rational parsing ------------------------------------------------------

def test_rational_parses_strings_and_ints():
    assert rational("3/4") == F(3, 4)
    assert rational(7) == F(7)
    assert rational(F(1, 3)) == F(1, 3)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)


def test_positive_rational_admits_only_positive_exact_values():
    assert positive_rational("1/2") == F(1, 2)
    assert positive_rational(3) == F(3)
    with pytest.raises(TypeError):
        positive_rational(0.5)
    with pytest.raises(TypeError):
        positive_rational(np.float64(0.5))
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        positive_rational(0)
    with pytest.raises(ValueError, match="^omega must be positive$"):
        positive_rational(F(-1, 2), "omega")


def test_evaluation_rejects_float_points():
    with pytest.raises(TypeError):
        ALPHA(0.5)
    P = ZPolynomial(((0, 1), (1,)))  # alpha + z
    with pytest.raises(TypeError):
        P.evaluate(0.5, 1)
    with pytest.raises(TypeError):
        P.evaluate(F(1, 2), 0.5)


# -- canonical form --------------------------------------------------------

def test_trailing_zeros_are_stripped():
    assert AlphaPolynomial((F(1), F(0), F(0))) == AlphaPolynomial((F(1),))
    assert ZPolynomial(((0, 1, 0), (0, 0), ())) == ZPolynomial(((0, 1),))


def test_zero_polynomial_degree_is_minus_one():
    assert AlphaPolynomial.zero().degree == -1
    assert ZPolynomial().degree == -1
    assert AlphaPolynomial.zero().is_zero


@given(alpha_polys(), z_polys(), mixed_sums(), st.integers(1, 30), st.randoms())
def test_alpha_poly_normalization_is_idempotent(p, P, S, k, rnd):
    assert AlphaPolynomial(p.coeffs) == p
    # rows * k over den * k is rows over den
    assert ZPolynomial([[k * x for x in row] for row in P.rows], k * P.den) == P
    assert MixedSum([(key, [k * x for x in row]) for key, row in S.rows], k * S.den) == S
    # terms given in any key order are the same sum
    assert MixedSum(rnd.sample(S.rows, len(S.rows)), S.den) == S


# -- integers over one denominator ------------------------------------------

@given(st.lists(st.integers(-50, 50), max_size=4), st.integers(-20, 20), st.booleans())
def test_integer_row_types_share_one_canonical_form(row, den, with_float):
    key = (1, -1, 2)
    makers = (AlphaPolynomial, lambda r, d: ZPolynomial([r], d),
              lambda r, d: MixedSum([(key, r)], d))
    if with_float:
        for make in makers:
            with pytest.raises(TypeError):
                make([*row, 2.0], den)
        return
    if den <= 0:
        for make in makers:
            with pytest.raises(ValueError, match="^den must be a positive integer$"):
                make(row, den)
        return
    p, P, S = (make(row, den) for make in makers)
    assert p == AlphaPolynomial([F(x, den) for x in row])
    assert P.rows == ((p.num,) if p.num else ())
    assert S.rows == (((key, p.num),) if p.num else ())
    assert p.den == P.den == S.den


@given(alpha_polys())
def test_alpha_poly_round_trips_through_num_and_den(p):
    q = AlphaPolynomial(p.num, p.den)
    assert q == p
    assert hash(q) == hash(p)
    assert p.den > 0
    assert math.gcd(p.den, *p.num) == 1
    assert p.coeffs == tuple(F(x, p.den) for x in p.num)


@given(alpha_polys())
def test_zero_difference_has_unit_denominator(p):
    assert (p - p).num == ()
    assert (p - p).den == 1


def test_integer_input_is_reduced_to_lowest_terms():
    p = AlphaPolynomial([2, 4], 6)
    assert p == AlphaPolynomial((F(1, 3), F(2, 3)))
    assert (p.num, p.den) == ((1, 2), 3)
    assert AlphaPolynomial([-2, 4], 6) == AlphaPolynomial((F(-1, 3), F(2, 3)))
    assert AlphaPolynomial([3, 0, 0], 9) == AlphaPolynomial.constant(F(1, 3))
    for zero in (AlphaPolynomial.zero(), AlphaPolynomial([0, 0], 7), ALPHA - ALPHA):
        assert (zero.num, zero.den) == ((), 1)
    for den in (0, -6):
        with pytest.raises(ValueError):
            AlphaPolynomial([2, 4], den)
        with pytest.raises(ValueError):
            ZPolynomial([[2, 4]], den)
    P = ZPolynomial([[2], [4, 6, 0]], 8)
    assert (P.rows, P.den) == (((1,), (2, 3)), 4)
    assert P.coeffs == (AlphaPolynomial.constant(F(1, 4)), AlphaPolynomial((F(1, 2), F(3, 4))))
    zero = ZPolynomial([[0, 0], []], 7)
    assert (zero.rows, zero.den) == ((), 1)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        AlphaPolynomial((0.5,))
    with pytest.raises(TypeError):
        AlphaPolynomial((1, 0.5))
    with pytest.raises(TypeError):
        AlphaPolynomial.constant(0.25)
    with pytest.raises(TypeError):
        AlphaPolynomial((1, 2), 0.5)
    with pytest.raises(TypeError):
        AlphaPolynomial((0.5,), 2)
    with pytest.raises(TypeError):
        ZPolynomial(((0.5,),))
    with pytest.raises(TypeError):
        ZPolynomial(((0, 1), (0.5,)))
    with pytest.raises(TypeError):
        ZPolynomial(((1,),), 0.5)
    with pytest.raises(TypeError):
        ALPHA * 0.5


@given(z_polys(), small_fractions)
@settings(max_examples=60)
def test_specialize_matches_fraction_horner(P, a):
    expected = []
    for row in P.rows:
        acc = F(0)
        for x in reversed(row):
            acc = acc * a + x
        expected.append(acc / P.den)
    while expected and expected[-1] == 0:
        expected.pop()
    row, den = P.specialize(a)
    assert [F(x, den) for x in row] == expected
    assert den > 0 and math.gcd(den, *row) == 1 and (not row or row[-1])


# -- ring laws -------------------------------------------------------------

@given(alpha_polys(), alpha_polys())
def test_alpha_addition_commutes(p, q):
    assert p + q == q + p


@given(alpha_polys(), alpha_polys(), alpha_polys())
@settings(max_examples=50)
def test_alpha_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(alpha_polys(), alpha_polys(), small_fractions)
def test_alpha_evaluation_is_a_ring_homomorphism(p, q, a):
    assert (p + q)(a) == p(a) + q(a)
    assert (p * q)(a) == p(a) * q(a)


@given(alpha_polys(), alpha_polys())
def test_alpha_degree_of_product_adds(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


# -- mixed scalar arithmetic ------------------------------------------------

def test_int_and_fraction_coercion():
    assert 2 * ALPHA + 1 == AlphaPolynomial((F(1), F(2)))
    assert (1 - 2 * ALPHA)(F(1, 2)) == 0


def test_specialize_strips_trailing_zeros():
    # (1-2a)z + a  at a = 1/2 leaves only the constant
    P = ZPolynomial(((0, 1), (1, -2)))
    assert P.specialize(F(1, 2)) == ([1], 2)
    assert P.specialize(F(1, 4)) == ([1, 2], 4)


@given(z_polys(), small_fractions, small_fractions)
@example(ZPolynomial(((7,), (0, 3), (1, 0, 1))), F(2, 3), F(5, 4))  # (a^2+1) z^2 + 3a z + 7
@settings(max_examples=60)
def test_double_horner_matches_naive_expansion(P, a, z):
    naive = sum(F(x, P.den) * a ** i * z ** j
                for j, row in enumerate(P.rows) for i, x in enumerate(row))
    assert P.evaluate(a, z) == naive


# -- simplest rational in an interval ---------------------------------------

def test_simplest_between_prefers_small_denominators():
    assert simplest_between(F(4999, 10000), F(5001, 10000)) == F(1, 2)
    assert simplest_between(F(1, 3), F(2, 5)) == F(1, 3)
    assert simplest_between(F(-1, 3), F(1, 7)) == 0
    assert simplest_between(F(7, 3), F(8, 3)) == F(5, 2)
    assert simplest_between(F(5, 2), F(5, 2)) == F(5, 2)


@given(small_fractions, small_fractions)
def test_simplest_between_stays_inside(a, b):
    lo, hi = min(a, b), max(a, b)
    s = simplest_between(lo, hi)
    assert lo <= s <= hi


@given(small_fractions, small_fractions)
@settings(max_examples=60)
def test_simplest_between_minimizes_denominator(a, b):
    lo, hi = min(a, b), max(a, b)
    s = simplest_between(lo, hi)
    # no fraction with a smaller denominator fits in [lo, hi]
    for den in range(1, s.denominator):
        lo_num = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
        assert F(lo_num, den) > hi or F(lo_num, den) < lo
