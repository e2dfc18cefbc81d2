"""Exact polynomial tests: canonical forms, row operations, evaluation."""

import math
from collections import defaultdict
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khabcheck.exact import (
    ZPolynomial,
    _reduced,
    lowest_terms,
    positive_rational,
    rational,
    row_value,
    simplest_between,
)
from khabcheck.termalgebra import MixedSum

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def z_polys(max_degree=3):
    rows = st.lists(st.lists(st.integers(-50, 50), max_size=3), max_size=max_degree + 1)
    return st.builds(ZPolynomial, rows, st.integers(1, 20))


def mixed_sums(max_terms=4):
    key = st.tuples(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 3))
    rows = st.lists(st.tuples(key, st.lists(st.integers(-50, 50), max_size=3)),
                    max_size=max_terms)
    return st.builds(MixedSum, rows, st.integers(1, 20))


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
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        positive_rational(F(-1, 2))


def test_evaluation_rejects_float_points():
    P = ZPolynomial(((0, 1), (1,)))  # alpha + z
    with pytest.raises(TypeError):
        P.specialize(0.5)
    with pytest.raises(TypeError):
        P.evaluate(0.5, 1)
    with pytest.raises(TypeError):
        P.evaluate(F(1, 2), 0.5)


# -- canonical form --------------------------------------------------------

def test_trailing_zeros_are_stripped():
    assert lowest_terms([[1, 0, 0], [0, 0]], 1) == ([[1], []], 1)
    assert ZPolynomial(((0, 1, 0), (0, 0), ())) == ZPolynomial(((0, 1),))


def test_zero_polynomial_degree_is_minus_one():
    assert ZPolynomial().degree == -1
    assert ZPolynomial([[0, 0], []], 3).degree == -1


@given(z_polys(), mixed_sums(), st.integers(1, 30), st.randoms())
def test_alpha_poly_normalization_is_idempotent(P, S, k, rnd):
    assert lowest_terms(P.rows, P.den) == ([list(row) for row in P.rows], P.den)
    # rows * k over den * k is rows over den
    assert ZPolynomial([[k * x for x in row] for row in P.rows], k * P.den) == P
    assert MixedSum([(key, [k * x for x in row]) for key, row in S.rows], k * S.den) == S
    # terms given in any key order are the same sum
    assert MixedSum(rnd.sample(S.rows, len(S.rows)), S.den) == S


# -- integers over one denominator ------------------------------------------

@given(st.lists(st.integers(-50, 50), max_size=4), st.integers(-20, 20), st.booleans())
def test_integer_row_types_share_one_canonical_form(row, den, with_float):
    key = (1, -1, 2)
    makers = (lambda r, d: lowest_terms([r], d), lambda r, d: ZPolynomial([r], d),
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
    ([num], d), P, S = (make(row, den) for make in makers)
    expected = [F(x, den) for x in row]
    while expected and not expected[-1]:
        expected.pop()
    assert [F(x, d) for x in num] == expected
    assert math.gcd(d, *num) == 1
    assert P.rows == ((tuple(num),) if num else ())
    assert S.rows == (((key, tuple(num)),) if num else ())
    assert d == P.den == S.den


@given(st.lists(st.lists(st.integers(-10**30, 10**30), max_size=5), max_size=5),
       st.integers(1, 10**30), st.integers(1, 10**6))
@example([[0, 0], [], [6, -4, 0]], 10, 1)
@example([[0]], 7, 1)
def test_reduction_equals_lowest_terms_on_int_rows(rows, den, f):
    # the private reduction, which computed rows take without admission,
    # leaves int rows exactly as the admitting lowest_terms does; f plants a
    # common factor so that the gcd step is taken too
    rows = [[x * f for x in row] for row in rows]
    want = lowest_terms(rows, den * f)
    assert _reduced([list(row) for row in rows], den * f) == want
    assert ZPolynomial._of_ints([list(row) for row in rows], den * f) == ZPolynomial(rows, den * f)


@given(z_polys())
def test_alpha_poly_round_trips_through_num_and_den(P):
    Q = ZPolynomial(P.rows, P.den)
    assert Q == P
    assert hash(Q) == hash(P)
    assert P.den > 0
    assert math.gcd(P.den, *(x for row in P.rows for x in row)) == 1


@given(mixed_sums())
def test_zero_difference_has_unit_denominator(S):
    zero = plus(S, scaled(S, -1))
    assert zero.rows == ()
    assert zero.den == 1


def test_integer_input_is_reduced_to_lowest_terms():
    assert lowest_terms([[2, 4]], 6) == ([[1, 2]], 3)
    assert lowest_terms([[-2, 4]], 6) == ([[-1, 2]], 3)
    assert lowest_terms([[3, 0, 0]], 9) == ([[1]], 3)
    assert lowest_terms([[0, 0]], 7) == ([[]], 1)
    for den in (0, -6):
        with pytest.raises(ValueError):
            lowest_terms([[2, 4]], den)
        with pytest.raises(ValueError):
            ZPolynomial([[2, 4]], den)
    P = ZPolynomial([[2], [4, 6, 0]], 8)
    assert (P.rows, P.den) == (((1,), (2, 3)), 4)
    zero = ZPolynomial([[0, 0], []], 7)
    assert (zero.rows, zero.den) == ((), 1)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        lowest_terms([[0.5]], 1)
    with pytest.raises(TypeError):
        lowest_terms([[1, 0.5]], 1)
    with pytest.raises(TypeError):
        lowest_terms([[1, 2]], 0.5)
    with pytest.raises(TypeError):
        MixedSum([((0, 0, 0), [0.5])])
    with pytest.raises(TypeError):
        ZPolynomial(((0.5,),))
    with pytest.raises(TypeError):
        ZPolynomial(((0, 1), (0.5,)))
    with pytest.raises(TypeError):
        ZPolynomial(((1,),), 0.5)


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


# -- the alpha-coefficient rows under the term algebra's operations ---------
#
# A MixedSum keeps one alpha-row per key: the constructor adds the rows of
# equal keys (and, given them over a larger denominator, scales them by a
# rational), and ``derivative`` multiplies them by the alpha-polynomials
# p + 2q*alpha and -2k*alpha.

@given(mixed_sums(), mixed_sums())
def test_alpha_addition_commutes(S, U):
    assert plus(S, U) == plus(U, S)


@given(mixed_sums(), mixed_sums(), small_fractions)
@settings(max_examples=50)
def test_alpha_multiplication_distributes(S, U, f):
    assert scaled(plus(S, U), f) == plus(scaled(S, f), scaled(U, f))


@given(mixed_sums(), mixed_sums(), small_fractions)
def test_alpha_evaluation_is_a_ring_homomorphism(S, U, a):
    # row_value at alpha = a takes the sum of two sums to the sum of their
    # values, and the derivative's products to products of rationals
    def at(s):
        values = ((key, row_value(row, s.den, a)) for key, row in s.rows)
        return {key: c for key, c in values if c}

    values, other = at(S), at(U)
    total = defaultdict(F)
    for key, c in [*values.items(), *other.items()]:
        total[key] += c
    assert at(plus(S, U)) == {key: c for key, c in total.items() if c}

    product = defaultdict(F)
    for (k, p, q), c in values.items():
        product[(k, p - 1, q)] += (p + 2 * q * a) * c
        product[(k + 1, p - 1, q + 1)] += -2 * k * a * c
    assert at(S.derivative()) == {key: c for key, c in product.items() if c}
    assert row_value([1, -2], 1, F(1, 2)) == 0  # 1 - 2a at a = 1/2


@given(st.integers(0, 4), st.integers(-4, 4), st.integers(0, 3),
       st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(lambda r: r[-1]))
def test_alpha_degree_of_product_adds(k, p, q, row):
    # the derivative of one term multiplies its alpha-row (degree d) by
    # p + 2q*alpha and by -2k*alpha; each product has degree d + the factor's
    d = len(row) - 1
    rows = dict(MixedSum([((k, p, q), row)]).derivative().rows)
    power, weight = rows.get((k, p - 1, q)), rows.get((k + 1, p - 1, q + 1))
    if q:
        assert len(power) - 1 == d + 1
    elif p:
        assert len(power) - 1 == d
    else:
        assert power is None  # the factor p + 2q*alpha is zero
    if k:
        assert len(weight) - 1 == d + 1
    else:
        assert weight is None


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
