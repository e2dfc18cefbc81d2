"""Transition family: polynomial recurrence, stable evaluation, derivative oracle."""

import json
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khabcheck.exact import ZPolynomial, row_value
from khabcheck.termalgebra import MixedSum, mixed_eval
from khabcheck.transition import (
    _VALIDATE_REL_TOL,
    _VALIDATE_TS,
    PhiFamily,
    _identity_holds,
    _judge,
    _oracle_view,
    _oracle_walk,
    _recurrence_view,
    log_weight,
    log_weight_derivatives,
    oracle_equiv_check,
    transition_evaluator,
    transition_oracle,
    transition_poly,
)


# -- exact polynomial layer --------------------------------------------------

#: 31 distinct alphas: an alpha-polynomial of degree <= 30 is fixed by its
#: values at them, so agreement here is agreement of the polynomials
ALPHAS = [F(k, 8) for k in range(1, 32)]


def test_first_polynomials_match_hand_expansion():
    assert transition_poly(0) == ZPolynomial(((1,),))
    # (1 - 2a) + (2a + 1) z
    assert transition_poly(1) == ZPolynomial(((1, -2), (1, 2)))

    # expanded by hand from one recurrence step applied to the degree-1 case:
    # (1-2a)(1-a) + 2(1-2a)(2a+1) z + (2a+1)(a+1) z^2
    assert transition_poly(2) == ZPolynomial(((1, -3, 2), (2, 0, -8), (1, 3, 2)))


def test_degree_equals_index():
    for n in range(9):
        assert transition_poly(n).degree == n


@pytest.mark.parametrize("n", range(11))
def test_half_alpha_collapses_to_monomial(n):
    # at a = 1/2 the whole polynomial collapses onto its top coefficient
    assert transition_poly(n).specialize(F(1, 2)) == ([0] * n + [n + 1], 1)


def test_leading_and_constant_coefficients_closed_form():
    # lead(P_n) = (1+2a)_n / n! and P_n(0) = (1-2a)_n / n! in Q[alpha]: they fix
    # Phi_n's decay t^(1+2a) Phi_n -> 4 a^2 (1+2a)_n / n! as t -> infinity, and
    # its leading term 4 a^2 t^(2a-1) (1-2a)_n / n! as t -> 0
    lead = const = [1]
    for n in range(1, 41):
        # (1 +- 2a)_n = prod_{k=1..n} (k +- 2a), as integer alpha-rows
        lead, const = _times_linear(lead, n, 2), _times_linear(const, n, -2)
        P = transition_poly(n)
        f = math.factorial(n)
        assert [f * x for x in P.rows[-1]] == [P.den * x for x in lead], n
        assert [f * x for x in P.rows[0]] == [P.den * x for x in const], n


def _recurrence_at(a, n_max):
    """P_0..P_n_max at alpha = a by the recurrence over Q[z], as a reference.

    P_n = ((2a+1) z + (1 - 2a/n)) P_{n-1} - (2a z (z+1) / n) P_{n-1}', each
    P a list of Fraction coefficients of z^0, z^1, ..., trailing zeros kept.
    """
    polys = [[F(1)]]
    for n in range(1, n_max + 1):
        out = [F(0)] * (n + 1)
        for j, c in enumerate(polys[-1]):
            # the linear factor times c z^j, less 2a/n (z^2 + z) times j c z^(j-1)
            damping = 2 * a / n * j * c
            out[j] += (1 - 2 * a / n) * c - damping
            out[j + 1] += (2 * a + 1) * c - damping
        polys.append(out)
    return polys


def test_integer_recurrence_matches_rational_recurrence():
    transition_poly.cache_clear()
    # the highest index first, so the upward fill builds every lower one
    transition_poly(30)
    for a in ALPHAS:
        for n, expected in enumerate(_recurrence_at(a, 30)):
            while expected and not expected[-1]:
                expected.pop()
            row, den = transition_poly(n).specialize(a)
            assert [F(x, den) for x in row] == expected, (n, a)


def _times_linear(row, c0, c1):
    """The integer alpha-row of (c0 + c1 alpha) * row."""
    return [c0 * x + c1 * y for x, y in zip([*row, 0], [0, *row])]


def test_recurrence_step_matches_its_row_formula():
    # n c_j^(n) = (n + 2a(n-j+1)) c_{j-1}^(n-1) + (n - 2a(j+1)) c_j^(n-1), with
    # c_j^(n) = rows_n[j] / den_n; times den_n * den_{n-1}, in integer rows
    for n in range(1, 41):
        P, Q = transition_poly(n), transition_poly(n - 1)
        prev = [(), *Q.rows, ()]  # prev[j] is Q's row of z^(j-1), empty outside 0..n-1
        for j in range(n + 1):
            left = [n * Q.den * x for x in P.rows[j]]
            lo = _times_linear(prev[j], n, 2 * (n - j + 1))
            hi = _times_linear(prev[j + 1], n, -2 * (j + 1))
            right = [P.den * (x + y) for x, y in zip_longest(lo, hi, fillvalue=0)]
            while right and not right[-1]:
                right.pop()
            assert left == right, (n, j)


def _rising(x, k):
    """The rising factorial (x)_k = x (x+1) ... (x+k-1)."""
    out = 1
    for i in range(k):
        out *= x + i
    return out


def test_recurrence_bracket_is_an_identity():
    # through the row formula, c_j^(n-1) reaches L_n(s) = sum_j c_j (1+s)_j (1-s)_(n-j)
    # as (1+s)_j (1-s)_(n-1-j) / n times this bracket; of degree <= 2 in each of
    # n, j, a and s, it is an identity once it holds on {0, 1, 2}^4
    # (Alon, "Combinatorial Nullstellensatz", 1999)
    grid = range(3)
    for n in grid:
        for j in grid:
            for a in grid:
                for s in grid:
                    bracket = ((n + 2 * a * (n - j)) * (1 + s + j)
                               + (n - 2 * a * (j + 1)) * (n - j - s))
                    assert bracket == (n + 1) * (n + 2 * a * s), (n, j, a, s)


@pytest.mark.parametrize("alpha, sigma", [(F(1, 3), F(2, 5)), (F(7, 4), F(-3, 7)),
                                          (F(5, 2), F(11, 3))])
def test_rising_factorial_sum_of_each_row_is_closed_form(alpha, sigma):
    # L_n(s) = sum_j c_j(a) (1+s)_j (1-s)_(n-j) = (n+1) (1+2as)_n
    for n in range(41):
        row, den = transition_poly(n).specialize(alpha)
        total = sum(F(c, den) * _rising(1 + sigma, j) * _rising(1 - sigma, n - j)
                    for j, c in enumerate(row))
        assert total == (n + 1) * _rising(1 + 2 * alpha * sigma, n), n


def test_transition_poly_fills_the_cache_upward():
    transition_poly.cache_clear()
    top = transition_poly(25)
    assert transition_poly.cache_info().currsize == 26
    misses = transition_poly.cache_info().misses
    polys = [transition_poly(n) for n in range(26)]
    assert transition_poly.cache_info().misses == misses
    assert polys[25] is top
    assert [p.degree for p in polys] == list(range(26))


def test_cold_transition_poly_does_not_recurse_deeply():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    transition_poly.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        poly = transition_poly(80)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree == 80


def test_polynomial_cache_returns_identical_objects():
    assert transition_poly(5) is transition_poly(5)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        transition_poly(-1)
    with pytest.raises(ValueError):
        transition_evaluator(-1, F(1, 2))


# -- float evaluation ---------------------------------------------------------

def test_frozen_point_values():
    assert transition_evaluator(0, F(1, 2))(1.0) == pytest.approx(0.25, abs=1e-15)
    assert transition_evaluator(1, F(1, 2))(1.0) == pytest.approx(0.25, abs=1e-15)
    assert transition_evaluator(3, F(1, 2))(2.0) == pytest.approx(32.0 / 243.0, rel=1e-14)


@pytest.mark.parametrize("n", range(7))
def test_half_alpha_has_elementary_closed_form(n):
    # (n+1) t^n / (1+t)^(n+2)
    phi = transition_evaluator(n, F(1, 2))
    for t in (0.05, 0.5, 1.0, 3.0, 40.0):
        expected = (n + 1) * t ** n / (1.0 + t) ** (n + 2)
        assert phi(t) == pytest.approx(expected, rel=1e-12)


def test_evaluator_matches_pointwise_calls():
    # one evaluator reused over a grid equals a fresh one at each point
    phi = transition_evaluator(4, F(1, 3))
    for t in (0.01, 0.7, 13.0):
        assert phi(t) == transition_evaluator(4, F(1, 3))(t)


def test_extreme_arguments_stay_finite_and_positive():
    for n in (0, 3, 8):
        phi = transition_evaluator(n, F(1, 4))
        for t in (1e-280, 1e-12, 1e12, 1e280):
            v = phi(t)
            assert math.isfinite(v)
            assert v >= 0.0


def test_overflowing_power_takes_the_asymptotic_branch():
    # t^(2a) overflows a float here; Phi ~ 4 a^2 lead(P_n)(a) t^(-1-2a)
    assert transition_evaluator(2, F(3))(1e120) == 0.0
    t = 10.0 ** 3.1
    P = transition_poly(1)
    lead = float(row_value(P.rows[-1], P.den, F(50)))
    expected = math.exp(math.log(4 * 50.0 ** 2 * lead) - 101.0 * math.log(t))
    assert transition_evaluator(1, F(50))(t) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_non_positive_or_non_finite_t_is_rejected(t):
    with pytest.raises(ValueError):
        transition_evaluator(3, F(1, 4))(t)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 20),
       alpha=st.fractions(min_value=F(1, 256), max_value=8, max_denominator=4099),
       t=st.floats(min_value=1e-300, max_value=1e300))
def test_evaluation_is_finite_over_the_supported_range(n, alpha, t):
    assert math.isfinite(transition_evaluator(n, alpha)(t))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("alpha", [256, 512])
def test_evaluation_is_finite_where_z_nears_the_float_limit(n, alpha):
    # with z = t^(2a) in [1e300, DBL_MAX] the head 4 a^2 t^(2a-1) can overflow
    # while the polynomial sum underflows: inf * 0 would be NaN
    phi = transition_evaluator(n, alpha)
    lo, hi = 1e300 ** (1 / (2 * alpha)), sys.float_info.max ** (1 / (2 * alpha))
    for i in range(401):
        t = lo + (hi - lo) * i / 400
        v = phi(t)
        assert math.isfinite(v) and v >= 0.0, t


def _exact_phi(n, a, t):
    """Phi_n(a, t) = 4a^2 z P_n(a, z) / (t (1+z)^(n+2)) with z = t^(2a), for an
    integer alpha and a float t, in integers (t = u/v, z = U/V) up to one
    correctly rounded division."""
    u, v = t.as_integer_ratio()
    U, V = u ** (2 * a), v ** (2 * a)
    row, den = transition_poly(n).specialize(a)
    s = sum(c * U ** j * V ** (n - j) for j, c in enumerate(row))  # den V^n P_n(a, z)
    return 4 * a * a * U * s * v * V / (den * u * (U + V) ** (n + 2))


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("alpha", [270, 300, 500])
def test_evaluation_is_accurate_where_the_weight_squared_is_subnormal(n, alpha):
    # at t = 2, z = 2^(2a) > 2^511: w^2 = (1+z)^(-2) is no longer a normal
    # float, and the p/w sum underflowed to a silent 0.0
    want = _exact_phi(n, alpha, 2.0)
    assert abs(transition_evaluator(n, alpha)(2.0) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [0, 2, 4])
def test_evaluation_is_accurate_up_to_the_float_limit_of_z(n):
    # z = t^512 sampled from below 2^511 up to 2^1023, at alpha = 256
    phi = transition_evaluator(n, 256)
    for i in range(41):
        t = 2.0 ** ((505 + 518 * i / 40) / 512)
        want = _exact_phi(n, 256, t)
        assert abs(phi(t) - want) <= 1e-12 * want, t


@pytest.mark.parametrize("n", [0, 3])
@pytest.mark.parametrize("alpha", [F(1, 100), F(1, 50), F(1, 4)])
def test_subnormal_t_is_inf_only_where_phi_exceeds_the_float_range(n, alpha):
    # at alpha < 1/2 the part t^(2a-1) of the head grows as t -> 0, and at a
    # subnormal t and alpha = 1/100 or 1/50 it overflows.  Phi_n is then inf
    # where it is past DBL_MAX (1/100) and finite where 4 a^2 brings it back
    # (1/50 at 5e-324), never an escaped OverflowError.  The reference is
    # Phi_n's log by the same p/w sum, with the head taken in log space
    phi = transition_evaluator(n, alpha)
    row, den = transition_poly(n).specialize(alpha)
    a = float(alpha)
    for t in (5e-324, 1e-320, 1e-310):
        z = t ** (2 * a)
        p, w = z / (1 + z), 1 / (1 + z)
        total = sum(c / den * p ** j * w ** (n + 2 - j) for j, c in enumerate(row))
        log_phi = math.log(4 * a * a) + (2 * a - 1) * math.log(t) + math.log(total)
        if log_phi > math.log(sys.float_info.max):
            assert phi(t) == math.inf, t
        else:
            assert phi(t) == pytest.approx(math.exp(log_phi), rel=1e-9), t


def test_subnormal_t_at_an_alpha_below_the_float_range_is_zero():
    # float(1/10^400) is 0.0, so the head comes from the logs of the exact
    # alpha; there Phi_0 = 4 a^2 t^(2a-1) / (1+z)^2 is ~1e-477, below every float
    for t in (5e-324, 1e-310):
        assert transition_evaluator(0, F(1, 10**400))(t) == 0.0


def _softplus(x):
    """ln(1 + e^x) for a Decimal x, never forming e^x of a large x."""
    if x > 0:
        return x + (1 + (-x).exp()).ln()
    return (1 + x.exp()).ln()


def _log_space_phi(n, a, t):
    """Phi_n(a, t) = 4 a^2 t^(2a-1) sum_j c_j p^j w^(n+2-j) from its log in
    60-digit decimal arithmetic, at the exact a and t, rounded once to a float.
    With l = ln z = 2a ln t, ln p = -softplus(-l) and ln w = -softplus(l)."""
    with localcontext() as ctx:
        ctx.prec = 60
        A = Decimal(a.numerator) / Decimal(a.denominator)
        ln_t = Decimal(t).ln()
        ln_p, ln_w = -_softplus(-2 * A * ln_t), -_softplus(2 * A * ln_t)
        row, den = transition_poly(n).specialize(a)
        terms = [(Decimal(abs(c)).ln() - Decimal(den).ln() + j * ln_p + (n + 2 - j) * ln_w,
                  1 if c > 0 else -1) for j, c in enumerate(row) if c]
        top = max(log for log, _ in terms)
        total = sum(sign * (log - top).exp() for log, sign in terms)
        if total == 0:
            return 0.0
        log_phi = Decimal(4).ln() + 2 * A.ln() + (2 * A - 1) * ln_t + top + abs(total).ln()
        if log_phi > 710:
            return math.copysign(math.inf, total)
        if log_phi < -760:
            return math.copysign(0.0, total)
        return math.copysign(float(log_phi.exp()), total)


@pytest.mark.parametrize("alpha", [F(10**150), F(10**160), F(10**200),
                                   F(1, 10**160), F(1, 10**163)],
                         ids=["10^150", "10^160", "10^200", "10^-160", "10^-163"])
def test_evaluation_at_extreme_alphas_is_never_nan_and_matches_its_log(alpha):
    # at 10^150 the asymptotic form was inf * 0 at every t > 1; past 10^153.8
    # the float 4 a^2 overflows, and below 10^-154.1 it is subnormal (10^-160)
    # or 0.0 (10^-163).  There 4 a^2 t^(2a-1) and 4 a^2 lead t^(-1-2a) come
    # from the logs of the exact alpha.  The tolerance adds one subnormal step,
    # the most a value below DBL_MIN can hold of a relative accuracy
    for n in range(3):
        try:
            phi = transition_evaluator(n, alpha)
        except OverflowError:  # a coefficient of P_n, ~alpha^n, past DBL_MAX
            assert n == 2 and alpha >= 10**160
            continue
        for t in (1e-300, 1e-3, 0.5, 1.0, 1.0000001, 2.0, 10.0, 1e3, 1e300):
            if (n, t) == (1, 1.0) and alpha >= 10**160:
                # open: the float sum (1 - 2a) / 8 + (1 + 2a) / 8 cancels to 0
                # and the head 4 a^2 is inf; its finite twin at 10^150 gives 0.0
                continue
            value = phi(t)
            assert not math.isnan(value), (n, t)
            if math.isfinite(value) and value:
                want = _log_space_phi(n, alpha, t)
                assert abs(value - want) <= 1e-12 * abs(want) + 2.0 ** -1074, (n, t)


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


def test_log_weight_derivatives_fill_the_cache_upward():
    log_weight_derivatives.cache_clear()
    derivs = log_weight_derivatives(25)
    assert log_weight_derivatives.cache_info().currsize == 25
    for count in range(1, 25):
        assert log_weight_derivatives(count) == derivs[:count]
    assert derivs[24] == derivs[23].derivative()


def test_cold_log_weight_derivatives_do_not_recurse_deeply():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    log_weight_derivatives.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        derivs = log_weight_derivatives(80)
    finally:
        sys.setrecursionlimit(limit)
    assert len(derivs) == 80


def test_oracle_base_case_structure():
    # 4a^2 t^(2a-1) (1+t^(2a))^(-2): key (k, p, q) = (2, -1, 1), alpha-row (0, 0, 4)
    oracle = transition_oracle(0)
    assert (oracle.rows, oracle.den) == ((((2, -1, 1), (0, 0, 4)),), 1)
    # at a = 1/2 this is 1/(1+t)^2
    for t in (0.2, 1.0, 9.0):
        assert mixed_eval(transition_oracle(0), 0.5, t) == pytest.approx(
            1.0 / (1.0 + t) ** 2, rel=1e-14)


def _generic_oracle(n_max):
    """Phi_0..Phi_n_max by -d/dt[(-1)^(n+1)/n! t^(n+1) w^(n+1)], every step
    rebuilt through the generic MixedSum constructor, as a reference; with
    the chain w', w'', ..., w^(n_max+2) it built on the way."""

    def derivative(s):
        out = []
        for (k, p, q), row in s.rows:
            out.append(((k, p - 1, q), [p * x + 2 * q * y for x, y in zip((*row, 0), (0, *row))]))
            out.append(((k + 1, p - 1, q + 1), [0, *(-2 * k * x for x in row)]))
        return MixedSum(out, s.den)

    deriv = MixedSum((((1, -1, 0), (0, -2)),))  # w'
    oracles, chain = [], [deriv]
    for n in range(n_max + 1):
        f = -F((-1) ** (n + 1), math.factorial(n))
        scaled = MixedSum(((key, [x * f.numerator for x in row]) for key, row in deriv.rows),
                          deriv.den * f.denominator)
        shifted = MixedSum((((k, p + n + 1, q), row) for (k, p, q), row in scaled.rows),
                           scaled.den)
        oracles.append(derivative(shifted))
        deriv = derivative(deriv)
        chain.append(deriv)
    return oracles, chain


def test_oracle_equals_the_generic_constructor_chain():
    transition_oracle.cache_clear()
    log_weight_derivatives.cache_clear()
    oracles, chain = _generic_oracle(40)
    for n, want in enumerate(oracles):
        got = transition_oracle(n)
        assert (got.rows, got.den) == (want.rows, want.den)
    assert len(chain) == 42
    for got, want in zip(log_weight_derivatives(42), chain):
        assert (got.rows, got.den) == (want.rows, want.den)


@pytest.mark.parametrize("n", [0, 20])
def test_cold_oracle_reads_the_chain_only_up_to_w_of_order_n_plus_1(n):
    transition_oracle.cache_clear()
    log_weight_derivatives.cache_clear()
    transition_oracle(n)
    assert log_weight_derivatives.cache_info().currsize == n + 1


def _stripped(row):
    row = list(row)
    while row and not row[-1]:
        row.pop()
    return tuple(row)


def test_recurrence_equals_the_oracle_exactly():
    # every oracle key has p = -1, so t * Phi_n is sum c_(q,k)(a) z^q (1+z)^(-k)
    # in z = t^(2a), and Phi_n = 4a^2 t^(-1) z P_n / (1+z)^(n+2): the two
    # constructions agree exactly when sum c_(q,k) z^q (1+z)^(n+2-k) = 4a^2 z P_n
    # in Q[a][z]; here in integer rows, cross-multiplied by both denominators
    for n in range(31):
        oracle, P = transition_oracle(n), transition_poly(n)
        left = {}  # power of z -> integer alpha-row
        for (k, p, q), row in oracle.rows:
            assert p == -1 and k <= n + 2, (n, k, p, q)
            m = n + 2 - k
            for i in range(m + 1):  # z^q (1+z)^m = sum_i C(m, i) z^(q+i)
                c = math.comb(m, i) * P.den
                left[q + i] = [x + c * y for x, y in
                               zip_longest(left.get(q + i, ()), row, fillvalue=0)]
        right = {j + 1: [0, 0, *(4 * oracle.den * x for x in row)]
                 for j, row in enumerate(P.rows)}
        assert ({j: _stripped(r) for j, r in left.items() if any(r)}
                == {j: _stripped(r) for j, r in right.items() if any(r)}), n


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


# -- the oracle at one alpha: integer walk, exact identity, float bounds ----

@pytest.mark.parametrize("alpha", [F(1, 4), F(90, 97), F(2), F(7, 3), F(1, 10**160), F(10**7)])
def test_oracle_walk_equals_the_q_alpha_oracle_specialized(alpha):
    # the walk at alpha = a/b against transition_oracle(n) in Q[alpha], valued
    # at alpha; and, at the same alpha, its identity with 4 a^2 z P_n
    for n, (c, den) in enumerate(_oracle_walk(alpha, 25)):
        oracle = transition_oracle(n)
        rows = dict(oracle.rows)
        keys = [(q + 1, -1, q) for q in range(1, n + 2)]
        assert set(rows) <= set(keys), n
        want = [row_value(rows.get(key, ()), oracle.den, alpha) for key in keys]
        assert [F(x, den) for x in c] == want, n
        assert _identity_holds(c, den, *transition_poly(n).specialize(alpha), alpha), n


@pytest.mark.parametrize("alpha, grid_sees_it", [(F(1, 4), True), (F(1, 1000), False)])
def test_one_unit_off_in_one_coefficient_fails_the_identity(alpha, grid_sees_it):
    # P_5's last coefficient (of alpha^5 z^5) raised by one unit over its
    # denominator: at 1/1000 that moves P_5 by ~1e-16 of itself, which no float
    # comparison sees, yet the exact identity fails at n = 5 and so does validate()
    good = PhiFamily.build(alpha, 20)
    rows = [list(row) for row in good.polys[5].rows]
    rows[-1][-1] += 1
    polys = (*good.polys[:5], ZPolynomial(rows, good.polys[5].den), *good.polys[6:])
    assert good.validate() is True
    assert PhiFamily(alpha, 20, polys).validate() is False
    report = oracle_equiv_check(20, [alpha], (0.1, 0.5, 1.0, 2.0, 10.0), 1e-10, polys)
    assert report.identity_failures == ((5, alpha),)
    assert bool(report.failures) is grid_sees_it


def test_validate_refuses_a_family_whose_polys_do_not_match_max_n():
    # validate() reads the family's own polynomials, one per index 0..max_n
    polys = PhiFamily.build(F(1, 3), 4).polys
    assert PhiFamily(F(1, 3), 4, polys).validate() is True
    assert PhiFamily(F(1, 3), 5, polys).validate() is False
    assert PhiFamily(F(1, 3), 3, polys).validate() is False


def test_validate_holds_at_every_k_over_97_up_to_4():
    # while the Q[alpha] oracle was collapsed to floats by Horner in float alpha,
    # validate() was False at 321 of these alphas, at every k >= 66 but a few
    assert [k for k in range(1, 389) if not PhiFamily.build(F(k, 97), 20).validate()] == []


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 20),
       alpha=st.fractions(min_value=F(1, 256), max_value=8, max_denominator=4099),
       t=st.floats(min_value=1e-3, max_value=1e3))
def test_each_float_view_stays_within_its_running_bound(n, alpha, t):
    # the reference is t Phi_n = 4 a^2 z P_n(a, z) / (1+z)^(n+2), rational in
    # z, valued exactly at the float z = t^(2a) that both views use.  What this
    # cannot pin: pow's rounding of z itself, which both views share; the
    # recurrence's head t^(2a-1), a second pow that its bound charges one ulp
    # but no rational reference reproduces; and the terms of second order in
    # u that the bounds leave out.  Over t in [1e-3, 1e3] no z is subnormal
    # and no view takes the asymptotic form
    z = t ** (2.0 * float(alpha))
    row, pden = transition_poly(n).specialize(alpha)
    zf = F(z)
    want = 4 * alpha ** 2 * zf * row_value(row, pden, zf) / ((1 + zf) ** (n + 2) * F(t))
    c, den = list(_oracle_walk(alpha, n))[-1]
    views = {"recurrence": _recurrence_view(row, pden, n, alpha),
             "oracle": _oracle_view(c, den, n, 2.0 * float(alpha))}
    for name, view in views.items():
        value, bound = view(t)
        assert abs(F(value) - want) <= F(bound), name


@pytest.mark.parametrize("alpha, n, t", [
    (F(10 ** 155), 0, 0.5), (F(10 ** 155), 1, 0.5), (F(10 ** 155), 1, 0.1),
    (F(10 ** 160), 0, 0.5), (F(10 ** 160), 1, 0.5),
    (F(1, 10 ** 170), 0, 5e-324), (F(1, 10 ** 170), 1, 1e-310),
])
def test_recurrence_bound_is_infinite_where_its_allowance_reads_inf_times_zero(alpha, n, t):
    # the float 4 a^2 is inf and t^(2a-1) underflows to 0.0 (or 4 a^2 is 0.0
    # and t^(2a-1) is inf): the underflow allowance has no finite statement,
    # so the point is inconclusive rather than failed by a NaN bound
    row, pden = transition_poly(n).specialize(alpha)
    value, bound = _recurrence_view(row, pden, n, alpha)(t)
    assert math.isfinite(value) and not bound < math.inf
    report = oracle_equiv_check(n, [alpha], [t], 1e-10)
    assert report.passed
    assert (n, alpha, t) in [point[:3] for point in report.inconclusive]


def test_recurrence_bounds_match_golden_reprs():
    # repr of the recurrence view's value and bound for n <= 6 at 1/4, 90/97
    # and 2 over nine t from 1e-300 to 1e300, recorded before the allowance
    # gained its inf * 0 case: no bound outside that case moves by a bit
    rows = json.loads((Path(__file__).parent / "data" / "recurrence_bounds.json").read_text())
    assert len(rows) == 3 * 7 * 9
    views = {}
    mismatches = []
    for row in rows:
        key = (row["n"], F(row["alpha"]))
        if key not in views:
            views[key] = _recurrence_view(*transition_poly(key[0]).specialize(key[1]), *key)
        got = tuple(map(repr, views[key](float(row["t"]))))
        if got != (row["value"], row["bound"]):
            mismatches.append((row, got))
    assert mismatches == []


def test_step_recurrence_via_finite_differences():
    # each family member is -(t^n / n) d/dt [ previous * t^(1-n) ]
    for n in (1, 2, 4):
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            for t in (0.3, 1.0, 3.0):
                h = t * 1e-6

                def scaled(u, _n=n, _prev=transition_evaluator(n - 1, alpha)):
                    return _prev(u) * u ** (1 - _n)

                slope = (scaled(t + h) - scaled(t - h)) / (2 * h)
                expected = -(t ** n / n) * slope
                got = transition_evaluator(n, alpha)(t)
                assert got == pytest.approx(expected, rel=1e-5)


def _base_derivative_shortcut(n):
    """The *suspect* shortcut (-1)^n/n! * d^n/dt^n Phi_0 as a mixed sum.

    It looks like an iterated version of the n = 0 case, but it is NOT Phi_n
    for n >= 1: already at alpha = 1/2, n = 1 it gives 2/(1+t)^3 where the
    true transition function is 2t/(1+t)^3.
    """
    s = transition_oracle(0)
    for _ in range(n):
        s = s.derivative()
    f = F((-1) ** n, math.factorial(n))
    return MixedSum([(key, [f.numerator * x for x in row]) for key, row in s.rows],
                    s.den * f.denominator)


def test_alternative_shortcut_disagrees_beyond_base_case():
    """The tempting shortcut (scaled n-th derivatives of the base member)
    matches at n = 0 but is NOT the same family from n = 1 on; the gap is
    macroscopic and documented in the design notes."""
    # base case: exact agreement
    for t in (0.5, 1.0, 2.0):
        assert mixed_eval(_base_derivative_shortcut(0), 0.5, t) == (
            pytest.approx(transition_evaluator(0, F(1, 2))(t), rel=1e-14))
    # first step: off by a factor 2 at this point (2/27 versus 4/27)
    shortcut = mixed_eval(_base_derivative_shortcut(1), 0.5, 2.0)
    true_value = transition_evaluator(1, F(1, 2))(2.0)
    assert true_value == pytest.approx(4.0 / 27.0, rel=1e-14)
    assert shortcut == pytest.approx(2.0 / 27.0, rel=1e-12)
    assert abs(shortcut - true_value) > 1e-2


# -- asymptotic sanity ---------------------------------------------------------

def test_asymptotic_report_small_and_large_t():
    # sampled decay of Phi_n at both ends of the half-line, read off the
    # stable evaluator: t^(1+2a) |Phi_n| rises to 4 a^2 lead(P_n)(a) as
    # t -> infinity, and t^(1+w) |Phi_n| falls like t^(2a+w) as t -> 0
    for n, a, w in ((0, F(1, 2), F(1, 10)), (2, F(1, 4), F(1))):
        phi = transition_evaluator(n, a)
        af, wf = float(a), float(w)
        P = transition_poly(n)
        limit = 4 * af * af * float(row_value(P.rows[-1], P.den, a))
        large = [t ** (1 + 2 * af) * abs(phi(t)) for t in (1e3, 1e6, 1e9)]
        assert large == sorted(large), n
        assert all(v <= limit * (1 + 1e-6) for v in large), n
        assert large[-1] == pytest.approx(limit, rel=1e-3), n
        small = [t ** (1 + wf) * abs(phi(t)) for t in (1e-3, 1e-6, 1e-9)]
        assert small == sorted(small, reverse=True), n
        assert small[-1] <= 10 * 1e-6 ** (2 * af + wf) * small[0], n


EMPTY ="^sample grids must be non-empty$"


@pytest.mark.parametrize("check, message", [
    (lambda: oracle_equiv_check(1, [], [1.0]), EMPTY),
    (lambda: oracle_equiv_check(1, [F(1, 2)], []), EMPTY),
    # no index to check: refused before the invalid t sample is read
    (lambda: oracle_equiv_check(-1, [F(1, 2)], [-5.0]), "^n_max must be >= 0$"),
], ids=["oracle-alphas", "oracle-ts", "oracle-negative-n"])
def test_empty_sample_grids_are_refused(check, message):
    with pytest.raises(ValueError, match=message):
        check()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_oracle_comparison_admits_every_t_before_building_an_oracle(bad):
    # one message for every t that is not positive and finite, raised before
    # the first oracle is built or P_n fetched, wherever the bad t sits
    transition_oracle.cache_clear()
    transition_poly.cache_clear()
    for ts in ([bad, 1.0], [0.5, 2.0, bad]):
        with pytest.raises(ValueError, match="^t samples must be positive and finite$"):
            oracle_equiv_check(3, [F(1, 4)], ts)
    assert transition_oracle.cache_info().currsize == 0
    assert transition_poly.cache_info().currsize == 0


def test_family_builder_and_validation():
    fam = PhiFamily.build(F(1, 2), max_n=4)
    assert fam.max_n == 4
    assert len(fam.polys) == 5
    assert fam.validate()
    phi2 = transition_evaluator(2, fam.alpha)
    assert phi2(1.0) == pytest.approx(3.0 / 16.0, rel=1e-14)  # 3 t^2 / (1+t)^4


def test_oracle_comparison_fails_points_whose_deviation_is_not_finite():
    # at alpha = 10^110 both float routes overflow.  At n = 2, t = 1 the
    # recurrence returns -inf: its evaluator's defect fails the point.  The
    # oracle's terms overflow with both signs, so its other three points
    # read NaN with a NaN bound: a view that cannot bound them leaves them
    # inconclusive, never passed
    report = oracle_equiv_check(2, [10**110], [1.0, 2.0], 1e-10)
    assert not report.passed
    [(n, _, t, a_val, _)] = report.failures
    assert (n, t, a_val) == (2, 1.0, -math.inf)
    oracle_nan = [(n, t) for n, _, t, _, b_val in report.inconclusive if math.isnan(b_val)]
    assert oracle_nan == [(1, 1.0), (1, 2.0), (2, 2.0)]
    assert report.max_deviation == math.inf
    assert PhiFamily.build(10**110, 2).validate() is False


def test_an_oracle_view_without_a_finite_bound_fails_no_point():
    # past alpha ~ 6.7e153 (and below its reciprocal) the oracle view's bound
    # reads NaN at these t; its points are inconclusive, as the recurrence
    # view's are where its own bound cannot be stated
    report = oracle_equiv_check(1, [10**150, F(1, 10**150)], (0.5, 1.0, 2.0), 1e-10)
    assert report.passed
    assert report.failures == ()
    assert {(n, t) for n, alpha, t, _, _ in report.inconclusive if alpha == 10**150} \
        >= {(1, 0.5), (1, 1.0), (1, 2.0)}


INF, NAN = math.inf, math.nan
ETA = 2.0 ** -1074


@pytest.mark.parametrize("a_val, a_bound, b_val, b_bound, rel_tol, verdict, deviation", [
    # 1. the recurrence's value is not finite: fail, whatever the rest
    (INF, 0.25, INF, 0.25, 0.0, "fail", INF),
    (-INF, 0.25, -INF, 0.25, 0.0, "fail", INF),
    (NAN, 0.25, 1.0, 0.25, 0.5, "fail", INF),
    (NAN, INF, 1.0, NAN, 0.5, "fail", INF),
    # 2. the bounds have no finite sum: inconclusive, never a pass
    (1.0, INF, 1.0, 0.25, 0.5, "inconclusive", 0.0),
    (1.0, 0.25, 1.0, INF, 0.5, "inconclusive", 0.0),
    (1.0, NAN, 1.0, 0.25, 0.0, "inconclusive", 0.0),
    (1.0, 0.25, NAN, NAN, 0.0, "inconclusive", 0.0),
    (1.0, 0.25, -INF, INF, 0.0, "inconclusive", 0.0),
    # 3. |a - b| past the allowance, or NaN: fail
    (1.0, 0.25, 2.0, 0.25, 0.0, "fail", 2.0),
    (1.0, 0.125, 2.0, 0.125, 0.5, "fail", 4 / 3),
    (1.0, 0.25, NAN, 0.25, 0.5, "fail", INF),
    (1.0, 0.25, INF, 0.25, 0.5, "fail", INF),
    (1.0, 0.25, -INF, 0.25, 0.5, "fail", INF),
    # 4. within the allowance but the bounds exceed rel_tol |a|: inconclusive;
    #    at rel_tol 0 every positive bound makes it so
    (1.0, 0.25, 1.5, 0.25, 0.0, "inconclusive", 1.0),
    (1.0, ETA, 1.0, ETA, 0.0, "inconclusive", 0.0),
    (0.0, ETA, 0.0, ETA, 0.5, "inconclusive", 0.0),
    # 5. pass
    (1.0, 0.125, 1.25, 0.125, 0.5, "pass", 1 / 3),
    (-1.0, 0.125, -1.0, 0.125, 0.5, "pass", 0.0),
])
def test_judge_rules_each_point_in_order(a_val, a_bound, b_val, b_bound, rel_tol, verdict,
                                         deviation):
    got, ratio = _judge(a_val, a_bound, b_val, b_bound, rel_tol)
    assert got == verdict
    assert ratio == pytest.approx(deviation, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, 170), sign=st.sampled_from([1, -1]), n=st.integers(0, 2))
def test_no_point_fails_on_an_allowance_that_is_not_finite(k, sign, n):
    # from alpha = 1 to 10^170 and 10^-170: the crosscheck raises nothing,
    # the exact identity holds, and a failing point is the recurrence's
    # non-finite value or a deviation past a finite allowance
    alpha = F(10) ** (sign * k)
    report = oracle_equiv_check(n, [alpha], _VALIDATE_TS, _VALIDATE_REL_TOL)
    assert report.identity_failures == ()
    walk = list(_oracle_walk(alpha, n))
    for m, _, t, a_val, _ in report.failures:
        row, pden = transition_poly(m).specialize(alpha)
        spread = (_recurrence_view(row, pden, m, alpha)(t)[1]
                  + _oracle_view(*walk[m], m, 2.0 * float(alpha))(t)[1])
        assert not math.isfinite(a_val) or math.isfinite(spread), (m, t)


def test_oracle_comparison_fails_every_point_of_an_index_without_a_float_row():
    # at alpha = 10^110 the coefficients of P_3 (~alpha^3) are past DBL_MAX, so
    # the recurrence has no float view there: its points fail with NaN, the
    # exact identity still decides the index, and nothing escapes
    report = oracle_equiv_check(3, [10**110], [1.0, 2.0], 1e-10)
    last = [point for point in report.failures if point[0] == 3]
    assert len(last) == 2 and all(math.isnan(point[3]) for point in last)
    assert report.identity_failures == ()
    assert report.max_deviation == math.inf
    assert PhiFamily.build(10**110, 3).validate() is False


def test_oracle_comparison_passes_at_90_over_97_within_its_bounds():
    # the Q[alpha] oracle's float collapse failed 13 of these points (max 1.23e-8
    # on |a - b| / (1 + |a|)); Horner in p on the walk's coefficients keeps every
    # deviation within bound_a + bound_b + rel_tol |a|, and the identity holds
    report = oracle_equiv_check(20, [F(90, 97)], (0.1, 0.5, 1, 2, 10), 1e-10)
    assert report.failures == () and report.identity_failures == ()
    assert report.checked == 21 * 5
    assert 0.0 < report.max_deviation <= 1.0
    # validate() compares at these five t within 1e-10, and so passes here too
    assert PhiFamily.build(F(90, 97), 20).validate() is True


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_oracle_comparison_refuses_a_tolerance_outside_zero_to_infinity(tol):
    # no deviation exceeds a NaN rel_tol, so every comparison would pass
    with pytest.raises(ValueError, match="^rel_tol must be nonnegative and finite$"):
        oracle_equiv_check(2, [F(1, 2)], [1.0], rel_tol=tol)


def test_float_values_match_golden_reprs():
    # repr of both float routes over n <= 12, five alphas and five t values,
    # recorded when the exact coefficients were still stored as Fractions:
    # the integer representation must reproduce every value bit for bit
    rows = json.loads((Path(__file__).parent / "data" / "transition_floats.json").read_text())
    assert len(rows) == 13 * 5 * 5
    mismatches = []
    for row in rows:
        n, a, t = row["n"], F(row["alpha"]), float(row["t"])
        got = (repr(mixed_eval(transition_oracle(n), float(a), t)),
               repr(transition_evaluator(n, a)(t)))
        if got != (row["oracle"], row["recurrence"]):
            mismatches.append((row, got))
    assert mismatches == []
