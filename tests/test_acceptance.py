"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also enforces its runtime budget.
"""

import math
import random
import time
from fractions import Fraction as F

from khabcheck.constants import verify_moment_identity, verify_reciprocity
from khabcheck.exact import ZPolynomial
from khabcheck.positivity import (
    Status,
    alpha_threshold,
    poly_nonneg_on_pos,
)
from khabcheck.quadrature import (
    integrate_log_moment,
    integrate_weight_prime_moment,
    extremal_density_fn,
    log_spaced,
    reconstruction_sweep,
    verify_conjecture_chain,
    verify_weighted_moment,
)
from khabcheck.termalgebra import mixed_eval
from khabcheck.transition import (
    oracle_equiv_check,
    transition_evaluator,
    transition_oracle,
    transition_poly,
)


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str):
    ok_all = ok and elapsed < budget
    print(f"ACCEPTANCE {num}: {'PASS' if ok_all else 'FAIL'} - {detail} "
          f"[{elapsed:.2f}s of {budget:.0f}s budget]")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_exact_polynomial_layer():
    start = time.perf_counter()
    # (1 - 2a) + (2a + 1) z
    expected_1 = ZPolynomial(((1, -2), (1, 2)))
    # (1-2a)(1-a) + 2(1-2a)(2a+1) z + (2a+1)(a+1) z^2, expanded by hand
    expected_2 = ZPolynomial(((1, -3, 2), (2, 0, -8), (1, 3, 2)))
    ok = (transition_poly(0) == ZPolynomial(((1,),))
          and transition_poly(1) == expected_1
          and transition_poly(2) == expected_2)
    _verdict(1, ok, time.perf_counter() - start, 1.0,
             "members 1 and 2 match their closed forms coefficient-for-coefficient")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    report = oracle_equiv_check(
        n_max=8,
        alpha_samples=(F(1, 4), F(1, 2), F(3, 4)),
        t_samples=log_spaced(1e-2, 1e2, 20),
        rel_tol=1e-9,
    )
    ok = report.passed and report.checked == 9 * 3 * 20
    _verdict(2, ok, time.perf_counter() - start, 10.0,
             f"stable evaluation matches the derivative oracle at "
             f"{report.checked} points (max deviation {report.max_deviation:.2e})")


def test_criterion_3_exact_identity_suite():
    start = time.perf_counter()
    rng = random.Random(1234)
    ok = True
    for _ in range(50):
        den = rng.randint(1, 60)
        alpha = F(rng.randint(1, 3 * den), den)
        ok = ok and all(verify_moment_identity(alpha, 20))
        ok = ok and verify_reciprocity(alpha, 20)
    _verdict(3, ok, time.perf_counter() - start, 5.0,
             "moment identity and reciprocity exact for n <= 20 at 50 "
             "random rational alphas in (0, 3]")


def test_criterion_4_scalar_moments():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (F(1, 4), F(1, 2), F(1), F(2)):
        r = integrate_log_moment(alpha)
        worst = max(worst, abs(r.value - math.pi / float(alpha)))
    for alpha in (F(1, 2), F(1)):
        r = integrate_weight_prime_moment(alpha)
        worst = max(worst, abs(r.value + math.pi))
    _verdict(4, worst <= 1e-8, time.perf_counter() - start, 10.0,
             f"log moment pi/alpha and derivative moment -pi certified "
             f"(worst error {worst:.2e} <= 1e-8)")


def test_criterion_5_reconstruction_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(5):
        for alpha in (F(1, 4), F(1, 2)):
            sweep = reconstruction_sweep(n, alpha)  # one per (n, alpha), as the CLI builds
            for y in (0.5, 1.0, 2.0):
                worst = max(worst, abs(sweep(y).residual))
    _verdict(5, worst <= 1e-6, time.perf_counter() - start, 60.0,
             f"reconstruction residual over 30 (n, alpha, y) cells: "
             f"worst {worst:.2e} <= 1e-6")


def test_criterion_6_weighted_moments():
    start = time.perf_counter()
    worst = 0.0
    for n in range(5):
        for alpha in (F(1, 4), F(1, 2), F(1)):
            check = verify_weighted_moment(n, alpha)
            worst = max(worst, abs(check.residual))
    _verdict(6, worst <= 1e-6, time.perf_counter() - start, 60.0,
             f"weighted transition moments over 15 (n, alpha) cells: "
             f"worst {worst:.2e} <= 1e-6")


def test_criterion_7_extremal_chain():
    start = time.perf_counter()
    ok = True
    worst_premise = worst_equality = 0.0
    for n in (1, 2, 3):
        for alpha in (F(1, 4), F(1, 2)):
            report = verify_conjecture_chain(
                n, alpha, extremal_density_fn(alpha, n),
                premise_tol=1e-6)
            ok = ok and report.applicable and report.premise_satisfied
            ok = ok and report.premise_max_deviation <= 1e-6
            ok = ok and report.equality_within_tol
            worst_premise = max(worst_premise, report.premise_max_deviation)
            rel = abs(report.conclusion.value - report.rhs_value) / report.rhs_value
            worst_equality = max(worst_equality, rel)
    _verdict(7, ok, time.perf_counter() - start, 120.0,
             f"extremal chain for n in 1..3: premise deviation "
             f"{worst_premise:.2e} <= 1e-6, conclusion within "
             f"{worst_equality:.2e} <= 1e-5 of its pi-multiple")


def test_criterion_8_positivity_region():
    start = time.perf_counter()
    ok = True
    for alpha in (F(1, 10), F(1, 4), F(1, 2)):
        for n in range(9):
            ok = ok and (poly_nonneg_on_pos(transition_poly(n), alpha).status
                         is Status.NONNEGATIVE)
    # index 0 is the constant 1, nonnegative for every alpha, so the
    # negative side of the scan starts at index 1
    for alpha in (F(51, 100), F(3, 4)):
        for n in range(1, 9):
            v = poly_nonneg_on_pos(transition_poly(n), alpha)
            witness_ok = (v.status is Status.NEGATIVE and v.witness > 0
                          and v.witness_value < 0)
            if witness_ok:
                row, den = transition_poly(n).specialize(alpha)
                value = sum(F(c, den) * v.witness ** i for i, c in enumerate(row))
                witness_ok = value == v.witness_value
            ok = ok and witness_ok
    widths = []
    for n in range(1, 6):
        lo, hi = alpha_threshold(n, tol=1e-6)
        ok = ok and lo <= F(1, 2) <= hi and float(hi - lo) <= 1e-6
        widths.append(float(hi - lo))
    _verdict(8, ok, time.perf_counter() - start, 30.0,
             f"nonnegative through index 8 up to alpha=1/2, exact negativity "
             f"witnesses beyond, thresholds bracket 1/2 (max width "
             f"{max(widths):.2e})")


def test_criterion_9_documented_route_mismatch():
    start = time.perf_counter()
    # the shortcut (-1)^n/n! d^n/dt^n Phi_0 at n = 1 is -Phi_0'
    shortcut = -mixed_eval(transition_oracle(0).derivative(), 0.5, 2.0)
    true_value = transition_evaluator(1, F(1, 2))(2.0)
    gap = abs(shortcut - true_value)
    ok = gap > 1e-2
    _verdict(9, ok, time.perf_counter() - start, 1.0,
             f"scaled-derivative shortcut disagrees with the true member "
             f"at (n=1, alpha=1/2, t=2): gap {gap:.4f} > 1e-2")
