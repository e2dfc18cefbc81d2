"""Certified quadrature of the reduction argument's integral identities."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khabcheck import constants, quadrature
from khabcheck.cli import main
from khabcheck.constants import rhs_constant
from khabcheck.quadrature import (
    DEFAULT_CONFIG,
    ChainReport,
    DensityFunction,
    PremiseEntry,
    QuadConfig,
    QuadResult,
    default_chain_grid,
    extremal_density_fn,
    integrate_half_line,
    integrate_log_moment,
    integrate_unit_interval,
    integrate_weight_prime_moment,
    log_spaced,
    reconstruction_sweep,
    verify_conjecture_chain,
    verify_weighted_moment,
)
from khabcheck.positivity import PositivityVerdict, Status
from khabcheck.kernel import kernel_eval
from khabcheck.transition import transition_evaluator


# -- configuration and result plumbing ----------------------------------------

def test_config_defaults_and_validation():
    assert DEFAULT_CONFIG.abs_tol == 1e-10
    assert DEFAULT_CONFIG.rel_tol == 1e-9
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_tolerances_must_be_finite(tol):
    # with both tolerances inf, a log moment 1.7e-3 off 2 pi would count as converged
    for field in ("abs_tol", "rel_tol"):
        with pytest.raises(ValueError, match="^tolerances must be positive and finite$"):
            QuadConfig(**{field: tol})
    alpha = F(1, 4)
    with pytest.raises(ValueError, match="^premise_tol must be nonnegative and finite$"):
        verify_conjecture_chain(2, alpha, extremal_density_fn(alpha, 2), premise_tol=tol)


def test_result_addition_accumulates_error_and_convergence():
    a = QuadResult(value=1.0, error_estimate=1e-12, converged=True,
                   subdivisions_used=3, evaluations=63)
    b = QuadResult(value=2.0, error_estimate=3e-12, converged=False,
                   subdivisions_used=4, evaluations=147)
    c = a + b
    assert c.value == 3.0
    assert c.error_estimate == pytest.approx(4e-12)
    assert not c.converged
    assert c.subdivisions_used == 7
    assert c.evaluations == 210


def _stall_flattening(monkeypatch):
    """Make every flattened pass (a ``_panel`` call without ``points``) report
    non-convergence, so a positive endpoint power falls back to the graded
    pass; no natural input is known to reach that fallback in the chain
    premise.  Returns the (points, result) of every pass, in call order."""
    panel = quadrature._panel
    passes = []

    def stalled(f, cfg, points=None):
        result = panel(f, cfg, points)
        if not points:
            result = result._replace(converged=False)
        passes.append((points, result))
        return result

    monkeypatch.setattr(quadrature, "_panel", stalled)
    return passes


def _counted(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


@pytest.mark.parametrize("integral, stalled", [
    (lambda f: integrate_unit_interval(f, power_at_zero=-0.5), False),  # flattened pass
    (lambda f: integrate_unit_interval(f), False),                      # graded pass
    (lambda f: integrate_unit_interval(f, power_at_zero=3.0), True),    # fallback: both
    (lambda f: integrate_half_line(f, power_at_zero=-0.5, decay_power=0.5), False),
], ids=["flattened", "graded", "fallback", "half-line"])
def test_evaluations_count_every_integrand_call(monkeypatch, integral, stalled):
    if stalled:
        _stall_flattening(monkeypatch)
    f, calls = _counted(lambda t: t ** -0.5 * math.sin(40.0 * t) / (1.0 + t))
    r = integral(f)
    assert r.evaluations == len(calls) > 0


def test_converged_respects_tolerances():
    r = integrate_unit_interval(lambda t: t * t)
    assert r.converged
    assert r.error_estimate <= max(DEFAULT_CONFIG.abs_tol,
                                   DEFAULT_CONFIG.rel_tol * abs(r.value))
    assert r.value == pytest.approx(1.0 / 3.0, rel=1e-14)


# -- endpoint handling ----------------------------------------------------------

def test_flattened_endpoint_power():
    r = integrate_unit_interval(lambda t: t ** -0.5, power_at_zero=-0.5)
    assert r.converged
    assert r.value == pytest.approx(2.0, rel=1e-13)
    r2 = integrate_unit_interval(lambda t: t ** -0.9, power_at_zero=-0.9)
    assert r2.value == pytest.approx(10.0, rel=1e-12)


def test_log_singularity_without_hint():
    r = integrate_unit_interval(lambda t: -math.log(t))
    assert r.converged
    assert r.value == pytest.approx(1.0, rel=1e-12)


def test_half_line_with_known_decay():
    r = integrate_half_line(lambda t: 1.0 / (1.0 + t * t), decay_power=1.0)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_half_line_rejects_nonconvergent_decay():
    with pytest.raises(ValueError):
        integrate_half_line(lambda t: 1.0 / (1.0 + t), decay_power=0.0)


def test_chain_conclusion_rejects_a_density_that_decays_too_slowly():
    # the conclusion integrand decays like t^(-1-d), d = 2a - 1 - 0 = 0 at a = 1/2
    q = DensityFunction(lambda t: 1.0, power_at_zero=0.0, power_at_infinity=0.0)
    with pytest.raises(ValueError, match=r"^tail decay power 0\.0 does not converge$"):
        verify_conjecture_chain(1, F(1, 2), q)


def test_unit_interval_rejects_nonintegrable_endpoint_power():
    with pytest.raises(ValueError, match=r"^endpoint power -1\.0 is not integrable$"):
        integrate_unit_interval(lambda t: 1.0 / t, power_at_zero=-1.0)


@pytest.mark.parametrize("alpha", ["1/64", "3/232", "256"])
def test_quadpack_evaluates_interior_nodes_only(monkeypatch, capsys, alpha):
    # no integrand handed to QUADPACK tests for v <= 0: its Gauss-Kronrod rules
    # evaluate interior nodes only, here over every suite of a report
    panel = quadrature._panel
    nodes = []

    def recording(f, cfg, points=None):
        def g(v):
            nodes.append(v)
            return f(v)

        return panel(g, cfg, points)

    monkeypatch.setattr(quadrature, "_panel", recording)
    code = main(["integrals", "--suite", "all", "--alpha", alpha,
                 "--y", "1e-12,1e-4,1/2,1e12", "--no-timestamp"])
    capsys.readouterr()
    assert code in (0, 1) and nodes
    assert 0.0 < min(nodes) and max(nodes) < 1.0


@pytest.mark.parametrize("driver", [lambda: reconstruction_sweep(-1, F(1, 2)),
                                    lambda: verify_weighted_moment(-1, F(1, 2))],
                         ids=["reconstruction", "weighted-moment"])
def test_a_negative_index_is_refused_by_the_polynomial_it_needs(driver):
    with pytest.raises(ValueError, match="^polynomial index must be >= 0$"):
        driver()


def test_tolerance_monotonicity():
    # tightening tolerances never worsens the achieved error
    errors = []
    for k in (3, 5, 7, 9, 11):
        cfg = QuadConfig(abs_tol=10.0 ** -k, rel_tol=10.0 ** -k)
        r = integrate_log_moment(F(1, 2), cfg)
        errors.append(abs(r.value - 2.0 * math.pi))
    for looser, tighter in zip(errors, errors[1:]):
        assert tighter <= looser + 1e-14
    assert errors[-1] <= 1e-12


# -- moment identities -----------------------------------------------------------

@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(1), F(2)])
def test_log_moment_is_pi_over_alpha(alpha):
    r = integrate_log_moment(alpha)
    assert r.quad.converged
    assert r.target == math.pi / float(alpha)
    assert r.value == r.quad.value
    assert abs(r.residual) < 1e-10


@pytest.mark.parametrize("alpha", [F(1, 2), F(1)])
def test_weight_prime_moment_is_minus_pi(alpha):
    r = integrate_weight_prime_moment(alpha)
    assert r.quad.converged
    assert r.target == -math.pi
    assert r.value == r.quad.value
    assert abs(r.residual) < 1e-10


def test_kernel_weighted_density_integral():
    # for the extremal density the inner integral has the closed form
    # t * int_0^1 A_0(x) q(tx) dx = t^a / a^2 / B(a, n) * a ... checked
    # against the premise driver at t = 1 instead: the grid entry target
    q = extremal_density_fn(F(1, 2), 1)
    (entry,) = [e for e in verify_conjecture_chain(1, F(1, 2), q).premise if e.t == 1.0]
    inner = entry.quad
    assert inner.converged
    # t=1: lhs = B(1/2,1)^(-1) * a * (1/a^2) scaled ... frozen oracle value:
    assert 1.0 * inner.value == pytest.approx(1.0, rel=1e-10)


# -- reconstruction and weighted moments ------------------------------------------

@pytest.mark.parametrize("n", [0, 2, 4])
@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2)])
@pytest.mark.parametrize("y", [0.5, 2.0])
def test_reconstruction_identity(n, alpha, y):
    check = reconstruction_sweep(n, alpha)(y)
    assert check.quad.converged
    assert abs(check.residual) < 1e-8


@pytest.mark.xfail(strict=True, reason="at small y the flattened pass never samples "
                   "the integrand's peak near u ~ y and reports convergence on ~0")
@pytest.mark.parametrize("n, alpha, y", [(1, F(2), 1e-4), (1, F(4), 1e-2),
                                         (6, F(1, 2), 1e-8)])
def test_converged_reconstruction_is_within_tolerance(n, alpha, y):
    check = reconstruction_sweep(n, alpha)(y)
    assert not check.quad.converged or abs(check.residual) <= 1e-6


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(1)])
def test_weighted_moment_identity(n, alpha):
    check = verify_weighted_moment(n, alpha)
    assert check.quad.converged
    assert check.target == pytest.approx(
        math.pi * float(rhs_constant(alpha, n + 1)), rel=1e-15)
    assert abs(check.residual) < 1e-8


# -- the density transform psi |-> int_0^oo Phi_{n-1}(t) psi(t) dt ------------------

def test_transform_of_plain_power_has_closed_form():
    # n=1, a=1/2, psi = sqrt: integral of t^(1/2) / (1+t)^2 over (0, oo) equals pi/2
    phi = transition_evaluator(0, F(1, 2))
    r = integrate_half_line(lambda t: phi(t) * math.sqrt(t),
                            power_at_zero=0.5, decay_power=0.5)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_transform_with_smooth_cutoff_loses_exactly_the_tail():
    """Truncating the density at T removes a tail whose size follows the
    closed form  pi/2 - arctan(sqrt T) + sqrt(T)/(1+T)  (n=1, a=1/2).

    The deficit is computed through the inverted substitution t = T/u so
    the cutoff sits at the integrator's own split point; integrating the
    truncated density straight through the half-line engine is unreliable
    because an adaptive mesh can miss a feature that deep in the tail.
    """
    a = F(1, 2)
    af = 0.5
    phi0 = lambda t: 1.0 / (1.0 + t) ** 2
    for T, budget in ((1e6, 2e-3), (1e9, 6.4e-5)):
        w = T / 50.0

        def remaining(t, T=T, w=w):
            x = (t - T) / w
            if x > 500.0:
                return 1.0
            if x < -500.0:
                return 0.0
            return 1.0 / (1.0 + math.exp(-x))

        def deficit_integrand(u, T=T, rem=remaining):
            if u <= 0.0:
                return 0.0
            t = T / u
            return phi0(t) * t ** af * rem(t) * T / (u * u)

        deficit = integrate_half_line(deficit_integrand,
                                      power_at_zero=-af, decay_power=3.0)
        assert deficit.converged
        step_deficit = (math.pi / 2.0 - math.atan(math.sqrt(T))
                        + math.sqrt(T) / (1.0 + T))
        # smoothing the step only shifts the loss by O((w/T)^2 * deficit)
        assert deficit.value == pytest.approx(step_deficit, rel=1e-3)
        assert 0.5 * budget < step_deficit <= budget
    # a 1e-4 truncation budget needs T around 1e9; 1e6 is an order too small
    assert (math.pi / 2.0 - math.atan(1e3) + 1e3 / (1.0 + 1e6)) > 1e-3
    assert (math.pi / 2.0 - math.atan(math.sqrt(1e9))
            + math.sqrt(1e9) / (1.0 + 1e9)) < 1e-4


# -- the full chain -------------------------------------------------------------------

def test_chain_grid_is_logarithmic():
    grid = default_chain_grid()
    assert len(grid) == 25
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e3)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)


def test_log_spaced_validation():
    assert log_spaced(1.0, 100.0, 3) == pytest.approx((1.0, 10.0, 100.0))
    with pytest.raises(ValueError):
        log_spaced(-1.0, 10.0, 5)
    with pytest.raises(ValueError):
        log_spaced(1.0, 10.0, 1)
    with pytest.raises(ValueError):
        log_spaced(10.0, 1.0, 5)


@pytest.mark.parametrize("lo, hi", [(1e-3, math.inf), (math.nan, 1.0), (1e-3, math.nan),
                                    (math.inf, math.inf)])
def test_log_spaced_rejects_nonfinite_bounds(lo, hi):
    with pytest.raises(ValueError):
        log_spaced(lo, hi, 3)


@pytest.mark.parametrize("lhs, converged", [(0.5, False), (math.nan, True)])
def test_premise_needs_converged_finite_integrals(lhs, converged):
    entry = PremiseEntry(t=1.0, lhs=lhs, target=1.0,
                         quad=QuadResult(lhs, 1e-14, converged, 21))
    held = PremiseEntry(t=2.0, lhs=0.5, target=2.0,
                        quad=QuadResult(0.25, 1e-14, True, 21))
    assert _report_over([held]).premise_satisfied
    assert entry.violation == math.inf
    failed = _report_over([held, entry])
    assert not failed.premise_satisfied
    assert failed.premise_max_violation == math.inf


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2)])
def test_chain_holds_for_extremal_density(n, alpha):
    report = verify_conjecture_chain(n, alpha, extremal_density_fn(alpha, n))
    assert report.applicable
    assert report.positivity.status is Status.NONNEGATIVE
    assert report.premise_satisfied
    assert report.premise_max_violation <= 1e-9
    # the extremal density saturates the premise: lhs == target on the grid
    assert report.premise_max_deviation <= 1e-8
    assert report.conclusion_satisfied
    assert report.equality_within_tol
    assert report.rhs_value == pytest.approx(
        math.pi * float(report.rhs_pi_coefficient), rel=1e-15)


def test_a_non_converged_conclusion_satisfies_neither_conclusion_property(monkeypatch):
    # with the flattened pass stalled, the conclusion's negative endpoint
    # power keeps its non-converged result, whose value still meets the
    # target: only the convergence test refuses it, as for a premise entry
    _stall_flattening(monkeypatch)
    alpha, n = F(1, 4), 1
    report = verify_conjecture_chain(n, alpha, extremal_density_fn(alpha, n))
    assert report.applicable and not report.conclusion.converged
    assert report.conclusion.value == pytest.approx(report.rhs_value, rel=1e-5)
    assert not report.conclusion_satisfied
    assert not report.equality_within_tol


def test_chain_premise_fails_for_doubled_density():
    alpha, n = F(1, 2), 1
    base = extremal_density_fn(alpha, n)
    doubled = DensityFunction(lambda t: 2.0 * base.evaluator(t),
                              base.power_at_zero, base.power_at_infinity)
    report = verify_conjecture_chain(n, alpha, doubled)
    assert report.applicable
    assert not report.premise_satisfied
    assert all(e.violation > 0 for e in report.premise)
    # conclusion integral doubles as well, so strict equality is lost
    assert not report.equality_within_tol


def test_chain_zero_density_satisfies_inequalities_but_not_equality():
    # the decay hint is a (vacuous) upper envelope for the zero density
    report = verify_conjecture_chain(1, F(1, 2), DensityFunction(lambda t: 0.0, 0.0, -2.0))
    assert report.applicable
    assert report.premise_satisfied      # 0 <= t^alpha everywhere
    assert report.conclusion_satisfied   # 0 <= pi-multiple target
    assert not report.equality_within_tol


def test_chain_inapplicable_above_critical_alpha():
    report = verify_conjecture_chain(2, F(3, 4),
                                     extremal_density_fn(F(3, 4), 2))
    assert not report.applicable
    assert report.positivity.status is Status.NEGATIVE
    assert report.premise == ()
    assert report.conclusion is None


def test_premise_entry_semantics():
    ok = PremiseEntry(t=1.0, lhs=0.8, target=1.0,
                      quad=QuadResult(0.8, 1e-14, True, 21))
    assert ok.violation == 0.0
    assert ok.deviation == pytest.approx(0.2)
    bad = PremiseEntry(t=1.0, lhs=1.3, target=1.0,
                       quad=QuadResult(1.3, 1e-14, True, 21))
    assert bad.violation == pytest.approx(0.3)


def _report_over(entries):
    return ChainReport(conjecture_n=1, poly_index=0, alpha=F(1, 2),
                       positivity=PositivityVerdict(Status.NONNEGATIVE, "test"),
                       applicable=True, premise=tuple(entries), premise_tol=1e-6)


@pytest.mark.parametrize("target", [1e-3, 1.0, 1e12])
def test_premise_tolerance_scales_with_targets_above_one(target):
    allowed = 1e-6 * max(1.0, target)

    def entry(violation):
        return PremiseEntry(t=1.0, lhs=target + violation, target=target,
                            quad=QuadResult(target + violation, 1e-14, True, 21))

    assert _report_over([entry(0.5 * allowed)]).premise_satisfied
    over = _report_over([entry(2.0 * allowed), entry(0.0)])
    assert not over.premise_satisfied
    # the record fields stay absolute
    assert over.premise_max_violation == pytest.approx(2.0 * allowed, rel=1e-3)


@pytest.mark.parametrize("alpha", [F(14922, 4099), F(31482, 4099)])
def test_chain_premise_holds_at_large_targets(alpha):
    # targets t^alpha reach 1e10..1e23 on the default grid, where the
    # premise's rounding error is a few ulps and far above 1e-6 absolute
    report = verify_conjecture_chain(1, alpha, extremal_density_fn(alpha, 1))
    assert report.applicable
    assert report.premise_max_violation > 1e-6
    assert report.premise_satisfied


@pytest.mark.parametrize("n, alpha", [(4, F(11163, 4099)), (3, F(12073, 4099))])
def test_reconstruction_falls_back_to_graded_pass(n, alpha):
    # flattening u^(2a-1) with m = 1/(2a) ~ 0.18 stalls QUADPACK's
    # extrapolation; the graded pass of the same integrand converges
    check = reconstruction_sweep(n, alpha)(0.5)
    assert check.quad.converged
    assert abs(check.residual) <= 1e-6


def test_fallback_counts_the_subdivisions_of_both_passes():
    # 14 in the flattened pass that stalls, 5 in the graded pass that converges
    check = reconstruction_sweep(4, F(11163, 4099))(0.5)
    assert check.quad.converged
    assert check.quad.subdivisions_used == 14 + 5


def test_nonconverged_flattened_panel_is_retried_only_for_positive_powers(monkeypatch):
    passes = _stall_flattening(monkeypatch)
    # positive power: the graded pass replaces the failed flattened one
    positive = integrate_unit_interval(lambda x: x ** 3 * math.sin(40 * x),
                                       power_at_zero=3.0)
    (no_points, flat), (split, graded) = passes
    assert no_points is None and split == [1e-3]
    assert type(positive) is QuadResult
    assert positive == graded._replace(subdivisions_used=flat.subdivisions_used
                                       + graded.subdivisions_used,
                                       evaluations=flat.evaluations + graded.evaluations)
    assert positive.converged
    # negative power: the flattened result stands, converged or not
    passes.clear()
    negative = integrate_unit_interval(lambda x: x ** -0.5 * math.sin(40 * x),
                                       power_at_zero=-0.5)
    [(no_points, flat)] = passes
    assert no_points is None and negative == flat
    assert not negative.converged


# -- the chain's shared kernel table --------------------------------------------

@pytest.mark.parametrize("count", [25, 50])
@pytest.mark.parametrize("alpha", [F(1, 30), F(1, 4), F(1, 2)])
@pytest.mark.parametrize("n", [1, 3])
def test_chain_kernel_work_does_not_scale_with_the_grid(monkeypatch, n, alpha, count):
    calls = []
    kernel_eval = quadrature.kernel_eval

    def counting_kernel_eval(k, x):
        calls.append(x)
        return kernel_eval(k, x)

    monkeypatch.setattr(quadrature, "kernel_eval", counting_kernel_eval)
    # the default grid, or one twice as fine
    monkeypatch.setattr(quadrature, "default_chain_grid",
                        lambda: log_spaced(1e-3, 1e3, count))
    report = verify_conjecture_chain(n, alpha, extremal_density_fn(alpha, n))
    assert report.applicable and len(report.premise) == count
    # one evaluation per distinct node, shared by every t of the grid
    assert len(calls) == len(set(calls)) <= 1000


def _bits(r: QuadResult) -> tuple:
    return (r.value.hex(), r.error_estimate.hex(), r.converged,
            r.subdivisions_used, r.evaluations)


def _tableless_premise(n, q, t):
    """The premise integral as written, each node computed afresh."""
    def integrand(x):
        if x <= 0.0 or x > 1.0:
            return 0.0
        return kernel_eval(n - 1, x) * q.evaluator(t * x)

    return integrate_unit_interval(integrand, power_at_zero=q.power_at_zero)


@pytest.mark.parametrize("n, alpha, hints, stalled", [
    (2, F(1, 4), True, False),     # endpoint power -3/4
    (1, F(7, 2), True, False),     # endpoint power 5/2
    (1, F(7, 2), True, True),      # graded fallback
    (3, F(1, 3), False, False),    # graded pass only
], ids=["negative-power", "positive-power", "fallback", "hintless"])
def test_chain_premise_equals_one_shot_integrals_bit_for_bit(monkeypatch, n, alpha, hints,
                                                             stalled):
    passes = _stall_flattening(monkeypatch) if stalled else []
    q = extremal_density_fn(alpha, n)
    if not hints:
        q = DensityFunction(q.evaluator)
    report = verify_conjecture_chain(n, alpha, q)
    assert report.applicable and len(report.premise) == 25
    for entry in report.premise:
        assert _bits(entry.quad) == _bits(_tableless_premise(n, q, entry.t))
    if stalled:  # each integral ran both passes, flattened first: 25 premise
        # points on two routes, and the conclusion's head and tail
        assert [points for points, _ in passes] == [None, [1e-3]] * (2 * 25 + 2)


# -- the reconstruction's node table ------------------------------------------------

def _tableless_reconstruction(n, alpha, y):
    """The reconstruction integral as written, each node computed afresh."""
    phi = transition_evaluator(n, alpha)

    def integrand(u):
        if u <= 0.0 or u > 1.0:
            return 0.0
        return phi(y / u) * kernel_eval(n, u) * y / (u * u)

    return integrate_unit_interval(integrand, power_at_zero=2.0 * float(alpha) - 1.0)


@pytest.mark.parametrize("n, alpha, stalled", [
    (2, F(1, 4), False),     # endpoint power -1/2
    (1, F(7, 2), False),     # endpoint power 6
    (1, F(7, 2), True),      # graded fallback
    (3, F(1, 2), False),     # no power: graded pass only
], ids=["negative-power", "positive-power", "fallback", "graded"])
def test_reconstruction_sweep_equals_one_shot_integrals_bit_for_bit(monkeypatch, n, alpha,
                                                                    stalled):
    passes = _stall_flattening(monkeypatch) if stalled else []
    sweep = reconstruction_sweep(n, alpha)
    for y in (1e-3, 0.5, 1.0, 2.0, 1e3):
        swept = sweep(y)
        one_shot = reconstruction_sweep(n, alpha)(y)  # a fresh table per y
        assert _bits(swept.quad) == _bits(one_shot.quad) \
            == _bits(_tableless_reconstruction(n, alpha, y))
        assert (swept.value, swept.target) == (one_shot.value, one_shot.target)
    if stalled:  # each of the 15 integrals ran both passes, flattened first
        assert [points for points, _ in passes] == [None, [1e-3]] * 15


@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(7, 2)])
def test_reconstruction_kernel_work_does_not_scale_with_the_y_grid(monkeypatch, alpha):
    calls = []
    monkeypatch.setattr(quadrature, "kernel_eval",
                        lambda k, x: calls.append(x) or kernel_eval(k, x))
    sweep = reconstruction_sweep(2, alpha)
    evaluations = 0
    for y in log_spaced(1e-3, 1e3, 13):
        check = sweep(y)
        assert check.quad.converged
        evaluations += check.quad.evaluations
    # one evaluation per distinct node, shared by every y of the grid
    assert len(calls) == len(set(calls)) < evaluations / 3


# -- the extremal density's float route ------------------------------------------

def test_extremal_density_exact_constant_is_computed_once(monkeypatch):
    calls = []
    beta_int = constants.beta_int

    def counting_beta_int(alpha, n):
        calls.append((alpha, n))
        return beta_int(alpha, n)

    monkeypatch.setattr(quadrature, "beta_int", counting_beta_int, raising=False)
    monkeypatch.setattr(constants, "beta_int", counting_beta_int)
    alpha = F(1, 4)
    report = verify_conjecture_chain(3, alpha, extremal_density_fn(alpha, 3))
    assert report.applicable and len(report.premise) == 25
    assert len(calls) <= 1


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(alpha=st.fractions(min_value=F(1, 256), max_value=8, max_denominator=4099),
       n=st.integers(1, 6),
       t=st.floats(min_value=1e-300, max_value=1e300))
def test_density_fn_equals_one_shot_density_bit_for_bit(alpha, n, t):
    def one_shot(alpha, n, t):
        return float(alpha / constants.beta_int(alpha, n)) * t ** (float(alpha) - 1.0)

    assert _outcome(extremal_density_fn(alpha, n).evaluator, t) == _outcome(one_shot, alpha, n, t)


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_density_rejects_nonpositive_t_on_both_routes(t):
    with pytest.raises(ValueError, match="^t must be positive$"):
        extremal_density_fn(F(1, 2), 2).evaluator(t)
