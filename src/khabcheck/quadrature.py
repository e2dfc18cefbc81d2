"""Adaptive quadrature for every integral identity in the reduction argument.

The integrals all live on (0, 1) or (0, oo) with algebraic and logarithmic
endpoint behavior.  The strategy, in order of preference:

* **Flatten known endpoint powers.**  If the integrand behaves like
  t^lam * (smooth) at 0 with a known lam > -1, substitute t = v^m with
  m = 1/(lam+1); the image integrand extends continuously to 0 (up to an
  integrable log factor) and the adaptive engine converges at machine
  precision instead of grinding against the singularity.
* **Split the half-line at t = 1 and invert the tail.**  t = 1/s maps
  (1, oo) onto (0, 1); algebraic decay t^(-1-d) becomes an s^(d-1)
  endpoint power, flattened the same way when d is known.
* **Graded fallback.**  With no endpoint hint, a single adaptive pass with
  a forced split point near 0 isolates the singular end.  The same pass
  replaces a flattened one that did not converge on a positive endpoint
  power, where f vanishes at 0 anyway.
* **One node table per sweep.**  A sweep is a run of integrals that
  differ only in one parameter and share an endpoint power, and so share
  QUADPACK's nodes: the chain premise's t grid at one (n, alpha), and the
  reconstruction's y grid at one (n, alpha).  Keyed by the node v, the
  table holds x = v^m, v^(m-1) and the kernel value K_k(x), none of which
  depends on the swept parameter, so each integrand evaluation reads its
  node and calls only the density or Phi_n; the graded pass has its own
  table keyed by x.  A table lives for one call (one (n, alpha) of a
  report), and every result is the one-shot integral's bit for bit.  A
  chain at alpha = 1/4, n = 1 evaluates the kernel 231 times instead of
  5,733, a reconstruction at alpha = 1/4 over three y 315 times instead
  of 945.

The underlying panel integrator is QUADPACK's adaptive Gauss-Kronrod
scheme (scipy.integrate.quad).  Its rules evaluate interior nodes only,
so no integrand handed to it tests for v <= 0; only the tail's s = v^m,
which can underflow to 0, does.  This module owns the substitutions, the
convergence bookkeeping, and the identity-specific drivers.  SciPy is
imported on the first adaptive pass, not with this module, so importing
``khabcheck`` (and every CLI command but ``integrals``) never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .constants import beta_int, rhs_constant
from .exact import RationalLike, Value, index_at_least, positive_rational
from .kernel import kernel_eval
from .positivity import PositivityVerdict, Status, poly_nonneg_on_pos
from .transition import log_weight, transition_evaluator, transition_poly


class QuadConfig(Value):
    """Tolerances for one logical integral (possibly two panels)."""

    __slots__ = ("abs_tol", "rel_tol")
    abs_tol: float
    rel_tol: float

    def __init__(self, abs_tol: float = 1e-10, rel_tol: float = 1e-9) -> None:
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        self._set(abs_tol, rel_tol)


DEFAULT_CONFIG = QuadConfig()

#: the graded pass's forced split point, isolating the singular end at 0
_SINGULARITY_SPLIT = 1e-3

#: QUADPACK's subdivision budget for one adaptive pass
_SUBDIVISION_LIMIT = 2000

#: the chain conclusion's tolerance, relative to its target: within it the
#: extremal density must meet equality, and any density the inequality
_EQUALITY_REL_TOL = 1e-5


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    converged: bool
    subdivisions_used: int
    #: integrand evaluations, QUADPACK's ``neval`` summed over every pass
    evaluations: int = 0

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            converged=self.converged and other.converged,
            subdivisions_used=self.subdivisions_used + other.subdivisions_used,
            evaluations=self.evaluations + other.evaluations,
        )


class DensityFunction(NamedTuple):
    """A caller-supplied density q(t) >= 0 on the half-line.

    ``power_at_zero`` / ``power_at_infinity`` are optional exponent hints:
    q(t) ~ c * t^power near the respective end.  When present they let the
    engine substitute the singularity away instead of subdividing against
    it; when absent the graded fallback is used.
    """

    evaluator: Callable[[float], float]
    power_at_zero: Optional[float] = None
    power_at_infinity: Optional[float] = None


def extremal_density_fn(alpha: RationalLike, n: int) -> DensityFunction:
    """The equality-attaining density as a DensityFunction with exponent hints.

    The density is  alpha * t**(alpha-1) / B(alpha, n): the test function for
    which the premise of the reduction holds with equality.  The exact scale
    alpha/B(alpha, n) is reduced to a float once, here, so an evaluation is
    one float power and one product.
    """
    a = positive_rational(alpha)
    scale = float(a / beta_int(a, n))
    power = float(a) - 1.0

    def evaluator(t: float) -> float:
        if t <= 0.0:
            raise ValueError("t must be positive")
        return scale * t ** power

    return DensityFunction(
        evaluator=evaluator,
        power_at_zero=power,
        power_at_infinity=power,
    )


def log_spaced(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """``count`` logarithmically spaced points from lo to hi inclusive."""
    if not (0 < lo < hi and math.isfinite(hi)) or count < 2:
        raise ValueError("need finite 0 < lo < hi and count >= 2")
    step = (math.log10(hi) - math.log10(lo)) / (count - 1)
    return tuple(10.0 ** (math.log10(lo) + i * step) for i in range(count))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def _panel(f: Callable[[float], float], cfg: QuadConfig,
           points: Optional[Sequence[float]] = None) -> QuadResult:
    """One adaptive pass over (0, 1) with per-panel convergence bookkeeping."""
    # SciPy loads here, on the first pass, so a process that never integrates
    # never pays for importing it
    from scipy.integrate import quad as _scipy_quad

    out = _scipy_quad(f, 0.0, 1.0,
                      epsabs=0.5 * cfg.abs_tol, epsrel=0.5 * cfg.rel_tol,
                      limit=_SUBDIVISION_LIMIT, points=list(points) if points else None,
                      full_output=True)
    value, err, info = out[0], out[1], out[2]
    clean = len(out) == 3  # a fourth element is QUADPACK's warning message
    converged = clean and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadResult(value=value, error_estimate=err, converged=converged,
                      subdivisions_used=int(info["last"]), evaluations=int(info["neval"]))


def _flattening_exponent(power_at_zero: Optional[float]) -> float:
    """m = 1/(power+1), t = v^m absorbing a t^power factor at 0: the one admission of
    an endpoint hint, where none or 0 is m = 1 and any other must be finite and > -1."""
    if not power_at_zero:
        return 1.0
    if power_at_zero <= -1.0:
        raise ValueError(f"endpoint power {power_at_zero} is not integrable")
    if not math.isfinite(power_at_zero):
        raise ValueError(f"endpoint power {power_at_zero} is not finite")
    return 1.0 / (power_at_zero + 1.0)


def _flattened(f: Callable[[float], float], power_at_zero: float) -> Callable[[float], float]:
    """Substitute t = v^m, m = 1/(power+1), absorbing a t^power factor at 0."""
    m = _flattening_exponent(power_at_zero)

    def g(v: float) -> float:
        w = v ** (m - 1.0)
        return f(v ** m) * m * w

    return g


class _NodeTable(dict):
    """One sweep's values at the nodes v of the substitution x = v^m.

    A sweep integrates K_k(x) * h(s, x) over (0, 1) for a run of parameters
    s with one endpoint power, and QUADPACK meets the same nodes for every
    s.  The entry of node v is (x, K_k(x), v^(m-1)), filled on first use:
    everything the node's integrand needs that does not depend on s.  Its
    kernel value is None where x underflows to 0, where the integrand is 0.
    With no power, m = 1: the graded pass's table, keyed by x itself
    (x * 1.0 * 1.0 == x in floats, so one integrand serves both).
    """

    def __init__(self, power_at_zero: Optional[float], k_index: int) -> None:
        super().__init__()
        self.m = _flattening_exponent(power_at_zero)
        self.k_index = k_index

    def __missing__(self, v: float) -> tuple[float, Optional[float], float]:
        m = self.m
        x = v ** m
        entry = self[v] = (x, kernel_eval(self.k_index, x) if x > 0.0 else None, v ** (m - 1.0))
        return entry


def integrate_unit_interval(f: Callable[[float], float], cfg: QuadConfig = DEFAULT_CONFIG,
                            power_at_zero: Optional[float] = None,
                            flat: Optional[Callable[[float], float]] = None) -> QuadResult:
    """Integrate f over (0, 1) with an optional endpoint-power hint at 0.

    A flattened panel that does not converge is retried as the graded pass
    when the hinted power is positive: there f vanishes at 0 and needs no
    substitution, while m = 1/(power+1) < 1 packs the whole integrand into
    a sliver near v = 0 that can stall QUADPACK's extrapolation.  The retry
    keeps the graded pass's value, error estimate and convergence, and
    counts the subdivisions and evaluations of both passes.

    ``flat`` is the flattened integrand ready-made, equal bit for bit to
    the substitution of f: a sweep's node-table integrand (see ``_NodeTable``).
    """
    spent = evaluated = 0
    if power_at_zero:  # a hint of None or 0 asks for no substitution
        first = _panel(flat or _flattened(f, power_at_zero), cfg)
        if first.converged or power_at_zero < 0.0:
            return first
        spent, evaluated = first.subdivisions_used, first.evaluations
    graded = _panel(f, cfg, points=[_SINGULARITY_SPLIT])
    return graded._replace(subdivisions_used=graded.subdivisions_used + spent,
                           evaluations=graded.evaluations + evaluated)


def integrate_half_line(f: Callable[[float], float], cfg: QuadConfig = DEFAULT_CONFIG,
                        power_at_zero: Optional[float] = None,
                        decay_power: Optional[float] = None) -> QuadResult:
    """Integrate f over (0, oo): head on (0, 1], inverted tail from (1, oo).

    ``decay_power`` is d in f(t) ~ c * t^(-1-d) as t -> oo, refused before f
    runs unless finite and > 0; it is the tail integral's endpoint-power hint.
    """
    if decay_power == math.inf:
        raise ValueError(f"tail decay power {decay_power} is not finite")
    if decay_power is not None and not decay_power > 0.0:
        raise ValueError(f"tail decay power {decay_power} does not converge")
    head = integrate_unit_interval(f, cfg, power_at_zero)

    def tail(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return f(1.0 / s) / (s * s)

    tail_hint = None if decay_power is None else decay_power - 1.0
    return head + integrate_unit_interval(tail, cfg, tail_hint)


# ---------------------------------------------------------------------------
# identity drivers
# ---------------------------------------------------------------------------


class ResidualCheck(NamedTuple):
    """A quadrature value confronted with its analytic target."""

    value: float
    target: float
    quad: QuadResult

    @property
    def residual(self) -> float:
        return self.value - self.target


def _premise_sweep(k_index: int, q: DensityFunction,
                   cfg: QuadConfig) -> Callable[[float], QuadResult]:
    """t -> int_0^1 K_k(x) q(t x) dx, every t reading K_k from one node table.

    The premise integral of conjecture index k + 1.  The kernel's
    logarithmic blow-up at 0 combines with q's endpoint power; with
    q ~ x^(a-1) (the extremal shape) the hinted substitution is exactly
    x = u^(1/a).
    """
    density = q.evaluator
    power = q.power_at_zero
    graded = _NodeTable(None, k_index)
    flat = _NodeTable(power, k_index) if power else graded

    def integrand(nodes: _NodeTable, t: float) -> Callable[[float], float]:
        m = nodes.m

        def g(v: float) -> float:
            x, k, w = nodes[v]
            if k is None:
                return 0.0
            return k * density(t * x) * m * w

        return g

    def premise(t: float) -> QuadResult:
        return integrate_unit_interval(integrand(graded, t), cfg, power,
                                       flat=integrand(flat, t))

    return premise


def integrate_log_moment(alpha: RationalLike,
                         cfg: QuadConfig = DEFAULT_CONFIG) -> ResidualCheck:
    """int_0^oo t^(alpha-1) ln(1 + t^(-2 alpha)) dt against its target pi/alpha.

    With z = t^(2 alpha), t^(alpha-1) dt = z^(-1/2) dz / (2 alpha), so the
    integral is (1/(2 alpha)) int_0^oo z^(-1/2) ln(1 + 1/z) dz = pi/alpha: the
    z-integral is 2 pi (integrate by parts to 2 B(1/2, 1/2)), free of alpha.
    """
    a = positive_rational(alpha)
    af = float(a)

    def f(t: float) -> float:
        return t ** (af - 1.0) * log_weight(t, af)

    result = integrate_half_line(f, cfg, power_at_zero=af - 1.0, decay_power=af)
    return ResidualCheck(value=result.value, target=math.pi / af, quad=result)


def integrate_weight_prime_moment(alpha: RationalLike,
                                  cfg: QuadConfig = DEFAULT_CONFIG) -> ResidualCheck:
    """int_0^oo t^alpha * w'(t) dt, w the log weight, against its target -pi.

    The first derivative collapses to -2a * t^(a-1) / (1 + t^(2a)), giving
    an integrand with the same endpoint structure as the log moment.  With
    z = t^(2a), t^(a-1) dt = z^(-1/2) dz / (2a), so the integral is
    -int_0^oo z^(-1/2) / (1 + z) dz = -B(1/2, 1/2) = -pi for every alpha.
    """
    a = positive_rational(alpha)
    af = float(a)
    two_a = 2.0 * af

    def f(t: float) -> float:
        # t^a * w'(t) in overflow-safe form
        if t >= 1.0:
            return -two_a * t ** (af - 1.0 - two_a) / (1.0 + t ** (-two_a))
        return -two_a * t ** (af - 1.0) / (1.0 + t ** two_a)

    result = integrate_half_line(f, cfg, power_at_zero=af - 1.0, decay_power=af)
    return ResidualCheck(value=result.value, target=-math.pi, quad=result)


def reconstruction_sweep(n: int, alpha: RationalLike,
                         cfg: QuadConfig = DEFAULT_CONFIG) -> Callable[[float], ResidualCheck]:
    """y -> the check that Phi_n integrated against the kernel rebuilds the
    log weight, every y sharing one node table:

        int_y^oo Phi_n(t) K_n(y/t) dt  =  ln(1 + y^(-2 alpha)).

    The substitution t = y/u maps the domain onto u in (0, 1] with the
    kernel evaluated at u directly; Phi's decay turns into a u^(2a-1)
    endpoint power (times an integrable log), which is flattened away.
    Phi_n and the kernel's node values are built once for the sweep; each
    call is one y, admitted as 0 < y < oo before any integral runs, and
    raises only for that y.
    """
    a = positive_rational(alpha)
    phi = transition_evaluator(n, a)
    af = float(a)
    power = 2.0 * af - 1.0
    graded = _NodeTable(None, n)
    flat = _NodeTable(power, n) if power else graded

    def integrand(nodes: _NodeTable, y: float) -> Callable[[float], float]:
        m = nodes.m

        def g(v: float) -> float:
            u, k, w = nodes[v]
            if k is None:
                return 0.0
            return phi(y / u) * k * y / (u * u) * m * w

        return g

    def check(y: float) -> ResidualCheck:
        if not 0.0 < y < math.inf:
            raise ValueError("y must be positive and finite")
        result = integrate_unit_interval(integrand(graded, y), cfg, power,
                                         flat=integrand(flat, y))
        return ResidualCheck(value=result.value, target=log_weight(y, af), quad=result)

    return check


def verify_weighted_moment(n: int, alpha: RationalLike,
                           cfg: QuadConfig = DEFAULT_CONFIG) -> ResidualCheck:
    """Check the weighted transition moment against its exact pi-multiple:

        int_0^oo Phi_n(t) t^alpha dt  =  pi * alpha * prod_{k=1..n}(1 + alpha/k).
    """
    a = positive_rational(alpha)
    phi = transition_evaluator(n, a)
    af = float(a)

    def f(t: float) -> float:
        return phi(t) * t ** af

    result = integrate_half_line(f, cfg, power_at_zero=3.0 * af - 1.0, decay_power=af)
    return ResidualCheck(value=result.value,
                         target=math.pi * float(rhs_constant(a, n + 1)), quad=result)


# ---------------------------------------------------------------------------
# the full reduction chain
# ---------------------------------------------------------------------------


class PremiseEntry(NamedTuple):
    """Premise integral at one grid point t, against the target t^alpha."""

    t: float
    lhs: float
    target: float
    quad: QuadResult

    @property
    def violation(self) -> float:
        """How far the premise inequality LHS <= t^alpha is overshot (0 if held).

        An integral that did not converge to a finite value shows nothing
        about the inequality, so it counts as overshooting without bound.
        """
        if not (self.quad.converged and math.isfinite(self.lhs)):
            return math.inf
        return max(0.0, self.lhs - self.target)

    @property
    def deviation(self) -> float:
        """Absolute distance from equality (meaningful for the extremal density)."""
        return abs(self.lhs - self.target)


class ChainReport(NamedTuple):
    """Everything the reduction chain produced for one (n, alpha, q).

    The premise holds when every entry's violation is at most
    ``premise_tol * max(1, target)``: absolute for targets t^alpha <= 1,
    relative above, since targets reach ~1e24 where an ulp exceeds 1e-6.
    Like a premise entry, the conclusion holds only where its integral converged.
    """

    conjecture_n: int
    poly_index: int
    alpha: Fraction
    positivity: PositivityVerdict
    applicable: bool
    premise: tuple[PremiseEntry, ...] = ()
    conclusion: Optional[QuadResult] = None
    rhs_pi_coefficient: Optional[Fraction] = None
    rhs_value: Optional[float] = None
    premise_tol: float = 1e-6

    @property
    def premise_max_violation(self) -> float:
        return max((e.violation for e in self.premise), default=0.0)

    @property
    def premise_max_deviation(self) -> float:
        return max((e.deviation for e in self.premise), default=0.0)

    @property
    def premise_satisfied(self) -> bool:
        return self.applicable and all(
            e.violation <= self.premise_tol * max(1.0, e.target) for e in self.premise)

    @property
    def conclusion_satisfied(self) -> bool:
        """Conclusion inequality LHS <= RHS, up to the equality tolerance."""
        if not (self.applicable and self.conclusion is not None and self.conclusion.converged):
            return False
        slack = _EQUALITY_REL_TOL * abs(self.rhs_value)
        return self.conclusion.value <= self.rhs_value + slack

    @property
    def equality_within_tol(self) -> bool:
        """Both sides agree to ``_EQUALITY_REL_TOL`` (expected for the extremal q)."""
        if not (self.applicable and self.conclusion is not None and self.conclusion.converged):
            return False
        return abs(self.conclusion.value - self.rhs_value) <= \
            _EQUALITY_REL_TOL * abs(self.rhs_value)


def default_chain_grid() -> tuple[float, ...]:
    """The premise grid: 25 log-spaced t in [1e-3, 1e3]."""
    return log_spaced(1e-3, 1e3, 25)


def verify_conjecture_chain(n: int, alpha: RationalLike, q: DensityFunction,
                            cfg: QuadConfig = DEFAULT_CONFIG,
                            premise_tol: float = 1e-6) -> ChainReport:
    """Run the reduction chain for conjecture index n at a rational alpha.

    Gate: the multiply-and-integrate step is only valid when P_{n-1} is
    nonnegative on (0, oo); otherwise the report comes back inapplicable
    and no integrals are attempted.  When applicable, the report carries
    (a) the premise integral against t^alpha at each t of
    ``default_chain_grid()`` -- "for all t" is not decidable numerically,
    so the grid is explicit data -- and (b) the conclusion integral
    against its exact pi-multiple target.
    ``premise_tol`` bounds each premise violation absolutely for targets up
    to 1 and relative to the target t^alpha above 1.

    Float range: past alpha = log(DBL_MAX) / log(10^3) ~ 102.7 the premise
    target t^alpha at t = 10^3 overflows, so an applicable n raises
    ``OverflowError``; at alpha <= 1/60 the flattened quadrature underflows.
    """
    a = positive_rational(alpha)
    n = index_at_least(n, 1, "conjecture index n")
    if not 0 <= premise_tol < math.inf:
        raise ValueError("premise_tol must be nonnegative and finite")
    poly_index = n - 1
    verdict = poly_nonneg_on_pos(transition_poly(poly_index), a)
    if verdict.status is not Status.NONNEGATIVE:
        return ChainReport(conjecture_n=n, poly_index=poly_index, alpha=a,
                           positivity=verdict, applicable=False, premise_tol=premise_tol)

    af = float(a)

    premise = _premise_sweep(poly_index, q, cfg)
    entries = []
    for t in default_chain_grid():
        inner = premise(t)
        entries.append(PremiseEntry(
            t=t, lhs=t * inner.value, target=t ** af,
            quad=inner,
        ))

    density = q.evaluator

    def conclusion_integrand(t: float) -> float:
        return density(t) * log_weight(t, af)

    # integrate_half_line refuses a q that decays too slowly (decay <= 0)
    decay_power = (None if q.power_at_infinity is None
                   else 2.0 * af - 1.0 - q.power_at_infinity)
    conclusion = integrate_half_line(conclusion_integrand, cfg,
                                     power_at_zero=q.power_at_zero,
                                     decay_power=decay_power)
    coeff = rhs_constant(a, n)
    return ChainReport(
        conjecture_n=n, poly_index=poly_index, alpha=a,
        positivity=verdict, applicable=True,
        premise=tuple(entries),
        conclusion=conclusion,
        rhs_pi_coefficient=coeff,
        rhs_value=math.pi * float(coeff),
        premise_tol=premise_tol,
    )
