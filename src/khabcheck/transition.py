"""The transition-function family Phi_n and its polynomial core P_n.

Two fully independent constructions are maintained side by side:

1.  **Recurrence path** (fast): exact bivariate polynomials P_n in Q[alpha][z]
    with P_0 = 1 and

        P_n = ((2a+1) z + (1 - 2a/n)) P_{n-1}  -  (2a z (z+1) / n) P_{n-1}',

    from which  Phi_n(a, t) = 4 a^2 t^(2a-1) P_n(a, z) / (1+z)^(n+2)  with
    z = t^(2a).  The recurrence itself runs over the integers, on
    Q_n = n! P_n.

2.  **Derivative oracle** (slow, independent): Phi_n is, by its defining
    formula, a derivative of the weighted n+1-st derivative of the log
    weight  w(t) = ln(1 + t^(-2a)):

        Phi_n = -d/dt [ (-t)^(n+1)/n! * w^(n+1)(t) ],

    built entirely inside the closed term algebra of ``termalgebra``.

Agreement of the two paths on sample grids is the core cross-validation of
this package.  A third construction that *looks* equivalent at first
glance -- taking plain t-derivatives of Phi_0 -- is provided as
``transition_via_base_derivatives`` purely so the test suite can document
that it does NOT agree with the other two (see that function's docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .exact import ALPHA, AlphaPolynomial, RationalLike, ZPolynomial
from .termalgebra import MixedSum, mixed_diff, mixed_eval

# ---------------------------------------------------------------------------
# recurrence path
# ---------------------------------------------------------------------------


def _scaled_recurrence(n: int) -> list[list[int]]:
    """Integer coefficients of Q_n = n! P_n, as rows over z of columns over alpha.

    Multiplying the recurrence by n! clears every denominator:

        Q_n = (n (2a+1) z + n - 2a) Q_{n-1}  -  2a z (z+1) Q_{n-1}',

    so the z^j row of Q_n is  n (Q[j-1] + Q[j]) + 2a ((n-j+1) Q[j-1] - (j+1) Q[j]).
    """
    q = [[1]]
    for m in range(1, n + 1):
        rows = []
        for j in range(m + 1):
            row = [0] * (m + 1)
            if j:
                for i, x in enumerate(q[j - 1]):
                    row[i] += m * x
                    row[i + 1] += 2 * (m - j + 1) * x
            if j < m:
                for i, x in enumerate(q[j]):
                    row[i] += m * x
                    row[i + 1] -= 2 * (j + 1) * x
            rows.append(row)
        q = rows
    return q


@lru_cache(maxsize=None)
def transition_poly(n: int) -> ZPolynomial:
    """Exact P_n in Q[alpha][z] via the first-order recurrence (cached).

    The recurrence runs over the integers (see ``_scaled_recurrence``); the
    result is divided by n! once.
    """
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    fact = math.factorial(n)
    return ZPolynomial(tuple(
        AlphaPolynomial(tuple(Fraction(x, fact) for x in row))
        for row in _scaled_recurrence(n)
    ))


def transition_eval(n: int, alpha: RationalLike, t: float) -> float:
    """Float value of Phi_n(alpha, t) for t > 0, stable over wide t ranges."""
    return transition_evaluator(n, alpha)(t)


def transition_evaluator(n: int, alpha: RationalLike) -> Callable[[float], float]:
    """A fast closure t -> Phi_n(alpha, t), for use inside quadrature loops.

    The polynomial part is evaluated in the variables p = z/(1+z) and
    w = 1/(1+z) so that no intermediate quantity grows like a power of z:

        Phi_n = 4 a^2 t^(2a-1) * sum_j c_j p^j w^(n+2-j).
    """
    a = Fraction(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    coeffs = [float(c) for c in transition_poly(n).specialize(a)]
    if not coeffs:  # cannot happen for this family, but keep the zero total
        return lambda t: 0.0
    af = float(a)
    two_a = 2.0 * af
    scale = 4.0 * af * af
    n_plus_2 = n + 2
    lead = coeffs[-1]

    def phi(t: float) -> float:
        if not 0.0 < t < math.inf:
            raise ValueError("t must be positive and finite")
        try:
            z = t ** two_a
        except OverflowError:
            z = math.inf
        if math.isinf(z):
            # deep asymptotic regime: Phi ~ 4 a^2 lead(a) * t^(-1-2a)
            return scale * lead * math.exp((-1.0 - two_a) * math.log(t))
        p = z / (1.0 + z)
        w = 1.0 / (1.0 + z)
        total = 0.0
        pj = 1.0
        for j, c in enumerate(coeffs):
            total += c * pj * w ** (n_plus_2 - j)
            pj *= p
        return scale * t ** (two_a - 1.0) * total

    return phi


# ---------------------------------------------------------------------------
# derivative-oracle path
# ---------------------------------------------------------------------------


def log_weight(t: float, alpha: float) -> float:
    """The log weight  w(t) = ln(1 + t^(-2*alpha)),  computed without overflow.

    For t < 1 the direct form would exponentiate a large positive power, so
    we use  ln(1 + t^(-b)) = -b ln t + ln(1 + t^b)  with b = 2*alpha.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    b = 2.0 * float(alpha)
    if t >= 1.0:
        return math.log1p(t ** (-b))
    return -b * math.log(t) + math.log1p(t ** b)


def log_weight_prime_seed() -> MixedSum:
    """First t-derivative of the log weight as a one-term mixed sum.

    Differentiating ln(1 + t^(-2a)) and clearing negative powers of the base
    gives exactly  -2a * t^(-1) * (1 + t^(2a))^(-1),  i.e. the term
    (p, q, k) = (-1, 0, 1) with coefficient -2*alpha.
    """
    return MixedSum.single(-2 * ALPHA, p=-1, q=0, k=1)


@lru_cache(maxsize=None)
def log_weight_derivatives(count: int) -> tuple[MixedSum, ...]:
    """Exact mixed sums for the first ``count`` t-derivatives of the log weight."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [log_weight_prime_seed()]
    while len(out) < count:
        out.append(out[-1].derivative())
    return tuple(out)


@lru_cache(maxsize=None)
def transition_oracle(n: int) -> MixedSum:
    """Phi_n as an exact mixed sum, built only from t-derivatives of the weight.

    Implements the defining formula

        Phi_n(t) = -d/dt [ (-1)^(n+1)/n! * t^(n+1) * w^(n+1)(t) ]

    with no reference to the polynomial recurrence, so the two paths are
    genuinely independent cross-checks of each other.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    deriv = log_weight_derivatives(n + 1)[n]  # w^(n+1)
    sign = Fraction((-1) ** (n + 1), math.factorial(n))
    inner = deriv.scale(sign).shift_power(n + 1)
    return -inner.derivative()


def transition_via_base_derivatives(n: int) -> MixedSum:
    """The *suspect* shortcut  (-1)^n/n! * d^n/dt^n Phi_0  as a mixed sum.

    This expression is tempting because it looks like an iterated version of
    the n = 0 case, but it is NOT equal to Phi_n for n >= 1: already at
    alpha = 1/2, n = 1 it produces 2/(1+t)^3 where the true transition
    function is 2t/(1+t)^3.  It exists solely so the test suite can pin the
    mismatch down quantitatively; nothing else in the package calls it.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    return mixed_diff(transition_oracle(0), n).scale(Fraction((-1) ** n, math.factorial(n)))


# ---------------------------------------------------------------------------
# cross-validation and asymptotics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleAgreement:
    """Grid comparison of the recurrence path against the derivative oracle."""

    max_deviation: float
    checked: int
    failures: tuple[tuple[int, Fraction, float, float, float], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def oracle_equiv_check(
    n_max: int,
    alpha_samples: Sequence[RationalLike],
    t_samples: Sequence[float],
    rel_tol: float = 1e-9,
) -> OracleAgreement:
    """Compare both Phi constructions over a full (n, alpha, t) grid.

    The comparison metric is |fast - oracle| <= rel_tol * (1 + |fast|); every
    offending grid point is returned as data rather than raised.
    """
    if not alpha_samples or not t_samples:
        raise ValueError("sample grids must be non-empty")
    worst = 0.0
    failures = []
    checked = 0
    for n in range(n_max + 1):
        oracle = transition_oracle(n)
        for alpha in sorted(Fraction(a) for a in alpha_samples):
            if alpha <= 0:
                raise ValueError("alpha samples must be positive")
            fast = transition_evaluator(n, alpha)
            af = float(alpha)
            for t in sorted(t_samples):
                if t <= 0:
                    raise ValueError("t samples must be positive")
                a_val = fast(t)
                b_val = mixed_eval(oracle, af, t)
                dev = abs(a_val - b_val) / (1.0 + abs(a_val))
                worst = max(worst, dev)
                checked += 1
                if dev > rel_tol:
                    failures.append((n, alpha, t, a_val, b_val))
    return OracleAgreement(max_deviation=worst, checked=checked, failures=tuple(failures))


@dataclass(frozen=True)
class AsymptoticReport:
    """Sampled evidence for the decay of Phi_n at both ends of the half-line."""

    n: int
    alpha: Fraction
    omega: Fraction
    large_t: tuple[tuple[float, float], ...]  # (t, t^(1+2a) * |Phi|)
    large_t_limit: float                      # 4 a^2 * lead(P_n)(a)
    small_t: tuple[tuple[float, float], ...]  # (t, t^(1+w) * |Phi|)
    large_t_ok: bool
    small_t_ok: bool

    @property
    def passed(self) -> bool:
        return self.large_t_ok and self.small_t_ok


def asymptotic_check(
    n: int,
    alpha: RationalLike,
    omega: RationalLike,
    large_ts: Sequence[float] = (1e3, 1e6, 1e9),
    small_ts: Sequence[float] = (1e-3, 1e-6, 1e-9),
) -> AsymptoticReport:
    """Check the two-sided decay of Phi_n by direct sampling.

    Large t:  t^(1+2*alpha) * |Phi_n| converges to 4 a^2 * lead(P_n)(a) from
    below, so the scaled samples climb toward that limit rather than
    decreasing; the honest quantitative claim is the explicit bound

        t^(1+2a) * |Phi_n(t)|  <=  4 a^2 * lead(P_n)(a)

    at each sample (up to float slack), which is what we assert.

    Small t:  t^(1+omega) * |Phi_n| must fall toward zero: non-increasing as
    t decreases, and over the whole sampled range down by at least the
    theoretical factor (t_last/t_first)^(2a+omega) up to a 10x slack --
    near zero the scaled quantity behaves like t^(2a+omega) when the
    polynomial's constant term is nonzero, and decays even faster when it
    vanishes, so that factor is a sound upper estimate either way.
    """
    a = Fraction(alpha)
    w = Fraction(omega)
    if a <= 0 or w <= 0:
        raise ValueError("alpha and omega must be positive")
    phi = transition_evaluator(n, a)
    af = float(a)
    wf = float(w)
    limit = 4.0 * af * af * abs(float(transition_poly(n).leading_coeff(a)))

    large = tuple((t, t ** (1.0 + 2.0 * af) * abs(phi(t))) for t in sorted(large_ts))
    small = tuple((t, t ** (1.0 + wf) * abs(phi(t))) for t in sorted(small_ts, reverse=True))

    large_ok = all(
        math.isfinite(v) and v <= limit * (1.0 + 1e-6) for _, v in large
    )
    small_vals = [v for _, v in small]
    decay_factor = (small[-1][0] / small[0][0]) ** (2.0 * af + wf) * 10.0
    small_ok = all(
        small_vals[i + 1] <= small_vals[i] for i in range(len(small_vals) - 1)
    ) and (small_vals[-1] == 0.0 or small_vals[-1] <= decay_factor * small_vals[0])
    return AsymptoticReport(
        n=n, alpha=a, omega=w,
        large_t=large, large_t_limit=limit, small_t=small,
        large_t_ok=large_ok, small_t_ok=small_ok,
    )


# ---------------------------------------------------------------------------
# bundled family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiFamily:
    """The first maxN+1 transition functions at a fixed rational alpha.

    Bundles the exact polynomials with their derivative-oracle counterparts;
    construction is sequential in n, everything afterwards is immutable and
    safe to share between threads.
    """

    alpha: Fraction
    max_n: int
    polys: tuple[ZPolynomial, ...] = field(repr=False)
    oracle_forms: tuple[MixedSum, ...] = field(repr=False)

    @staticmethod
    def build(alpha: RationalLike, max_n: int) -> PhiFamily:
        a = Fraction(alpha)
        if a <= 0:
            raise ValueError("alpha must be positive")
        if max_n < 0:
            raise ValueError("max_n must be >= 0")
        return PhiFamily(
            alpha=a,
            max_n=max_n,
            polys=tuple(transition_poly(n) for n in range(max_n + 1)),
            oracle_forms=tuple(transition_oracle(n) for n in range(max_n + 1)),
        )

    def evaluator(self, n: int) -> Callable[[float], float]:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"index {n} outside 0..{self.max_n}")
        return transition_evaluator(n, self.alpha)

    def validate(self, t_samples: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 10.0),
                 rel_tol: float = 1e-10) -> bool:
        """Re-assert the family's structural invariants at runtime."""
        if self.polys[0] != ZPolynomial.constant(1):
            return False
        if any(p.degree != n for n, p in enumerate(self.polys)):
            return False
        report = oracle_equiv_check(self.max_n, [self.alpha], list(t_samples), rel_tol)
        return report.passed
