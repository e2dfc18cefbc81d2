"""The transition-function family Phi_n and its polynomial core P_n.

Two fully independent constructions are maintained side by side:

1.  **Recurrence path** (fast): exact bivariate polynomials P_n in Q[alpha][z]
    with P_0 = 1 and

        P_n = ((2a+1) z + (1 - 2a/n)) P_{n-1}  -  (2a z (z+1) / n) P_{n-1}',

    from which  Phi_n(a, t) = 4 a^2 t^(2a-1) P_n(a, z) / (1+z)^(n+2)  with
    z = t^(2a).  Each P_n is integer rows over one denominator, one
    integer step of the recurrence from the cached P_{n-1}.

2.  **Derivative oracle** (slow, independent): Phi_n is, by its defining
    formula, a derivative of the weighted n+1-st derivative of the log
    weight  w(t) = ln(1 + t^(-2a)):

        Phi_n = -d/dt [ (-t)^(n+1)/n! * w^(n+1)(t) ],

    built entirely inside the closed term algebra of ``termalgebra``: the
    cached chain of derivatives of w up to w^(n+1), and one integer row
    formula that folds the product rule's two sums into one.

Agreement of the two paths on sample grids is the core cross-validation of
this package.  A third construction that *looks* equivalent at first
glance -- taking plain t-derivatives of Phi_0 -- does NOT agree with the
other two from n = 1 on; the test suite builds it to pin the mismatch down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, NamedTuple, Sequence

from .exact import RationalLike, ZPolynomial, positive_rational
from .termalgebra import MixedSum, mixed_evaluator

# ---------------------------------------------------------------------------
# recurrence path
# ---------------------------------------------------------------------------


def _recurrence_step(n: int, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """One integer step of the recurrence: rows of c * P_{n-1} to rows of m * c * P_n.

    ``rows`` (row j lists the alpha coefficients of z^j) is any integer
    multiple c * P_{n-1}.  Multiplying the recurrence by n clears its
    denominators,

        n P_n = (n (2a+1) z + n - 2a) P_{n-1}  -  2a z (z+1) P_{n-1}',

    so, with Q = rows, the z^j row of n * c * P_n is

        n (Q[j-1] + Q[j]) + 2a ((n-j+1) Q[j-1] - (j+1) Q[j]).

    At even n every such row is even, so the step divides it by
    h = gcd(n, 2) and returns it with m = n / h: if P_{n-1} = rows / den,
    then P_n = step_rows / (m * den).
    """
    h = math.gcd(n, 2)
    m = n // h
    # every row padded to n + 1 entries, between zero rows for z^-1 and z^n;
    # the last entry is 0, so q[i - 1] at i = 0 reads a zero
    zero = [0] * (n + 1)
    q = [zero, *([*row, *zero[len(row):]] for row in rows), zero]
    out = []
    for j in range(n + 1):
        lo, hi = q[j], q[j + 1]  # Q[j-1] and Q[j]
        up, down = 2 * (n - j + 1) // h, 2 * (j + 1) // h
        out.append([m * (lo[i] + hi[i]) + up * lo[i - 1] - down * hi[i - 1]
                    for i in range(n + 1)])
    return out, m


@lru_cache(maxsize=None)
def transition_poly(n: int) -> ZPolynomial:
    """Exact P_n in Q[alpha][z] via the first-order recurrence (cached).

    Integers over one denominator: each index takes one integer step (see
    ``_recurrence_step``) from the cached P_{n-1}, filling the cache upward
    so that no call recurses deeply.
    """
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    if n == 0:
        return ZPolynomial(((1,),))
    for k in range(n):  # fill the cache upward
        prev = transition_poly(k)
    rows, m = _recurrence_step(n, prev.rows)
    return ZPolynomial._of_ints(rows, m * prev.den)


#: the z = t^(2a) past which ``transition_evaluator`` takes the asymptotic form
_Z_ASYMPTOTIC = 2.0 ** 511


def transition_evaluator(n: int, alpha: RationalLike) -> Callable[[float], float]:
    """A fast closure t -> Phi_n(alpha, t), for use inside quadrature loops.

    The polynomial part is evaluated in the variables p = z/(1+z) and
    w = 1/(1+z) so that no intermediate quantity grows like a power of z:

        Phi_n = 4 a^2 t^(2a-1) * sum_j c_j p^j w^(n+2-j).
    """
    a = positive_rational(alpha)
    row, den = transition_poly(n).specialize(a)
    # int / int rounds correctly, as float(Fraction) does; c_j goes with w^(n+2-j)
    terms = [(x / den, n + 2 - j) for j, x in enumerate(row)]
    af = float(a)
    two_a = 2.0 * af
    scale = 4.0 * af * af
    lead = terms[-1][0]

    def phi(t: float) -> float:
        if not 0.0 < t < math.inf:
            raise ValueError("t must be positive and finite")
        try:
            z = t ** two_a
        except OverflowError:
            z = math.inf
        head = scale * t ** (two_a - 1.0) if z <= _Z_ASYMPTOTIC else math.inf
        if head == math.inf and z > 1.0:
            # deep asymptotic regime: past z = 2^511, w^2 is no longer a normal
            # float and the sum underflows; at a huge alpha the head overflows
            # first.  There Phi = 4 a^2 lead(a) * t^(-1-2a) * (1 + O(1/z))
            return scale * lead * math.exp((-1.0 - two_a) * math.log(t))
        p = z / (1.0 + z)
        w = 1.0 / (1.0 + z)
        total = 0.0
        pj = 1.0
        for c, e in terms:
            total += c * pj * w ** e
            pj *= p
        return head * total

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


@lru_cache(maxsize=None)
def log_weight_derivatives(count: int) -> tuple[MixedSum, ...]:
    """Exact mixed sums for the first ``count`` t-derivatives of the log weight.

    Integers over one denominator, ``Fraction`` at the API boundary.  Each
    count extends the cached one below it, so no call recurses deeply.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        # differentiating ln(1 + t^(-2a)) and clearing negative powers of the
        # base gives exactly  -2a * t^(-1) * (1 + t^(2a))^(-1),  i.e. the term
        # (p, q, k) = (-1, 0, 1) with coefficient -2*alpha: the key (1, -1, 0)
        # with alpha-row (0, -2)
        return (MixedSum((((1, -1, 0), (0, -2)),)),)
    for k in range(1, count):  # fill the cache upward
        prev = log_weight_derivatives(k)
    return prev + (prev[-1].derivative(),)


@lru_cache(maxsize=None)
def transition_oracle(n: int) -> MixedSum:
    """Phi_n as an exact mixed sum, built only from t-derivatives of the weight.

    Implements the defining formula

        Phi_n(t) = -d/dt [ (-1)^(n+1)/n! * t^(n+1) * w^(n+1)(t) ]

    expanded by the product rule,

        Phi_n(t) = (-1)^n/n! * [ (n+1) t^n w^(n+1)(t) + t^(n+1) w^(n+2)(t) ],

    and then by the derivative rule once more, so only w^(n+1) is read.
    Every key of w^(n+1) is (q+1, -n-1, q), q = 0..n; call its alpha-row r_q,
    with r_(-1) = r_(n+1) = 0.  By ``MixedSum.derivative``'s rule the row of
    w^(n+2) at key (q+1, -n-2, q) is (2q*alpha - n - 1) r_q - 2q*alpha r_(q-1).
    Adding (n+1) r_q leaves 2q*alpha (r_q - r_(q-1)), and the q = 0 key
    cancels.  So Phi_n's row at key (q+1, -1, q) is

        (-1)^n/n! * 2q*alpha * (r_q - r_(q-1)),      q = 1..n+1,

    one integer row each over n! times the denominator of w^(n+1), reduced
    once.  It reads the cached chain ``log_weight_derivatives(n + 1)`` and
    makes no reference to the polynomial recurrence, so the two paths are
    genuinely independent cross-checks of each other.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    w = log_weight_derivatives(n + 1)[n]  # w^(n+1)
    src = dict(w.rows)
    r = [src.get((q + 1, -n - 1, q), ()) for q in range(n + 2)]  # r_(n+1) is absent: ()
    sign = (-1) ** n
    rows = [[0, *(2 * q * sign * (x - y) for x, y in zip_longest(r[q], r[q - 1], fillvalue=0))]
            for q in range(1, n + 2)]
    keys = [(q + 1, -1, q) for q in range(1, n + 2)]
    return MixedSum._of_ints(keys, rows, math.factorial(n) * w.den)


# ---------------------------------------------------------------------------
# cross-validation of the two paths
# ---------------------------------------------------------------------------


class OracleAgreement(NamedTuple):
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
    offending grid point is returned as data rather than raised.  A point
    whose deviation is NaN or infinite fails, with ``max_deviation`` inf.
    Every t must be positive and finite, checked before any oracle is built.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not alpha_samples or not t_samples:
        raise ValueError("sample grids must be non-empty")
    if not 0 <= rel_tol < math.inf:
        raise ValueError("rel_tol must be nonnegative and finite")
    alphas = sorted(positive_rational(a) for a in alpha_samples)
    ts = sorted(t_samples)
    if not all(0.0 < t < math.inf for t in ts):
        raise ValueError("t samples must be positive and finite")
    worst = 0.0
    failures = []
    checked = 0
    for n in range(n_max + 1):
        oracle = transition_oracle(n)
        for alpha in alphas:
            fast = transition_evaluator(n, alpha)
            slow = mixed_evaluator(oracle, float(alpha))
            for t in ts:
                a_val = fast(t)
                b_val = slow(t)
                dev = abs(a_val - b_val) / (1.0 + abs(a_val))
                if not math.isfinite(dev):
                    dev = math.inf
                worst = max(worst, dev)
                checked += 1
                if dev > rel_tol:
                    failures.append((n, alpha, t, a_val, b_val))
    return OracleAgreement(max_deviation=worst, checked=checked, failures=tuple(failures))


# ---------------------------------------------------------------------------
# bundled family
# ---------------------------------------------------------------------------


#: the t samples and relative tolerance of ``PhiFamily.validate``'s oracle comparison
_VALIDATE_TS = (0.1, 0.5, 1.0, 2.0, 10.0)
_VALIDATE_REL_TOL = 1e-10


class PhiFamily(NamedTuple):
    """The first maxN+1 transition functions at a fixed rational alpha.

    Bundles the exact polynomials; ``validate`` checks them against the
    derivative oracle.  Construction is sequential in n, everything
    afterwards is immutable and safe to share between threads.
    """

    alpha: Fraction
    max_n: int
    polys: tuple[ZPolynomial, ...]

    def __repr__(self) -> str:  # the polynomials are left out, as too long to show
        return f"PhiFamily(alpha={self.alpha!r}, max_n={self.max_n!r})"

    @staticmethod
    def build(alpha: RationalLike, max_n: int) -> PhiFamily:
        a = positive_rational(alpha)
        if max_n < 0:
            raise ValueError("max_n must be >= 0")
        return PhiFamily(
            alpha=a,
            max_n=max_n,
            polys=tuple(transition_poly(n) for n in range(max_n + 1)),
        )

    def validate(self) -> bool:
        """Re-assert the family's structural invariants at runtime: P_0 = 1,
        deg P_n = n, and agreement with the derivative oracle at
        ``_VALIDATE_TS`` within ``_VALIDATE_REL_TOL``."""
        if self.polys[0] != ZPolynomial(((1,),)):
            return False
        if any(p.degree != n for n, p in enumerate(self.polys)):
            return False
        report = oracle_equiv_check(self.max_n, [self.alpha], _VALIDATE_TS, _VALIDATE_REL_TOL)
        return report.passed
