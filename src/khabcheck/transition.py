"""The transition-function family Phi_n and its polynomial core P_n.

Two fully independent constructions are maintained side by side:

1.  **Recurrence path** (fast): exact bivariate polynomials P_n in Q[alpha][z]
    with P_0 = 1 and

        P_n = ((2a+1) z + (1 - 2a/n)) P_{n-1}  -  (2a z (z+1) / n) P_{n-1}',

    from which  Phi_n(a, t) = 4 a^2 t^(2a-1) P_n(a, z) / (1+z)^(n+2)  with
    z = t^(2a).  Each P_n is integer rows over one denominator, one
    integer step of the recurrence from the cached P_{n-1}.

2.  **Derivative oracle** (independent): Phi_n is, by its defining
    formula, a derivative of the weighted n+1-st derivative of the log
    weight  w(t) = ln(1 + t^(-2a)):

        Phi_n = -d/dt [ (-t)^(n+1)/n! * w^(n+1)(t) ],

    one integer row formula over the chain of derivatives of w up to
    w^(n+1) that folds the product rule's two sums into one.
    ``transition_oracle`` builds it in Q[alpha] inside the closed term
    algebra of ``termalgebra``, as the reference; ``oracle_equiv_check``
    walks the same chain at one rational alpha in plain integers.

Agreement of the two paths is the core cross-validation of this package:
at each alpha, their exact identity in Q[z] decides, and their float
views meet on a t grid, each within a running error bound.  A third
construction that *looks* equivalent at first glance -- taking plain
t-derivatives of Phi_0 -- does NOT agree with the other two from n = 1 on;
the test suite builds it to pin the mismatch down.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .exact import RationalLike, ZPolynomial, index_at_least, positive_rational
from .termalgebra import MixedSum

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
    n = index_at_least(n, 0, "polynomial index")
    if n == 0:
        return ZPolynomial(((1,),))
    for k in range(n):  # fill the cache upward
        prev = transition_poly(k)
    rows, m = _recurrence_step(n, prev.rows)
    return ZPolynomial._of_ints(rows, m * prev.den)


#: the z = t^(2a) past which ``transition_evaluator`` takes the asymptotic form
_Z_ASYMPTOTIC = 2.0 ** 511

#: the least normal double
_DBL_MIN = 2.0 ** -1022


def transition_evaluator(n: int, alpha: RationalLike) -> Callable[[float], float]:
    """A fast closure t -> Phi_n(alpha, t), for use inside quadrature loops.

    The polynomial part is evaluated in the variables p = z/(1+z) and
    w = 1/(1+z) so that no intermediate quantity grows like a power of z:

        Phi_n = 4 a^2 t^(2a-1) * sum_j c_j p^j w^(n+2-j).
    """
    a = positive_rational(alpha)
    return _row_evaluator(*transition_poly(n).specialize(a), n, a)


def _row_evaluator(row: Sequence[int], den: int, n: int, a: Fraction) -> Callable[[float], float]:
    """``transition_evaluator``'s closure for the z-row ``row / den`` of P_n at alpha = a.

    On the row of |c_j| it evaluates 4 a^2 t^(2a-1) * sum_j |c_j| p^j w^(n+2-j),
    which scales the error bound of ``oracle_equiv_check``.
    """
    # int / int rounds correctly, as float(Fraction) does; c_j goes with w^(n+2-j)
    terms = [(x / den, n + 2 - j) for j, x in enumerate(row)]
    af = float(a)
    two_a = 2.0 * af
    scale = 4.0 * af * af
    if not _DBL_MIN <= scale < math.inf:
        # 4 a^2 is no normal float: a NaN scale sends every product with it to logs
        scale = math.nan
    lead = terms[-1][0]

    def phi(t: float) -> float:
        if not 0.0 < t < math.inf:
            raise ValueError("t must be positive and finite")
        try:
            z = t ** two_a
        except OverflowError:
            z = math.inf
        try:
            head = scale * t ** (two_a - 1.0) if z <= _Z_ASYMPTOTIC else math.inf
        except OverflowError:  # a subnormal t at a small alpha
            head = math.nan
        if not head < math.inf:
            if z <= _Z_ASYMPTOTIC:  # the product is not finite: take it from logs
                head = _scaled_power(a, 1.0, two_a - 1.0, t)
            if head == math.inf and z > 1.0:
                # deep asymptotic regime: past z = 2^511, w^2 is no longer a normal
                # float and the sum underflows; at a huge alpha the head overflows
                # first.  There Phi = 4 a^2 lead(a) * t^(-1-2a) * (1 + O(1/z))
                tail = scale * lead * math.exp((-1.0 - two_a) * math.log(t))
                return tail if tail < math.inf else _scaled_power(a, lead, -1.0 - two_a, t)
        p = z / (1.0 + z)
        w = 1.0 / (1.0 + z)
        total = 0.0
        pj = 1.0
        for c, e in terms:
            total += c * pj * w ** e
            pj *= p
        return head * total

    return phi


#: ln 4, the log of 4 a^2 without its alpha
_LN4 = math.log(4.0)


def _scaled_power(a: Fraction, c: float, e: float, t: float) -> float:
    """4 a^2 c t^e for c > 0, as one exp of a sum of logs, alpha's taken exact.

    For where the product of floats fails: 4 a^2 is no normal float, or the
    product overflows, or it is inf * 0.  inf past DBL_MAX, 0.0 below the
    least subnormal.
    """
    try:
        return math.exp(_LN4 + 2.0 * (math.log(a.numerator) - math.log(a.denominator))
                        + math.log(c) + e * math.log(t))
    except OverflowError:
        return math.inf


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
    count = index_at_least(count, 1, "count")
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
    n = index_at_least(n, 0, "index")
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


def _oracle_walk(a: Fraction, n_max: int) -> Iterator[tuple[list[int], int]]:
    """``transition_oracle(n)`` at alpha = a, for n = 0..n_max, as integers over one denominator.

    With a = num/b the rows of w^(m) are integers R_q over b^m, one per key
    (q+1, -m, q), q = 0..m-1, starting from w' = [-2 num] over b.  Put
    x_q = 2q num (R_q - R_(q-1)), reading R_(-1) = R_m = 0.  At m = n+1,
    ``transition_oracle``'s row formula makes (-1)^n x_q, q = 1..n+1, the
    coefficient of t^(-1) z^q (1+z)^(-q-1) in Phi_n over n! b^(n+2), and
    ``MixedSum.derivative``'s rule makes x_q - m b R_q, q = 0..m, the rows
    of w^(m+1) over b^(m+1).  So one walk of the derivative chain of w
    yields every index, and it never reads the recurrence.
    """
    num, b = a.numerator, a.denominator
    r, den = [-2 * num], b * b
    for n in range(n_max + 1):
        x = [2 * q * num * (hi - lo) for q, (lo, hi) in enumerate(zip([0, *r], [*r, 0]))]
        yield (x[1:] if n % 2 == 0 else [-v for v in x[1:]]), den
        mb = (n + 1) * b
        r = [v - mb * y for v, y in zip(x, [*r, 0])]
        den *= mb


def _identity_holds(c: Sequence[int], den: int, row: Sequence[int], pden: int,
                    a: Fraction) -> bool:
    """Whether sum_q c_q z^q (1+z)^(n+1-q) = 4 a^2 z P_n(a, z) holds exactly.

    ``c`` over ``den`` = n! b^(n+2) is the oracle at a = num/b (``_oracle_walk``)
    and ``row`` over ``pden`` is P_n at a.  The left side is built as
    T <- T (1+z) + c_q z^q, additions only; times b^2 pden, both sides are
    integer rows in z.  Multiplied out by (1+z)^(-n-2) / t, the two sides are
    the oracle and the recurrence's Phi_n.
    """
    left = [0]
    for q, x in enumerate(c, 1):
        left = [u + v for u, v in zip([*left, 0], [0, *left])]
        left[q] += x
    k = 4 * a.numerator ** 2 * (den // a.denominator ** 2)
    right = [0, *(k * x for x in row)]
    right += [0] * (len(left) - len(right))
    return [pden * x for x in left] == right


#: the unit roundoff of a double, and the most that one underflowing product
#: or quotient adds to its error: the model of Higham (2002) sections 2.2 and 5.1
_U = 2.0 ** -53
_ETA = 2.0 ** -1074


def _float_of(x: int, den: int) -> float:
    """x / den, correctly rounded; a signed infinity past DBL_MAX."""
    try:
        return x / den
    except OverflowError:  # "integer division result too large for a float"
        return math.inf if x > 0 else -math.inf


def _power(t: float, e: float) -> float:
    """t ** e, infinite where it overflows."""
    try:
        return t ** e
    except OverflowError:
        return math.inf


def _oracle_view(c: Sequence[int], den: int, n: int,
                 two_a: float) -> Callable[[float], tuple[float, float]]:
    """A closure t -> (Phi_n, its error bound) from the oracle's integers ``c`` over ``den``.

    Every oracle key is (q+1, -1, q), so t Phi_n = w sum_q c_q p^q in
    p = z/(1+z) and w = 1/(1+z), z = t^(2a) as a float: Horner in p on the
    correctly rounded c_q.  The bound is Higham's running error bound
    (2002, section 5.1) widened for the rounding of each c_q and of p, and
    for underflow; it bounds the distance to t Phi_n at the float z, so
    pow's own rounding of z is the one error it leaves out.
    """
    cs = [_float_of(x, den) for x in reversed(c)]  # c_(n+1) first
    top, rest = cs[0], cs[1:]
    k_final = 8.0 * _U
    k_under = 2.0 * n + 4.0
    u3 = 3.0 * _U

    def at(t: float) -> tuple[float, float]:
        z = _power(t, two_a)
        if z == math.inf:  # then the true w is below 2^-1024
            p, w, w_err = 1.0, 0.0, 2.0 ** -1024
        else:
            p, w, w_err = z / (1.0 + z), 1.0 / (1.0 + z), 0.0
        # s = sum_q c_q p^(q-1); e bounds its error, first order in u
        s = top
        e = _U * abs(s)
        for cq in rest:
            sp = s * p
            s = sp + cq
            e = e * p + u3 * abs(sp) + _U * (abs(cq) + abs(s))
        wp = w * p
        value = wp * s / t
        s_abs = abs(s) + e
        # w, p, w p, (w p) s and / t round 8 u in all; 1 + 16 u covers second order
        bound = (k_final * abs(value) + wp * e / t) * (1.0 + 2 * k_final) \
            + _ETA * ((k_under + 3.0 * s_abs) / t + 1.0) + w_err * s_abs / t
        return value, bound

    return at


def _recurrence_view(row: Sequence[int], den: int, n: int,
                     a: Fraction) -> Callable[[float], tuple[float, float]]:
    """A closure t -> (Phi_n, its error bound) by ``transition_evaluator``'s builder.

    The value is the builder on ``row``, the bound the builder on |row|
    (the value itself where no c_j is negative, as at every alpha <= 1/2)
    times (4n + 24 + 3 (1 + 2a) |ln t|) u: each term of the p/w sum carries
    at most (3n + 9) u, the sum n u, the head 4 a^2 t^(2a-1) 8 u and its
    exponent's rounding |ln t| u, and the asymptotic form's exp(ln t ...)
    3 (1 + 2a) |ln t| u.  Where the head or the asymptotic form may come
    from logs (``_scaled_power``: 4 a^2 no normal float, or 4 a^2 lead or
    4 a^2 t^(2a-1) past DBL_MAX), the factor gains the rounding of the sum
    of logs, 7 (ln 4 + 2 ln num + 2 ln den + |ln lead|) + 5 (1 + 2a) |ln t|
    + 1.  Its underflow allowance is _ETA times
    1 + (t^(2a-1) + 4 a^2 + 1) sum|c_j| + head ((n + 2) sum|c_j| + 3n + 3),
    NaN where that is inf * 0 (one of 4 a^2 and t^(2a-1) past DBL_MAX, the
    other 0.0): ``_judge`` holds such a point inconclusive.
    """
    signed = min(row) < 0
    try:
        phi = _row_evaluator(row, den, n, a)
        phi_abs = _row_evaluator([abs(x) for x in row], den, n, a) if signed else None
    except OverflowError:  # a coefficient of P_n past DBL_MAX: every point fails
        return lambda t: (math.nan, math.inf)
    af = float(a)
    two_a, scale = 2.0 * af, 4.0 * af * af
    csum = _float_of(sum(map(abs, row)), den)
    k0, k_log = 4.0 * n + 24.0, 3.0 * (1.0 + two_a)
    k_head = (n + 2) * csum + 3.0 * n + 3.0
    lead = row[-1] / den
    direct = _DBL_MIN <= scale and scale * lead < math.inf

    def at(t: float) -> tuple[float, float]:
        value = phi(t)
        power = _power(t, two_a - 1.0)
        k = k0 + k_log * abs(math.log(t))
        under = 1.0 + (power + scale + 1.0) * csum + scale * power * k_head
        if not (direct and scale * power < math.inf):  # a factor may come from logs
            k += 7.0 * (_LN4 + 2.0 * math.log(a.numerator) + 2.0 * math.log(a.denominator)
                        + abs(math.log(lead))) + 5.0 * (1.0 + two_a) * abs(math.log(t)) + 1.0
        bound = k * _U * (phi_abs(t) if signed else value) + _ETA * under
        return value, bound

    return at


def _judge(a_val: float, a_bound: float, b_val: float, b_bound: float,
           rel_tol: float) -> tuple[str, float]:
    """One grid point's verdict, with a the recurrence's view and b the oracle's.

    In order: a not finite fails (an evaluator defect); bound_a + bound_b
    inf or NaN is inconclusive (a view cannot bound the point); |a - b| past
    the allowance bound_a + bound_b + rel_tol |a| (each bound >= _ETA > 0),
    or NaN, fails; bound_a + bound_b > rel_tol |a| is inconclusive; else it
    passes.  With it, |a - b| / allowance: inf by the first rule, 0 by the second.
    """
    if not math.isfinite(a_val):
        return "fail", math.inf
    spread = a_bound + b_bound
    if not spread < math.inf:
        return "inconclusive", 0.0
    allowed = spread + rel_tol * abs(a_val)
    dev = abs(a_val - b_val)
    if not dev <= allowed:
        return "fail", dev / allowed if dev < math.inf else math.inf
    return ("pass" if spread <= rel_tol * abs(a_val) else "inconclusive"), dev / allowed


class OracleAgreement(NamedTuple):
    """Grid comparison of the recurrence path against the derivative oracle.

    ``failures`` and ``inconclusive`` list grid points as (n, alpha, t,
    recurrence value, oracle value), as ``_judge`` rules them, and
    ``identity_failures`` each (n, alpha) whose exact identity failed.
    ``max_deviation`` is the largest deviation ``_judge`` returns: at most 1
    unless a point fails, inf where one fails on a value that is not finite.
    """

    max_deviation: float
    checked: int
    failures: tuple[tuple[int, Fraction, float, float, float], ...]
    inconclusive: tuple[tuple[int, Fraction, float, float, float], ...]
    identity_failures: tuple[tuple[int, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.identity_failures


def oracle_equiv_check(
    n_max: int,
    alpha_samples: Sequence[RationalLike],
    t_samples: Sequence[float],
    rel_tol: float = 1e-9,
    polys: Optional[Sequence[ZPolynomial]] = None,
) -> OracleAgreement:
    """Compare both Phi constructions at every alpha, exactly and over a (n, t) grid.

    At each alpha the oracle is one integer walk (``_oracle_walk``) and each
    P_n, ``polys[n]`` (by default ``transition_poly(n)``), is specialized
    once.  The exact identity of the two (``_identity_holds``) decides each
    index.  The float views then meet at each t, each with its error bound
    (``_recurrence_view``, ``_oracle_view``), and ``_judge`` rules each point.
    Every t must be positive and finite, checked before any oracle is built.
    """
    n_max = index_at_least(n_max, 0, "n_max")
    if not alpha_samples or not t_samples:
        raise ValueError("sample grids must be non-empty")
    if not 0 <= rel_tol < math.inf:
        raise ValueError("rel_tol must be nonnegative and finite")
    alphas = sorted(positive_rational(a) for a in alpha_samples)
    ts = sorted(t_samples)
    if not all(0.0 < t < math.inf for t in ts):
        raise ValueError("t samples must be positive and finite")
    worst = 0.0
    identity_failures, points = [], {"fail": [], "inconclusive": [], "pass": []}
    for alpha in alphas:
        two_a = 2.0 * float(alpha)
        for n, (c, den) in enumerate(_oracle_walk(alpha, n_max)):
            row, pden = (transition_poly(n) if polys is None else polys[n]).specialize(alpha)
            if not _identity_holds(c, den, row, pden, alpha):
                identity_failures.append((n, alpha))
            fast = _recurrence_view(row, pden, n, alpha)
            slow = _oracle_view(c, den, n, two_a)
            for t in ts:
                (a_val, a_bound), (b_val, b_bound) = fast(t), slow(t)
                verdict, deviation = _judge(a_val, a_bound, b_val, b_bound, rel_tol)
                worst = max(worst, deviation)
                points[verdict].append((n, alpha, t, a_val, b_val))
    return OracleAgreement(max_deviation=worst, checked=len(alphas) * (n_max + 1) * len(ts),
                           failures=tuple(points["fail"]),
                           inconclusive=tuple(points["inconclusive"]),
                           identity_failures=tuple(identity_failures))


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
        max_n = index_at_least(max_n, 0, "max_n")
        return PhiFamily(
            alpha=a,
            max_n=max_n,
            polys=tuple(transition_poly(n) for n in range(max_n + 1)),
        )

    def validate(self) -> bool:
        """Re-assert the family's structural invariants at runtime: P_0 = 1,
        deg P_n = n, and agreement of its own polynomials with the
        derivative oracle at ``alpha``: the exact identity at every index,
        which decides, and no failing float point at ``_VALIDATE_TS``
        within ``_VALIDATE_REL_TOL`` (an inconclusive point is no failure)."""
        if len(self.polys) != self.max_n + 1 or self.polys[0] != ZPolynomial(((1,),)):
            return False
        if any(p.degree != n for n, p in enumerate(self.polys)):
            return False
        report = oracle_equiv_check(self.max_n, [self.alpha], _VALIDATE_TS, _VALIDATE_REL_TOL,
                                    self.polys)
        return report.passed
