"""Exact nonnegativity certificates for the transition polynomials on (0, oo).

The reduction argument is only valid where P_n(alpha, z) >= 0 for every
z > 0, so this module decides that property *exactly*: verdicts are backed
either by a certificate (a reason the polynomial cannot go negative) or by
a rational witness point where it provably does.

Decision ladder for a specialized polynomial p(z) with rational
coefficients, after scaling it by a positive constant to a primitive
integer polynomial (which changes no sign):

1. zero polynomial, or all coefficients >= 0  ->  Nonnegative;
2. lowest-order nonzero coefficient < 0       ->  Negative (p < 0 near 0+,
   halve z until an exact evaluation is negative);
3. leading coefficient < 0                    ->  Negative (p < 0 beyond
   the Cauchy root bound, rounded up to an integer);
4. float witness: the positive real parts of the float roots of p and p'
   propose points; the simplest rational near each one becomes a witness
   only if exact integer evaluation shows p < 0 there  ->  Negative;
5. otherwise: isolate every positive real root with a Sturm chain of
   primitive integer polynomials, and evaluate p at one point in each gap
   between consecutive isolating intervals (its sign is constant there).
   No negative sample means every positive root has even multiplicity and
   p stays nonnegative; a negative sample is returned as the witness.

Floats only propose witnesses in rung 4; every verdict rests on exact
integer (or Fraction) arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .exact import RationalLike, ZPolynomial, scaled_value, simplest_between
from .transition import transition_poly

#: an integer polynomial as coefficients in ascending powers of z
IntPoly = list[int]

#: relative half-widths of the windows around a float point in which the
#: simplest rational is tried as a witness, coarsest (smallest height) first
_WITNESS_WINDOWS = (Fraction(1, 2 ** 8), Fraction(1, 2 ** 24), Fraction(1, 2 ** 50))


class Status(enum.Enum):
    NONNEGATIVE = "Nonnegative"
    NEGATIVE = "Negative"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Exact coefficients of  A z^2 + B z + C."""

    A: Fraction
    B: Fraction
    C: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        object.__setattr__(self, "C", Fraction(self.C))

    def eval(self, z: RationalLike) -> Fraction:
        zz = Fraction(z)
        return (self.A * zz + self.B) * zz + self.C


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of a sign decision on (0, oo).

    A Negative verdict always carries a positive rational ``witness`` whose
    exact evaluation ``witness_value`` is < 0; a Nonnegative verdict always
    names the ``certificate`` that establishes it.
    """

    status: Status
    certificate: Optional[str] = None
    witness: Optional[Fraction] = None
    witness_value: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.status is Status.NEGATIVE:
            if self.witness is None or self.witness_value is None:
                raise ValueError("Negative verdict requires a witness")
            if self.witness <= 0 or self.witness_value >= 0:
                raise ValueError("witness must be positive with negative value")
        if self.status is Status.NONNEGATIVE and not self.certificate:
            raise ValueError("Nonnegative verdict requires a certificate")


# ---------------------------------------------------------------------------
# exact integer polynomial helpers
# ---------------------------------------------------------------------------


def _primitive(c: Sequence[int]) -> IntPoly:
    """c divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*c)
    return [x // g for x in c]


def _root_bound(c: Sequence[int]) -> int:
    """An integer above the modulus of every complex root of c (Cauchy)."""
    return 2 + max(abs(x) for x in c[:-1]) // abs(c[-1])


def _negated_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """A positive multiple of -(a mod b), made primitive; [] if b divides a.

    Pseudo-division that multiplies by |lead(b)| only, so every sign is
    that of the true remainder.
    """
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    r = list(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        top = sign * r[-1]
        r = [scale * x for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= top * y
        while r and r[-1] == 0:
            r.pop()
    return _primitive([-x for x in r]) if r else []


def _sturm_chain(c: IntPoly) -> list[IntPoly]:
    """The Sturm sequence of c, every element a primitive integer polynomial.

    c need not be squarefree: the chain then ends at a multiple of
    gcd(c, c'), and the sign variations between two points where c does
    not vanish still count the distinct roots in between.
    """
    chain = [c, _primitive([i * x for i, x in enumerate(c)][1:])]
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sign_variations(chain: list[IntPoly], z: Fraction) -> int:
    signs = [v > 0 for v in (scaled_value(p, z) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _split_point(c: IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) where c does not vanish."""
    for num, den in ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (1, 7), (3, 7),
                     (5, 7), (1, 11), (5, 11), (7, 11), (9, 11), (1, 13),
                     (5, 13), (11, 13), (1, 17)):
        mid = lo + (hi - lo) * Fraction(num, den)
        if scaled_value(c, mid):
            return mid
    raise RuntimeError("could not find a non-root split point")  # pragma: no cover


def _isolate_roots(c: IntPoly, chain: list[IntPoly], lo: Fraction, hi: Fraction,
                   v_lo: int, v_hi: int) -> list[tuple[Fraction, Fraction]]:
    """Intervals (a, b], in increasing order, each holding one root of c in (lo, hi].

    ``v_lo`` and ``v_hi`` are the chain's sign variations at lo and hi;
    lo, hi and every split point are non-roots of c.
    """
    count = v_lo - v_hi
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = _split_point(c, lo, hi)
    v_mid = _sign_variations(chain, mid)
    return (_isolate_roots(c, chain, lo, mid, v_lo, v_mid)
            + _isolate_roots(c, chain, mid, hi, v_mid, v_hi))


def _float_witness(c: IntPoly) -> Optional[Fraction]:
    """A positive rational where c < 0, proposed by floats and confirmed exactly.

    The candidates are the positive float roots of c' (the local extrema of
    c) and the midpoints between consecutive positive float roots of c,
    tried in increasing order of c's float value there, skipping those
    where floats say c > 0.  Near each one the simplest rational of a
    shrinking window is tried; only an exact negative value makes it a
    witness.  None means no witness was found, not that c is nonnegative.
    """
    # drop low bits so that every coefficient converts to a finite float
    shift = max(0, max(abs(x) for x in c).bit_length() - 1000)
    f = np.array([float(x >> shift) for x in reversed(c)])
    try:
        roots, extrema = np.roots(f), np.roots(np.polyder(f))
    except np.linalg.LinAlgError:  # pragma: no cover - eigenvalue failure
        return None

    def positive_real(values: np.ndarray) -> list[float]:
        return sorted(float(r.real) for r in values
                      if 0 < r.real < math.inf and abs(r.imag) <= 1e-3 * r.real)

    crossings = positive_real(roots)
    candidates = positive_real(extrema) + [
        (x + y) / 2 for x, y in zip(crossings, crossings[1:])]
    with np.errstate(all="ignore"):
        values = np.polyval(f, candidates) if candidates else []
    for _, x in sorted((v, x) for v, x in zip(values, candidates) if v < 0):
        point = Fraction(x)
        for width in _WITNESS_WINDOWS:
            z = simplest_between(point * (1 - width), point * (1 + width))
            if scaled_value(c, z) < 0:
                return z
    return None


# ---------------------------------------------------------------------------
# public deciders
# ---------------------------------------------------------------------------


def _geometric_witness(is_negative: Callable[[Fraction], bool],
                       start: Fraction, ratio: Fraction) -> Fraction:
    """The first z = start * ratio^k, k = 0, 1, ..., with ``is_negative(z)``."""
    z = start
    for _ in range(100_000):
        if is_negative(z):
            return z
        z *= ratio
    raise RuntimeError("geometric search failed to certify negativity")  # pragma: no cover


def quad_nonneg(c: QuadraticCoeffs) -> PositivityVerdict:
    """Exact sign decision for A z^2 + B z + C on z > 0.

    Implements the three-way criterion for quadratics: with A > 0 and B < 0
    nonnegativity is equivalent to a nonpositive discriminant (the vertex
    -B/(2A) lies in the positive axis); with A > 0, B >= 0 or with A = 0 it
    reduces to sign conditions on the remaining coefficients.
    """
    A, B, C = c.A, c.B, c.C

    def negative_from(start: Fraction, ratio: Fraction) -> PositivityVerdict:
        z = _geometric_witness(lambda z: c.eval(z) < 0, start, ratio)
        return PositivityVerdict(Status.NEGATIVE, witness=z, witness_value=c.eval(z))

    if A > 0:
        if B < 0:
            disc = B * B - 4 * A * C
            if disc <= 0:
                return PositivityVerdict(Status.NONNEGATIVE, "criterion-case-1")
            vertex = -B / (2 * A)
            return PositivityVerdict(Status.NEGATIVE, witness=vertex,
                                     witness_value=c.eval(vertex))
        if C >= 0:
            return PositivityVerdict(Status.NONNEGATIVE, "criterion-case-2")
        return negative_from(Fraction(1), Fraction(1, 2))
    if A == 0:
        if B >= 0 and C >= 0:
            return PositivityVerdict(Status.NONNEGATIVE, "criterion-case-3")
        if C < 0:
            return negative_from(Fraction(1), Fraction(1, 2))
        return negative_from(Fraction(1), Fraction(2))
    # A < 0: dominated by the negative leading term for large z
    return negative_from(max(Fraction(1), -B / A), Fraction(2))


def coeffs_nonneg_on_pos(coeffs: Sequence[RationalLike]) -> PositivityVerdict:
    """Exact sign decision on (0, oo) for an explicit coefficient list."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return PositivityVerdict(Status.NONNEGATIVE, "all-coefficients-nonnegative")
    # powers of z are positive on (0, oo): dropping a common z^m factor
    # changes no sign and makes the constant term nonzero
    first_nonzero = next(i for i, x in enumerate(c) if x != 0)
    c = c[first_nonzero:]
    if all(x >= 0 for x in c):
        return PositivityVerdict(Status.NONNEGATIVE, "all-coefficients-nonnegative")

    # c = scale * p with p a primitive integer polynomial and scale > 0,
    # so p has the sign of c everywhere
    den = math.lcm(*(x.denominator for x in c))
    p = [x.numerator * (den // x.denominator) for x in c]
    content = math.gcd(*p)
    p = [x // content for x in p]
    scale = Fraction(content, den)

    def negative_at(z: Fraction) -> PositivityVerdict:
        # report the value of the *original* polynomial, z^m factor restored
        value = scale * Fraction(scaled_value(p, z), z.denominator ** (len(p) - 1))
        return PositivityVerdict(Status.NEGATIVE, witness=z,
                                 witness_value=value * z ** first_nonzero)

    if p[0] < 0:
        return negative_at(_geometric_witness(
            lambda z: scaled_value(p, z) < 0, Fraction(1), Fraction(1, 2)))
    if p[-1] < 0:
        # beyond every root p keeps the sign of its leading coefficient
        return negative_at(Fraction(_root_bound(p)))
    witness = _float_witness(p)
    if witness is not None:
        return negative_at(witness)

    # mixed signs with positive ends: every sign change would have to happen
    # at a positive real root, so isolate them all
    chain = _sturm_chain(p)
    bound = Fraction(_root_bound(p))
    intervals = _isolate_roots(p, chain, Fraction(0), bound,
                               _sign_variations(chain, Fraction(0)),
                               _sign_variations(chain, bound))
    if not intervals:
        return PositivityVerdict(Status.NONNEGATIVE, "sturm-no-positive-root")
    # p > 0 before the first root and after the last; between two roots its
    # sign is constant, so one point of each gap between intervals decides
    for (_, gap_lo), (gap_hi, _) in zip(intervals, intervals[1:]):
        z = simplest_between(gap_lo, gap_hi)
        if scaled_value(p, z) < 0:
            return negative_at(z)
    return PositivityVerdict(Status.NONNEGATIVE, "sturm-even-multiplicity")


def poly_nonneg_on_pos(P: ZPolynomial, alpha: RationalLike) -> PositivityVerdict:
    """Decide P(alpha, z) >= 0 for all z > 0, exactly, at a rational alpha."""
    a = Fraction(alpha)
    if a <= 0:
        raise ValueError("alpha must be positive")
    return coeffs_nonneg_on_pos(P.specialize(a))


# ---------------------------------------------------------------------------
# threshold search and region scan
# ---------------------------------------------------------------------------


def alpha_threshold(n: int, tol: float = 1e-6,
                    hi: RationalLike = Fraction(4)) -> tuple[Fraction, Fraction]:
    """Bracket sup{alpha > 0 : P_n(alpha, .) is nonnegative on (0, oo)}.

    Bisects with exact verdicts at rational probes until the bracket is
    narrower than ``tol``, then snaps the verified lower end to the simplest
    rational in the bracket (so a threshold of exactly 1/2 is reported as
    1/2 rather than a long dyadic).  The search assumes the threshold lies
    in (0, hi]; if the polynomial family is still nonnegative at ``hi`` the
    bracket cannot be established and a ValueError is raised.
    """
    if n < 1:
        raise ValueError("threshold search needs polynomial index >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    poly = transition_poly(n)

    def is_nonneg(a: Fraction) -> bool:
        return poly_nonneg_on_pos(poly, a).status is Status.NONNEGATIVE

    hi = Fraction(hi)
    if is_nonneg(hi):
        raise ValueError(f"nonnegative at alpha={hi}; threshold outside (0, {hi}]")
    lo = Fraction(1, 2)
    while not is_nonneg(lo):
        lo /= 2
        if lo < Fraction(1, 2 ** 60):  # pragma: no cover
            raise ValueError("no nonnegative alpha found above 2^-60")

    width = Fraction(tol).limit_denominator(10 ** 12)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if is_nonneg(mid):
            lo = mid
        else:
            hi = mid
    snap = simplest_between(lo, hi)
    if snap != lo and is_nonneg(snap):
        lo = snap
    return lo, hi


@dataclass(frozen=True)
class ScanCell:
    """One verdict in a region scan, labelled with both index conventions.

    ``poly_index`` is the subscript of the polynomial/transition function
    examined; the reduction for conjecture parameter n uses poly_index
    n - 1, so each cell also carries ``conjecture_n = poly_index + 1`` --
    per-index off-by-one confusion is the chief hazard in this area.
    """

    poly_index: int
    conjecture_n: int
    alpha: Fraction
    verdict: PositivityVerdict


@dataclass(frozen=True)
class ScanReport:
    cells: tuple[ScanCell, ...]

    @property
    def all_nonnegative(self) -> bool:
        return all(c.verdict.status is Status.NONNEGATIVE for c in self.cells)

    def cell(self, poly_index: int, alpha: RationalLike) -> ScanCell:
        a = Fraction(alpha)
        for c in self.cells:
            if c.poly_index == poly_index and c.alpha == a:
                return c
        raise KeyError((poly_index, a))


def region_scan(n_values: Iterable[int], alpha_grid: Iterable[RationalLike]) -> ScanReport:
    """Positivity verdicts over a (polynomial index, alpha) grid.

    Cells are computed independently and assembled in sorted (n, alpha)
    order, so the report is deterministic regardless of evaluation order.
    """
    ns = sorted(set(int(n) for n in n_values))
    alphas = sorted(set(Fraction(a) for a in alpha_grid))
    if not ns or not alphas:
        raise ValueError("scan grids must be non-empty")
    if any(n < 0 for n in ns):
        raise ValueError("polynomial indices must be >= 0")
    if any(a <= 0 for a in alphas):
        raise ValueError("alpha grid must be positive")
    cells = []
    for n in ns:
        poly = transition_poly(n)
        for a in alphas:
            cells.append(ScanCell(
                poly_index=n,
                conjecture_n=n + 1,
                alpha=a,
                verdict=poly_nonneg_on_pos(poly, a),
            ))
    return ScanReport(cells=tuple(cells))
