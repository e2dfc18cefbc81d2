"""Exact nonnegativity certificates for the transition polynomials on (0, oo).

The reduction argument is only valid where P_n(alpha, z) >= 0 for every
z > 0, so this module decides that property *exactly*: verdicts are backed
either by a certificate (a reason the polynomial cannot go negative) or by
a rational witness point where it provably does.

Decision ladder for a specialized polynomial: an integer row over a
positive denominator (what ``ZPolynomial.specialize`` returns), scaled by
a positive constant to a primitive integer polynomial p(z), which changes
no sign:

1. zero polynomial, or all coefficients >= 0  ->  Nonnegative;
2. lowest-order nonzero coefficient < 0       ->  Negative (p < 0 near 0+,
   halve z until an exact evaluation is negative);
3. leading coefficient < 0                    ->  Negative (p < 0 beyond
   the Cauchy root bound, rounded up to an integer);
4. float witness: the positive float roots of p' (the local extrema of p)
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
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .exact import (RationalLike, Value, ZPolynomial, index_at_least, lowest_terms,
                    positive_rational, row_value, scaled_value, simplest_between)
from .transition import transition_poly

#: an integer polynomial as coefficients in ascending powers of z
IntPoly = list[int]

#: relative half-widths of the windows around a float point in which the
#: simplest rational is tried as a witness, coarsest (smallest height) first
_WITNESS_WINDOWS = (Fraction(1, 2 ** 8), Fraction(1, 2 ** 24), Fraction(1, 2 ** 50))

#: the bracket alpha_threshold bisects; P_n(1/2, z) = (n+1) z^n >= 0 for every n
_THRESHOLD_BRACKET = (Fraction(1, 2), Fraction(4))


class Status(enum.Enum):
    NONNEGATIVE = "Nonnegative"
    NEGATIVE = "Negative"


class PositivityVerdict(Value):
    """Outcome of a sign decision on (0, oo).

    A Negative verdict always carries a positive rational ``witness`` whose
    exact evaluation ``witness_value`` is < 0; a Nonnegative verdict always
    names the ``certificate`` that establishes it.
    """

    __slots__ = ("status", "certificate", "witness", "witness_value")
    status: Status
    certificate: Optional[str]
    witness: Optional[Fraction]
    witness_value: Optional[Fraction]

    def __init__(self, status: Status, certificate: Optional[str] = None,
                 witness: Optional[Fraction] = None,
                 witness_value: Optional[Fraction] = None) -> None:
        if status is Status.NEGATIVE:
            if witness is None or witness_value is None:
                raise ValueError("Negative verdict requires a witness")
            if witness <= 0 or witness_value >= 0:
                raise ValueError("witness must be positive with negative value")
        if status is Status.NONNEGATIVE and not certificate:
            raise ValueError("Nonnegative verdict requires a certificate")
        self._set(status, certificate, witness, witness_value)


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
    """A point strictly inside (lo, hi) where c does not vanish.

    The midpoint, or while that is a root, the midpoint of the lower half;
    c has finitely many roots, so this ends.
    """
    mid = (lo + hi) / 2
    while not scaled_value(c, mid):
        mid = (lo + mid) / 2
    return mid


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


def _witness_candidates(c: IntPoly) -> list[float]:
    """The positive float roots of c' where floats say c < 0, most negative first.

    c < 0 somewhere on (0, oo) with c(0) > 0 and c(oo) > 0 means c < 0 at a
    local minimum, so these are where a witness is sought.  The order key is
    c(z) itself, unless Horner's c(z) overflows somewhere (to -inf, a tie, or
    to NaN, which would drop the candidate).  Then it is -log |c(z)|, read
    where needed off c(z) = z^deg * rev(c)(1/z), whose Horner sums stay
    below sum |c|.
    """
    # NumPy loads here, at rung 4, so a process that never reaches it never
    # pays for importing it
    import numpy as np

    # drop low bits so that every coefficient converts to a finite float
    shift = max(0, max(abs(x) for x in c).bit_length() - 1000)
    f = np.array([float(x >> shift) for x in reversed(c)])
    try:
        extrema = np.roots(np.polyder(f))
    except np.linalg.LinAlgError:  # pragma: no cover - eigenvalue failure
        return []
    real, imag = extrema.real, extrema.imag
    z = real[(0 < real) & (real < math.inf) & (np.abs(imag) <= 1e-3 * real)]
    if not z.size:
        return []
    with np.errstate(all="ignore"):
        value = np.polyval(f, z)
        far = ~np.isfinite(value)  # only ever at z > 1
        if far.any():
            value[far] = np.polyval(f[::-1], 1 / z[far])  # the sign of c(z)
            key = -np.log(np.abs(value)) - np.where(far, (len(f) - 1) * np.log(z), 0.0)
        else:
            key = value
    negative = value < 0
    return [x for _, x in sorted(zip(key[negative].tolist(), z[negative].tolist()))]


def _float_witness(c: IntPoly) -> Optional[Fraction]:
    """A positive rational where c < 0, proposed by floats and confirmed exactly.

    Near each of ``_witness_candidates(c)`` in turn the simplest rational of
    a shrinking window is tried; only an exact negative value makes it a
    witness.  None means no witness was found, not that c is nonnegative.
    """
    for x in _witness_candidates(c):
        point = Fraction(x)
        for width in _WITNESS_WINDOWS:
            z = simplest_between(point * (1 - width), point * (1 + width))
            if scaled_value(c, z) < 0:
                return z
    return None


# ---------------------------------------------------------------------------
# public deciders
# ---------------------------------------------------------------------------


def coeffs_nonneg_on_pos(coeffs: Sequence[int], den: int = 1) -> PositivityVerdict:
    """Exact sign decision on (0, oo) for ``coeffs / den``, ascending in z.

    ``coeffs`` are integers over one positive ``den``, admitted through
    ``lowest_terms``: a float is a TypeError and ``den <= 0`` a ValueError.
    """
    (row,), den = lowest_terms((coeffs,), den)
    if all(x >= 0 for x in row):
        return PositivityVerdict(Status.NONNEGATIVE, "all-coefficients-nonnegative")
    # powers of z are positive on (0, oo), and so is the gcd: dropping a
    # common z^m factor and dividing by the gcd leaves a primitive integer
    # polynomial p with a nonzero constant term and the sign of the row
    p = _primitive(row[next(i for i, x in enumerate(row) if x):])

    def negative_at(z: Fraction) -> PositivityVerdict:
        return PositivityVerdict(Status.NEGATIVE, witness=z,
                                 witness_value=row_value(row, den, z))

    if p[0] < 0:
        # p(z) -> p[0] < 0 as z -> 0+, so halving from 1 ends
        z = Fraction(1)
        while scaled_value(p, z) >= 0:
            z /= 2
        return negative_at(z)
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
    return coeffs_nonneg_on_pos(*P.specialize(positive_rational(alpha)))


# ---------------------------------------------------------------------------
# threshold search and region scan
# ---------------------------------------------------------------------------


def alpha_threshold(n: int, tol: float = 1e-6) -> tuple[Fraction, Fraction]:
    """Bracket sup{alpha > 0 : P_n(alpha, .) is nonnegative on (0, oo)}.

    Bisects (1/2, 4) with exact verdicts at rational probes until the
    bracket is no wider than ``tol`` (taken exactly, 0 < tol < oo), then
    snaps the verified lower end to the simplest rational in the bracket (so
    a threshold of exactly 1/2 is reported as 1/2 rather than a long
    dyadic).  Both ends are probed first: P_n(1/2, z) = (n+1) z^n must be
    nonnegative and P_n(4, .) must not be, or a ValueError is raised.
    """
    n = index_at_least(n, 1, "polynomial index")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    poly = transition_poly(n)

    def is_nonneg(a: Fraction) -> bool:
        return poly_nonneg_on_pos(poly, a).status is Status.NONNEGATIVE

    lo, hi = _THRESHOLD_BRACKET
    if is_nonneg(hi):
        raise ValueError(f"nonnegative at alpha={hi}; threshold outside (0, {hi}]")
    if not is_nonneg(lo):  # pragma: no cover - P_n(1/2, z) = (n+1) z^n
        raise ValueError(f"negative at alpha={lo}; threshold below {lo}")

    width = Fraction(tol)
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


class ScanCell(NamedTuple):
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


class ScanReport(NamedTuple):
    cells: tuple[ScanCell, ...]


def region_scan(n_values: Iterable[int], alpha_grid: Iterable[RationalLike]) -> ScanReport:
    """Positivity verdicts over a (polynomial index, alpha) grid.

    Cells are computed independently and assembled in sorted (n, alpha)
    order, so the report is deterministic regardless of evaluation order.
    Each index is admitted by ``exact.index_at_least`` before any alpha: a
    float is a TypeError rather than truncated to a neighbouring index.
    """
    ns = sorted({index_at_least(n, 0, "polynomial index") for n in n_values})
    alphas = sorted(set(positive_rational(a) for a in alpha_grid))
    if not ns or not alphas:
        raise ValueError("scan grids must be non-empty")
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
