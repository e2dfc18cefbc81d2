"""How fast this machine runs Python right now, from a fixed reference kernel.

The benchmark shares a few cores of a host with other work, and the speed
of a core drifts by up to 2x over tens of seconds while the process never
waits (its CPU time equals its wall time).  A medians-only estimate of a
30-second run therefore moves with the host's load as much as with the
program.  So the timed loop runs a short reference kernel between
operations -- the same kind of work as khabcheck does (exact rational
polynomial arithmetic, SciPy quadrature of Python integrands), but fixed
and owned by the benchmark -- and scales each operation's wall time by how
slow the kernel ran beside it:

    latency at reference speed = wall latency * REF_NOMINAL_S / local reference time

where the local reference time is the median of the ``NEIGHBOURS``
reference samples nearest in time to the operation.  A change to the
program moves the operation times but not the kernel, so the ratio shows
it; a busy host slows both, so the ratio hides it.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from fractions import Fraction

from scipy.integrate import quad

#: reference-kernel time that defines one reference second: a core on which
#: the kernel takes REF_NOMINAL_S runs programs at reference speed
REF_NOMINAL_S = 0.010
#: take a reference sample after an operation once this long has passed
REF_EVERY_S = 0.1
#: reference samples per operation's local speed estimate
NEIGHBOURS = 4

_RNG = random.Random(20100301)
#: small-height and large-height rational polynomials, as in the exact layers
_SMALL = ([Fraction(7 * i * i + 3, 11 * i + 5) for i in range(26)],
          [Fraction(-5 * i + 13, 3 * i * i + 2) for i in range(26)])
_LARGE = tuple([Fraction(_RNG.randrange(-10**30, 10**30), _RNG.randrange(1, 10**20))
                for _ in range(20)] for _ in range(2))


def _poly_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return prod


def reference_kernel() -> float:
    """Seconds one pass of the fixed kernel takes now.

    Three parts of about equal time: rational polynomial products with
    small and with large heights (the exact route), adaptive quadrature of
    float integrands written in Python (the numeric route).
    """
    start = time.perf_counter()
    small = _poly_product(*_SMALL)
    large = _poly_product(*_LARGE)
    area = sum(quad(lambda x, k=k: math.exp(-k * x) * math.sqrt(x) / (1.0 + x * x),
                    0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
               for k in range(1, 25))
    if not (small[0] == _SMALL[0][0] * _SMALL[1][0]
            and large[-1] == _LARGE[0][-1] * _LARGE[1][-1] and area > 0):
        raise RuntimeError("reference kernel miscomputed")
    return time.perf_counter() - start


class Speedometer:
    """Reference samples over one run, and the speed factor at any instant."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ref_s: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        ref = reference_kernel()
        self.at.append(start + ref / 2)
        self.ref_s.append(ref)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S

    def factor(self, when: float) -> float:
        """REF_NOMINAL_S over the median of the samples nearest to ``when``."""
        i = bisect.bisect_left(self.at, when)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.at) - NEIGHBOURS))
        return REF_NOMINAL_S / statistics.median(self.ref_s[lo:lo + NEIGHBOURS])

    def median_ref_s(self) -> float:
        return statistics.median(self.ref_s)

