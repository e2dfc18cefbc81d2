"""The kernel family used on the unit interval.

``kernel_eval(n, x)`` computes

    K_n(x) = -ln(x) - sum_{m=1..n} (1-x)**m / m,          0 < x <= 1,

the n-th member of a family that starts at ``K_0(x) = -ln(x)`` and strips
one more term of the logarithm's Taylor expansion around x = 1 each step.
The members satisfy

    K_{n+1}(x) = K_n(x) - (1-x)**(n+1) / (n+1),
    K_n'(x)    = -(1-x)**n / x,
    K_n(1)     = 0.

Close to x = 1 the closed form subtracts nearly equal quantities, so for
x above a fixed switch point we instead sum the convergent tail series

    K_n(x) = sum_{m >= n+1} (1-x)**m / m

with an explicit geometric remainder bound.  The accuracy is absolute,
not relative: the series stops once its remainder bound is below
``DEFAULT_TOL``, and the closed form keeps the rounding error of its
largest term.  Where K_n is small beside that the value can have no
correct digit:
``kernel_eval(20, 0.9)`` returns 5.1e-18 where K_20(0.9) = 5.3e-23, and
``kernel_eval(60, 0.5)`` returns -2.1e-17 although K_n > 0 on (0, 1).
"""

from __future__ import annotations

import math
import operator

#: bound on the truncation error of the tail series
DEFAULT_TOL = 1e-14

#: switch from closed form to tail series above this x
_SERIES_SWITCH = 0.9


def kernel_eval(n: int, x: float) -> float:
    """Evaluate the n-th kernel at x in (0, 1], to within ``DEFAULT_TOL`` of truth.

    n is admitted through ``operator.index``: a float index is a TypeError
    on both sides of the series switch.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("kernel index n must be >= 0")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"kernel argument must lie in (0, 1], got {x!r}")
    if x == 1.0:
        return 0.0
    u = 1.0 - x
    if x <= _SERIES_SWITCH:
        acc = -math.log(x)
        power = 1.0
        for m in range(1, n + 1):
            power *= u
            acc -= power / m
        return acc
    # Tail series: sum_{m>n} u**m/m.  After adding the term with index M the
    # remainder is below u**(M+1)/((M+1)*x) (geometric bound), which is what
    # we test against DEFAULT_TOL.
    power = u ** (n + 1)
    m = n + 1
    acc = 0.0
    while True:
        acc += power / m
        power *= u
        m += 1
        if power / (m * x) < DEFAULT_TOL:
            return acc

