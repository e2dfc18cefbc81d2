"""Kernel family A_n(x) = integral of (1-y)^n / y over [x, 1]."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from khabcheck.kernel import DEFAULT_TOL, kernel_eval


def test_frozen_values():
    assert kernel_eval(0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert kernel_eval(1, 0.5) == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)
    assert kernel_eval(2, 0.5) == pytest.approx(
        math.log(2.0) - 0.5 - 0.125, abs=1e-15)


@pytest.mark.parametrize("n", range(7))
def test_vanishes_at_right_endpoint(n):
    assert kernel_eval(n, 1.0) == 0.0


@pytest.mark.parametrize("n", [0, 1, 3, 6])
@pytest.mark.parametrize("x", [1e-6, 0.01, 0.3, 0.7, 0.89, 0.91, 0.97, 0.999999])
def test_matches_defining_integral(n, x):
    # independent oracle: adaptive quadrature of the defining integrand
    expected, err = quad(lambda y: (1.0 - y) ** n / y, x, 1.0,
                         epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-10
    assert kernel_eval(n, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_series_and_closed_form_agree_across_switch():
    # evaluation switches representation near x = 0.9; both sides must meet
    # (allowance covers the true slope |A_n'| <= 1.12 over the 2e-12 gap)
    for n in (0, 1, 4, 9):
        below = kernel_eval(n, 0.9 - 1e-12)
        above = kernel_eval(n, 0.9 + 1e-12)
        assert below == pytest.approx(above, abs=5e-12)


@pytest.mark.parametrize("x", [0.05, 0.25, 0.5, 0.85, 0.95])
@pytest.mark.parametrize("n", range(5))
def test_recurrence_defect_is_tiny(n, x):
    # A_{n+1}(x) = A_n(x) - (1-x)^(n+1)/(n+1), on both sides of the switch at 0.9
    step = kernel_eval(n, x) - (1.0 - x) ** (n + 1) / (n + 1)
    assert abs(kernel_eval(n + 1, x) - step) < 1e-14


def test_derivative_closed_form():
    # the slope of the defining integral is -(1-x)^n / x, on both branches
    h = 1e-7
    for n, x in ((0, 0.4), (2, 0.4), (3, 0.7), (1, 0.95)):
        numeric = (kernel_eval(n, x + h) - kernel_eval(n, x - h)) / (2 * h)
        assert numeric == pytest.approx(-((1.0 - x) ** n) / x, rel=1e-7), (n, x)


def test_domain_validation():
    with pytest.raises(ValueError):
        kernel_eval(0, 0.0)
    with pytest.raises(ValueError):
        kernel_eval(0, -0.1)
    with pytest.raises(ValueError):
        kernel_eval(0, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        kernel_eval(-1, 0.5)


@pytest.mark.parametrize("x", [0.5, 0.95], ids=["closed-form", "tail-series"])
def test_index_is_admitted_as_an_integer(x):
    # a float index is refused on both sides of the series switch; a NumPy
    # integer is admitted as the int it stands for
    with pytest.raises(TypeError):
        kernel_eval(1.5, x)
    value = kernel_eval(np.int64(2), x)
    assert type(value) is float and value == kernel_eval(2, x)


def test_default_tolerance_is_strict():
    assert DEFAULT_TOL <= 1e-14
