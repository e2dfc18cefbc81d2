"""Every entry point admits alpha, and every index, the same way.

``exact.positive_rational`` is the one admission rule for alpha.  A float
alpha is a TypeError (it would otherwise become a long binary fraction), a
value <= 0 is a ValueError, and a string such as "1/2" is the same input as
F(1, 2).  ``exact.index_at_least`` is the one rule for an index: a float is
a TypeError from the call itself, and an index below the door's floor is a
ValueError ``<name> must be >= <floor>``.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from khabcheck.constants import (
    beta_int,
    moment_routes,
    reciprocity_routes,
    rhs_constant,
    verify_moment_identity,
    verify_reciprocity,
)
from khabcheck.exact import row_value
from khabcheck.kernel import kernel_eval
from khabcheck.positivity import (
    alpha_threshold,
    coeffs_nonneg_on_pos,
    poly_nonneg_on_pos,
    region_scan,
)
from khabcheck.quadrature import (
    extremal_density_fn,
    integrate_log_moment,
    integrate_weight_prime_moment,
    reconstruction_sweep,
    verify_conjecture_chain,
    verify_weighted_moment,
)
from khabcheck.termalgebra import MixedSum
from khabcheck.transition import (
    PhiFamily,
    log_weight_derivatives,
    oracle_equiv_check,
    transition_evaluator,
    transition_oracle,
    transition_poly,
)

DENSITY = extremal_density_fn(F(1, 2), 2)


def _density(a):
    q = extremal_density_fn(a, 2)
    return q.power_at_zero, q.evaluator(0.7)


#: each entry called with alpha in one position and a comparable result
ENTRIES = {
    "beta_int": lambda a: beta_int(a, 3),
    "rhs_constant": lambda a: rhs_constant(a, 3),
    "moment_routes": lambda a: list(moment_routes(a, 2)),
    "reciprocity_routes": lambda a: list(reciprocity_routes(a, 2)),
    "verify_moment_identity": lambda a: verify_moment_identity(a, 2),
    "verify_reciprocity": lambda a: verify_reciprocity(a, 2),
    "transition_evaluator": lambda a: transition_evaluator(2, a)(0.7),
    "PhiFamily.build": lambda a: PhiFamily.build(a, 2),
    "oracle_equiv_check": lambda a: oracle_equiv_check(1, [F(1, 4), a], [0.7]),
    "poly_nonneg_on_pos": lambda a: poly_nonneg_on_pos(transition_poly(2), a),
    "region_scan": lambda a: region_scan([2], [F(1, 4), a]),
    "extremal_density_fn": _density,
    "integrate_log_moment": integrate_log_moment,
    "integrate_weight_prime_moment": integrate_weight_prime_moment,
    # the reconstruction check at one y, keyed by the check rather than its builder
    "verify_reconstruction": lambda a: reconstruction_sweep(1, a)(0.5),
    "verify_weighted_moment": lambda a: verify_weighted_moment(1, a),
    "verify_conjecture_chain": lambda a: verify_conjecture_chain(1, a, DENSITY),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("bad, error", [
    (0.5, TypeError),
    (np.float64(0.5), TypeError),
    (0, ValueError),
    (F(-1, 2), ValueError),
])
def test_entry_refuses_floats_and_nonpositive_alphas(entry, bad, error):
    with pytest.raises(error):
        entry(bad)


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_entry_reads_a_string_as_the_same_rational(entry):
    assert entry("1/2") == entry(F(1, 2))


def test_exact_evaluators_refuse_floats():
    with pytest.raises(TypeError):
        coeffs_nonneg_on_pos([0.5, 1])
    with pytest.raises(TypeError):
        coeffs_nonneg_on_pos([1, 1], 2.0)
    with pytest.raises(TypeError):
        row_value([1, 2], 1, 0.5)
    with pytest.raises(TypeError):
        MixedSum([((1, 0, 0), [0.5])])


@pytest.mark.parametrize("den", [0, -1])
def test_decider_refuses_a_nonpositive_den(den):
    with pytest.raises(ValueError, match="^den must be a positive integer$"):
        coeffs_nonneg_on_pos([1, 1], den)


#: each index door called with the index in one position: (call, a float
#: index, the largest index below the floor, that index's message)
INDEX_DOORS = {
    "kernel_eval": (lambda n: kernel_eval(n, 0.5), 2.5, -1, "kernel index n must be >= 0"),
    "transition_poly": (transition_poly, 2.5, -1, "polynomial index must be >= 0"),
    "log_weight_derivatives": (log_weight_derivatives, 2.5, 0, "count must be >= 1"),
    "transition_oracle": (transition_oracle, 2.5, -1, "index must be >= 0"),
    "oracle_equiv_check": (lambda n: oracle_equiv_check(n, [F(1, 2)], [0.7]), 2.5, -1,
                           "n_max must be >= 0"),
    "PhiFamily.build": (lambda n: PhiFamily.build(F(1, 2), n), 2.5, -1, "max_n must be >= 0"),
    "alpha_threshold": (alpha_threshold, 2.5, 0, "polynomial index must be >= 1"),
    "region_scan": (lambda n: region_scan([1, n], [F(1, 2)]), 2.5, -1,
                    "polynomial index must be >= 0"),
    "verify_conjecture_chain": (lambda n: verify_conjecture_chain(n, F(1, 2), DENSITY), 2.5, 0,
                                "conjecture index n must be >= 1"),
    "beta_int": (lambda n: beta_int(1, n), 1.5, 0, "n must be >= 1"),
    "rhs_constant": (lambda n: rhs_constant(1, n), 2.0, 0, "n must be >= 1"),
    "extremal_density_fn": (lambda n: extremal_density_fn(1, n), 2.0, 0, "n must be >= 1"),
    # the walks are not iterated: both refusals come from the call itself
    "moment_routes": (lambda n: moment_routes(1, n), 2.5, -1, "n_max must be >= 0"),
    "reciprocity_routes": (lambda n: reciprocity_routes(1, n), 2.5, -1, "n_max must be >= 0"),
    "verify_moment_identity": (lambda n: verify_moment_identity(1, n), 2.5, -1,
                               "n_max must be >= 0"),
    "verify_reciprocity": (lambda n: verify_reciprocity(1, n), 2.5, 0, "n_max must be >= 1"),
}


@pytest.mark.parametrize("door, float_index, below, message", INDEX_DOORS.values(),
                         ids=INDEX_DOORS.keys())
def test_index_door_refuses_a_float_and_an_index_below_its_floor(door, float_index, below,
                                                                  message):
    with pytest.raises(TypeError):
        door(float_index)
    with pytest.raises(TypeError):
        door(np.float64(float_index))
    with pytest.raises(ValueError, match=f"^{message}$"):
        door(below)
