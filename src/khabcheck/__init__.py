"""khabcheck: machine verification of the integral-inequality reduction
behind Khabibullin's conjecture.

The package provides exact polynomials held as integer rows over one
denominator, a symbolic term algebra closed under differentiation held the
same way, certified positivity decisions, and adaptive quadrature drivers
that confront every integral identity of the reduction with its analytic
target.
"""

__version__ = "0.1.0"

from .exact import ZPolynomial, positive_rational, rational
from .kernel import kernel_eval
from .constants import (
    beta_int,
    rhs_constant,
    verify_moment_identity,
    verify_reciprocity,
)
from .transition import (
    OracleAgreement,
    PhiFamily,
    log_weight,
    log_weight_derivatives,
    oracle_equiv_check,
    transition_evaluator,
    transition_oracle,
    transition_poly,
)
from .positivity import (
    PositivityVerdict,
    ScanReport,
    Status,
    alpha_threshold,
    poly_nonneg_on_pos,
    region_scan,
)
from .quadrature import (
    ChainReport,
    DensityFunction,
    QuadConfig,
    QuadResult,
    extremal_density_fn,
    integrate_log_moment,
    integrate_weight_prime_moment,
    reconstruction_sweep,
    verify_conjecture_chain,
    verify_weighted_moment,
)

__all__ = [
    "__version__",
    "ZPolynomial", "positive_rational", "rational",
    "kernel_eval",
    "beta_int", "rhs_constant", "verify_moment_identity", "verify_reciprocity",
    "OracleAgreement", "PhiFamily", "log_weight", "log_weight_derivatives",
    "oracle_equiv_check",
    "transition_evaluator", "transition_oracle",
    "transition_poly",
    "PositivityVerdict", "ScanReport", "Status",
    "alpha_threshold", "poly_nonneg_on_pos", "region_scan",
    "ChainReport", "DensityFunction", "QuadConfig", "QuadResult",
    "extremal_density_fn", "integrate_log_moment", "integrate_weight_prime_moment",
    "reconstruction_sweep", "verify_conjecture_chain", "verify_weighted_moment",
]
