"""Import boundary: the public surface, SciPy loads only when a quadrature
panel runs, NumPy only when the positivity ladder reaches its float rung,
and start-up loads none of ``dataclasses``, ``inspect`` and ``datetime``.

Each import case runs in a fresh ``python -I`` interpreter with ``src`` first
on ``sys.path``, so no module loaded by the test session leaks into it.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import khabcheck

ROOT = Path(__file__).parents[1]
DATA = Path(__file__).parent / "data"

#: the modules an import case reports when its statement loads them
WATCHED = ("scipy", "numpy", "dataclasses", "inspect", "datetime")

# runs ``statement``, whose report goes to stdout, then prints on the last
# line of stderr which WATCHED modules the statement added to sys.modules
# (what the interpreter's own start-up loaded does not count)
PROGRAM = """\
import sys
sys.path.insert(0, {src!r})
code = 0
before = set(sys.modules)
{statement}
print(*(m for m in {watched!r} if m in sys.modules and m not in before), file=sys.stderr)
sys.exit(code)
"""


def run_fresh(statement):
    """(exit code, stdout bytes, the set of WATCHED modules that loaded)."""
    program = PROGRAM.format(src=str(ROOT / "src"), statement=statement, watched=WATCHED)
    done = subprocess.run([sys.executable, "-I", "-c", program],
                          capture_output=True, timeout=300)
    last = done.stderr.decode().splitlines()[-1:]
    return done.returncode, done.stdout, set(last[0].split()) if last else None


def cli_statement(argv):
    return f"from khabcheck.cli import main\ncode = main({argv.split()!r})"


# the scan cases reach the ladder's float rung, where NumPy loads, and
# NumPy brings inspect (and, by its version, dataclasses) with it
@pytest.mark.parametrize("statement, loaded", [
    ("import khabcheck", set()),
    ("import khabcheck.cli", set()),
    (cli_statement("scan --n 0..4 --alpha-grid 1/4:2:1/4 --no-timestamp"), {"numpy"}),
    (cli_statement("scan --n 1..6 --threshold --no-timestamp"), {"numpy"}),
    (cli_statement("identities --alpha 1/2,2/3 --n-max 6 --no-timestamp"), set()),
    (cli_statement("plot-data --kernel --n 0,1 --points 5"), set()),
    (cli_statement("plot-data --transition --n 0,1 --alpha 1/2 --points 5"), set()),
], ids=["import-khabcheck", "import-cli", "scan-region", "scan-threshold",
        "identities", "plot-data-kernel", "plot-data-transition"])
def test_scipy_is_not_loaded(statement, loaded):
    code, _, modules = run_fresh(statement)
    assert code == 0
    if "numpy" in loaded:
        assert modules & {"scipy", "numpy"} == loaded
    else:
        assert modules == loaded


def test_integrals_load_scipy_and_report_the_golden_bytes():
    code, out, modules = run_fresh(
        cli_statement("integrals --suite all --alpha 1/4,3 --no-timestamp"))
    assert code == 0
    assert "scipy" in modules
    assert out == (DATA / "report_integrals_all.json").read_bytes()


PUBLIC = [
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

#: names deleted because no command, workload or module called them, by the
#: submodule that defined each
ABSENT = {
    "quad_nonneg": "positivity",
    "QuadraticCoeffs": "positivity",
    "kernel_derivative": "kernel",
    "kernel_recurrence_check": "kernel",
    "khabibullin_transform": "quadrature",
    "ALPHA": "exact",
    "AlphaPolynomial": "exact",
    "MixedTerm": "termalgebra",
    "log_weight_prime_seed": "transition",
    "integrate_01_kernel": "quadrature",
    "AsymptoticReport": "transition",
    "asymptotic_check": "transition",
    "kernel_power_moment": "constants",
    "mixed_diff": "termalgebra",
    "transition_eval": "transition",
    "verify_reconstruction": "quadrature",
    "transition_via_base_derivatives": "transition",
}

#: names that left the package namespace but stay in the submodule that
#: defines them, which the benchmark and the tests import directly
SUBMODULE_ONLY = {
    "MixedSum": "termalgebra",
    "mixed_eval": "termalgebra",
}


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 33
    assert khabcheck.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(khabcheck, name)
    for name, module in ABSENT.items():
        assert not hasattr(khabcheck, name)
        assert not hasattr(importlib.import_module(f"khabcheck.{module}"), name)
    for name, module in SUBMODULE_ONLY.items():
        assert not hasattr(khabcheck, name)
        getattr(importlib.import_module(f"khabcheck.{module}"), name)
