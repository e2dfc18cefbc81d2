"""Tests of the benchmark's own code: seeded inputs, output checks, tracer.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from perfbench import workloads as w  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SEEDS = range(12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_generation_is_deterministic(workload):
    def labels(seed, pass_no):
        return [op.label for op in w.pass_ops(workload, seed, pass_no)]

    assert labels(7, 0) == labels(7, 0)
    assert labels(7, 1) == labels(7, 1)
    assert labels(7, 0) != labels(8, 0)
    assert labels(7, 0) != labels(7, 1)
    assert ([op.label for op in w.defect_ops(workload, 7)]
            == [op.label for op in w.defect_ops(workload, 7)])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_stratum_is_filled(seed):
    grid = w.scan_grid(seed, 0)
    for lo, hi, m in w.SCAN_STRATA:
        assert sum(lo < a < hi for a in grid) == m
    # one draw always lands in the second isolation band (2, 5/2)
    assert sum(F(2) < a < F(5, 2) for a in grid) == 1
    assert all(a.denominator == w.Q for a in grid)

    pairs = w.integrals_pairs(seed, 0)
    alphas = [a for pair in pairs for a in pair]
    for lo, hi in w.INTEGRALS_TIMED:
        assert sum(2.0 ** lo <= a < 2.0 ** hi for a in alphas) == 1
    # every report pairs one slow (alpha <= 1/2) alpha with one fast alpha
    assert all(s <= F(1, 2) < f for s, f in pairs)
    assert min(alphas) >= 2 ** -5.5 and max(alphas) < 8

    defect = [F(op.label.split()[-1]) for op in w.defect_ops("integrals", seed)]
    drawn = defect[:len(w.INTEGRALS_DEFECT)]
    for lo, hi in w.INTEGRALS_DEFECT:
        assert sum(2.0 ** lo <= a < 2.0 ** hi for a in drawn) == 1
    assert defect[len(drawn):] == list(w.INTEGRALS_OVERFLOW)

    family = w.family_alphas(seed, 0)
    for lo, hi, m in w.FAMILY_TIMED:
        assert sum(lo < a < hi for a in family) == m
    family_defect = [F(op.label.split("=")[-1]) for op in w.defect_ops("family", seed)]
    for lo, hi, m in w.FAMILY_DEFECT:
        assert sum(lo < a < hi for a in family_defect) == m


def _scan_report(verdict, witness=None, certificate=None, index=1, alpha="3/4"):
    params = {"polyIndex": index, "conjectureN": index + 1, "alpha": alpha,
              "verdict": verdict}
    if witness is not None:
        params["witness"] = witness
    if certificate is not None:
        params["certificate"] = certificate
    record = {"check": "positivity-verdict", "params": params, "status": "pass",
              "target": None, "value": 0.0, "residual": None}
    return 0, json.dumps({"records": [record]}), ""


def test_true_witness_passes_the_check():
    # P_1(3/4, z) = 5/2 z - 1/2 is negative for z < 1/5
    v = w.check_scan_region(_scan_report("Negative", witness="1/10"), 1, [F(3, 4)])
    assert not v.wrong and not v.errors


@pytest.mark.parametrize("report", [
    _scan_report("Negative", witness="1"),       # P_1(3/4, 1) = 2 > 0
    _scan_report("Negative", witness="1/5"),     # a root, not a negative value
    _scan_report("Negative"),                    # no witness at all
    _scan_report("Nonnegative", alpha="1/4"),    # no certificate
])
def test_wrong_verdict_fails_the_check(report):
    alpha = F(json.loads(report[1])["records"][0]["params"]["alpha"])
    v = w.check_scan_region(report, 1, [alpha])
    assert v.wrong


def test_too_wide_threshold_bracket_fails_the_check():
    def report(lo, hi):
        record = {"check": "alpha-threshold", "status": "pass",
                  "params": {"polyIndex": 3, "lo": lo, "hi": hi}}
        return 0, json.dumps({"records": [record]}), ""

    assert not w.check_threshold(report("1/2", "500001/1000000"), 3).wrong
    assert w.check_threshold(report("1/2", "500002/1000000"), 3).wrong


def test_digest_ignores_witnesses():
    a = w.check_scan_region(_scan_report("Negative", witness="1/10"), 1, [F(3, 4)])
    b = w.check_scan_region(_scan_report("Negative", witness="1/100"), 1, [F(3, 4)])
    assert a.digest() == b.digest()


def test_tracer_covers_names_imported_by_other_modules():
    import khabcheck
    from khabcheck import cli, positivity, quadrature

    originals = (cli.region_scan, positivity.transition_poly, quadrature.kernel_eval,
                 khabcheck.ZPolynomial.specialize)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.region_scan is not originals[0]
        assert positivity.transition_poly is not originals[1]
        assert quadrature.kernel_eval is not originals[2]
        w.clear_caches()
        khabcheck.region_scan(range(4), [F(1, 4), F(5, 4)])
    finally:
        tracer.uninstall()
    assert (cli.region_scan, positivity.transition_poly, quadrature.kernel_eval,
            khabcheck.ZPolynomial.specialize) == originals
    table = tracer.table()
    m = tracer.metrics(table)
    assert m["positivity.decide_calls"] == 8
    assert m["exact.specialize_calls"] == 8
    assert m["transition.poly_build_calls"] == 4
    assert table["positivity.region_scan"]["incl_s"] >= m["positivity.decide_s"]
    assert all(row["self_s"] >= 0 for row in table.values())


def test_speed_factor_uses_the_nearest_reference_samples():
    from perfbench.speed import NEIGHBOURS, REF_NOMINAL_S, Speedometer

    speed = Speedometer()
    # a host twice as slow for the second half of the run
    speed.at = [float(t) for t in range(20)]
    speed.ref_s = [REF_NOMINAL_S] * 10 + [2 * REF_NOMINAL_S] * 10
    assert speed.factor(2.5) == 1.0
    assert speed.factor(17.5) == 0.5
    assert speed.factor(-5.0) == speed.factor(0.0) == 1.0
    assert speed.factor(99.0) == 0.5
    assert NEIGHBOURS <= 10
