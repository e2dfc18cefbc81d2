"""Command-line interface: parsing, report schema, determinism, exit codes."""

import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from khabcheck.cli import _SUITES, _record, _scored_record, main
from khabcheck.quadrature import DEFAULT_CONFIG, QuadResult, ResidualCheck


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- identities -----------------------------------------------------------------

def test_identities_json_report(capsys):
    code, out, _ = run(capsys, "identities", "--alpha", "1/2,2/3",
                       "--n-max", "6", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["tool"]["name"] == "khabcheck"
    assert "timestamp" not in doc
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["pass"] == len(doc["records"]) > 0
    checks = {r["check"] for r in doc["records"]}
    assert checks == {"kernel-moment-identity", "beta-product-reciprocity"}
    for r in doc["records"]:
        assert set(r) == {"check", "params", "target", "value", "residual",
                          "status"}


def test_timestamp_present_by_default(capsys):
    code, out, _ = run(capsys, "identities", "--alpha", "1/2", "--n-max", "2")
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_reports_are_deterministic(capsys):
    args = ("identities", "--alpha", "3/7", "--n-max", "9", "--no-timestamp")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# -- integrals --------------------------------------------------------------------

def test_log_moment_suite(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "logmoment",
                       "--alpha", "1", "--no-timestamp")
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["check"] == "log-weight-moment"
    assert rec["status"] == "pass"
    assert rec["target"] == pytest.approx(math.pi)
    assert abs(rec["residual"]) < 1e-8


def test_chain_suite_emits_premise_and_conclusion(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "chain",
                       "--alpha", "1/4", "--n", "1", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    checks = [r["check"] for r in doc["records"]]
    assert checks == ["chain-premise", "chain-conclusion"]
    assert all(r["status"] == "pass" for r in doc["records"])


def test_chain_suite_with_the_zero_density_passes_every_record(capsys):
    # q = 0 meets the premise (0 <= t^alpha) and the conclusion inequality
    # (0 <= its pi-multiple target), both with converged integrals
    code, out, _ = run(capsys, "integrals", "--suite", "chain", "--alpha", "1/4,1/2",
                       "--n", "1..2", "--q", "zero", "--no-timestamp")
    assert code == 0
    records = json.loads(out)["records"]
    assert [(r["check"], r["params"]["q"]) for r in records] == \
        [("chain-premise", "zero"), ("chain-conclusion", "zero")] * 4
    assert all(r["status"] == "pass" for r in records)
    assert all(r["value"] == 0.0 for r in records)


def test_chain_suite_inconclusive_when_gate_fails(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "chain",
                       "--alpha", "3/4", "--n", "2", "--no-timestamp")
    assert code == 0  # inconclusive is not a failure
    (rec,) = json.loads(out)["records"]
    assert rec["check"] == "conjecture-chain"
    assert rec["status"] == "inconclusive"
    assert rec["params"]["positivity"] == "Negative"


@pytest.mark.parametrize("alpha, code, statuses", [
    ("102", 0, ["pass", "pass", "inconclusive", "inconclusive"]),
    # the premise target t^alpha at t = 10^3 exceeds DBL_MAX once
    # alpha > log(DBL_MAX) / log(10^3) ~ 102.7
    ("103", 1, ["fail", "inconclusive", "inconclusive"]),
])
def test_chain_suite_float_range_ends_between_102_and_103(capsys, alpha, code, statuses):
    got, out, _ = run(capsys, "integrals", "--suite", "chain", "--alpha", alpha,
                      "--no-timestamp")
    assert got == code
    records = json.loads(out)["records"]
    assert [r["status"] for r in records] == statuses
    if code:
        assert records[0]["params"]["n"] == 1
        assert records[0]["params"]["error"].startswith("OverflowError")


def test_reconstruction_passes_where_the_evaluator_head_overflows(capsys):
    # at alpha = 256, n = 2, y = 1 the integrand reaches z = t^(2a) ~ 1e300,
    # where 4 a^2 t^(2a-1) overflows while the polynomial sum underflows
    code, out, _ = run(capsys, "integrals", "--suite", "reconstruction", "--alpha", "256",
                       "--n", "2", "--y", "1", "--no-timestamp")
    assert code == 0
    (r,) = json.loads(out)["records"]
    assert r["status"] == "pass"


def test_check_tol_reads_a_rational(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "logmoment", "--alpha", "1",
                       "--check-tol", "1/2", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["config"]["checkTol"] == 0.5


@pytest.mark.parametrize("field", ["target", "value", "residual"])
@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_fails_its_record_and_is_named(field, number):
    numbers = {"target": 1.0, "value": 1.0, "residual": 0.0, field: number}
    r = _record("c", {"n": 1}, "pass", **numbers)
    assert r["status"] == "fail"
    assert r[field] is None
    assert r["params"] == {"n": 1, "error": f"NonFiniteResult: {field} is {number}"}
    assert all(r[k] == numbers[k] for k in numbers if k != field)


def test_suite_all_runs_every_family(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "all",
                       "--alpha", "1/2", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    checks = {r["check"] for r in doc["records"]}
    assert checks == {"log-weight-moment", "weight-derivative-moment",
                      "reconstruction", "weighted-transition-moment",
                      "chain-premise", "chain-conclusion"}
    assert doc["summary"]["fail"] == 0
    # the default index set starts at 0; the chain part starts at 1
    chain_ns = {r["params"]["n"] for r in doc["records"]
                if r["check"] == "chain-premise"}
    assert chain_ns == {1, 2, 3, 4}


def test_explicit_chain_suite_rejects_index_zero(capsys):
    code, _, err = run(capsys, "integrals", "--suite", "chain",
                       "--alpha", "1/2", "--n", "0..2")
    assert code == 2
    assert "n >= 1" in err


def test_csv_format(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "weight-prime",
                       "--alpha", "1/2,1", "--format", "csv", "--no-timestamp")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,params,target,value,residual,status"
    assert len(lines) == 3
    assert all(line.endswith(",pass") for line in lines[1:])


def test_failing_tolerance_gives_exit_one(capsys):
    # an impossible check tolerance turns the verdicts into math failures; a
    # scored integral also passes within rel_tol * |target|, so both are set
    code, out, _ = run(capsys, "integrals", "--suite", "reconstruction",
                       "--alpha", "1/4", "--n", "2", "--y", "2",
                       "--check-tol", "0", "--rel-tol", "1e-300", "--no-timestamp")
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["fail"] >= 1


# -- scan --------------------------------------------------------------------------

def test_scan_region_grid(capsys):
    code, out, _ = run(capsys, "scan", "--n", "0..2",
                       "--alpha-grid", "1/4:3/4:1/4", "--no-timestamp")
    assert code == 0
    doc = json.loads(out)
    records = doc["records"]
    assert len(records) == 9  # three indices x three alphas
    by_key = {(r["params"]["polyIndex"], r["params"]["alpha"]): r
              for r in records}
    assert by_key[(2, "3/4")]["params"]["verdict"] == "Negative"
    assert "witness" in by_key[(2, "3/4")]["params"]
    assert by_key[(2, "1/2")]["params"]["verdict"] == "Nonnegative"
    assert by_key[(2, "1/2")]["params"]["certificate"]
    assert by_key[(0, "3/4")]["params"]["verdict"] == "Nonnegative"


def test_scan_threshold(capsys):
    code, out, _ = run(capsys, "scan", "--n", "1,3", "--threshold",
                       "--tol", "1e-6", "--no-timestamp")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 2
    for rec in records:
        lo = F(rec["params"]["lo"])
        hi = F(rec["params"]["hi"])
        assert lo <= F(1, 2) <= hi
        assert float(hi - lo) <= 1e-6
        assert rec["status"] == "pass"


def test_scan_threshold_at_a_tiny_tolerance(capsys, deadline):
    with deadline(10):
        code, out, _ = run(capsys, "scan", "--threshold", "--n", "3",
                           "--tol", "1e-13", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["records"][0]["status"] == "pass"


def test_scan_without_grid_or_threshold_is_usage_error(capsys):
    code, _, err = run(capsys, "scan", "--n", "1")
    assert code == 2
    assert "alpha-grid" in err


# -- plot data ----------------------------------------------------------------------

def test_plot_data_kernel_matches_direct_evaluation(capsys):
    code, out, _ = run(capsys, "plot-data", "--kernel", "--n", "0,2",
                       "--points", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,kernel_n0,kernel_n2"
    assert len(lines) == 11
    x, k0, _k2 = map(float, lines[3].split(","))
    assert k0 == pytest.approx(-math.log(x), rel=1e-12)


def test_plot_data_transition_closed_form(capsys):
    code, out, _ = run(capsys, "plot-data", "--transition", "--n", "0,1",
                       "--alpha", "1/2", "--points", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,transition_n0,transition_n1"
    assert len(lines) == 8
    for line in lines[1:]:
        t, v0, v1 = map(float, line.split(","))
        assert v0 == pytest.approx(1.0 / (1.0 + t) ** 2, rel=1e-10)
        assert v1 == pytest.approx(2.0 * t / (1.0 + t) ** 3, rel=1e-10)


def test_plot_data_rejects_tiny_grids(capsys):
    code, _, err = run(capsys, "plot-data", "--kernel", "--points", "1")
    assert code == 2
    assert "points" in err


# -- common plumbing -----------------------------------------------------------------

def test_out_writes_identical_report_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    args = ("identities", "--alpha", "1/2", "--n-max", "3", "--no-timestamp")
    code = main([*args, "--out", str(target)])
    assert code == 0
    capsys.readouterr()  # discard (nothing should be on stdout)
    _, stdout_copy, _ = run(capsys, *args)
    assert target.read_text() == stdout_copy


def test_float_alpha_is_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--alpha", "0.5"])
    assert exc.value.code == 2
    assert "argument --alpha: not an exact rational: '0.5'" in capsys.readouterr().err


def test_zero_alpha_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "--alpha", "0"])
    assert exc.value.code == 2
    assert "argument --alpha: alpha must be positive" in capsys.readouterr().err


# each argument parser's own refusal reaches the user, not argparse's
# "invalid <parser name> value"
@pytest.mark.parametrize("argv, message", [
    ("identities --alpha ,", "argument --alpha: empty list: ','"),
    ("identities --alpha 1/2 --n-max -1", "argument --n-max: must be >= 0: '-1'"),
    ("scan --n 3..1 --threshold", "argument --n: empty range: '3..1'"),
    ("scan --n 1 --alpha-grid 1/2:1",
     "argument --alpha-grid: grid must be start:stop:step, got '1/2:1'"),
    ("scan --n 1 --threshold --tol 0", "argument --tol: must be positive and finite: '0'"),
    ("integrals --suite reconstruction --alpha 1/2 --y 1/0",
     "argument --y: not a finite real: '1/0'"),
    ("integrals --suite logmoment --alpha 1 --check-tol -1",
     "argument --check-tol: must be nonnegative and finite: '-1'"),
    ("integrals --suite logmoment --alpha 1 --check-tol 1/0",
     "argument --check-tol: not a finite real: '1/0'"),
    ("scan --n 1 --alpha-grid 0:1:1/2", "argument --alpha-grid: alpha must be positive"),
    ("scan --n 1 --alpha-grid=-1/2:1:1/2", "argument --alpha-grid: alpha must be positive"),
], ids=["empty-list", "negative-index", "empty-range", "grid-shape", "zero-tol",
        "infinite-y", "negative-check-tol", "infinite-check-tol", "zero-grid-start",
        "negative-grid-start"])
def test_usage_errors_print_the_parsers_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from khabcheck import __version__
    assert capsys.readouterr().out.strip() == __version__


def _outcome(capsys, *argv):
    """(exit code, stdout, stderr) of ``main(*argv)``, a usage exit included."""
    try:
        code = main(*argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: stdout, stderr and exit code of each usage invocation at COLUMNS=80, keyed
#: by its argv joined with spaces
USAGE = json.loads((Path(__file__).parent / "data" / "cli_usage.json").read_text())


@pytest.mark.parametrize("invocation", list(USAGE), ids=lambda s: s or "<no args>")
def test_usage_output_matches_its_golden(capsys, monkeypatch, invocation):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _outcome(capsys, invocation.split())
    assert {"stdout": out, "stderr": err, "exit": code} == USAGE[invocation]


# the console script calls main() with no argv, which reads sys.argv[1:]
@pytest.mark.parametrize("argv, code", [
    (["scan", "--n", "0..2", "--alpha-grid", "1/2,1", "--no-timestamp"], 0),
    (["bogus"], 2),
], ids=["scan", "bogus"])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _outcome(capsys, argv)
    assert expected[0] == code
    monkeypatch.setattr(sys, "argv", ["khabcheck", *argv])
    assert _outcome(capsys) == expected


# -- parameter extremes ---------------------------------------------------------

#: each scored check's default pass tolerance; the exact identities demand 0
DEFAULT_TOL = {check: tol for check, tol, _, _ in _SUITES.values()}
DEFAULT_TOL["chain-premise"] = DEFAULT_TOL["chain-conclusion"] = DEFAULT_TOL["conjecture-chain"]
#: the checks scored by ``_scored_record``, which also allow the integral's
#: requested relative accuracy: max(tol, rel_tol * |target|)
RELATIVE_CHECKS = {"log-weight-moment", "weight-derivative-moment", "reconstruction",
                   "weighted-transition-moment"}


def _allowed_residual(r):
    tol = DEFAULT_TOL.get(r["check"], 0.0)
    if r["check"] in RELATIVE_CHECKS:
        return max(tol, DEFAULT_CONFIG.rel_tol * abs(r["target"]))
    return tol


def _refuse_non_finite(constant):
    # RFC 8259 has no NaN or Infinity; Python's json would read them
    raise ValueError(f"non-finite number in a JSON report: {constant}")


EXTREME_ALPHAS = [F(2) ** k for k in range(-8, 15)] + [F(1, 10**150), F(10**150)]


@pytest.mark.parametrize("alpha", EXTREME_ALPHAS,
                         ids=[f"2^{k}" for k in range(-8, 15)] + ["10^-150", "10^150"])
def test_every_command_completes_and_explains_its_failures(capsys, alpha):
    # a numeric failure is a fail record with its reason, never an escaped
    # exception, a usage error or a silent non-finite pass
    a = str(alpha)
    for argv in (f"identities --alpha {a} --n-max 4",
                 f"integrals --suite all --alpha {a} --n 1..2 --y 1/2",
                 f"scan --n 0..4 --alpha-grid {a}",
                 f"plot-data --transition --alpha {a} --n 0..2 --points 3"):
        code, out, _ = run(capsys, *argv.split())
        assert code in (0, 1), argv
        if argv.startswith("plot-data"):  # inf where Phi_n is past DBL_MAX, never NaN
            assert "nan" not in out.lower().replace("\n", ",").split(","), argv
            continue
        for r in json.loads(out, parse_constant=_refuse_non_finite)["records"]:
            if r["status"] == "fail":
                assert ("error" in r["params"]
                        or not abs(r["residual"]) <= _allowed_residual(r)), (argv, r)
            elif r["status"] == "pass":
                # a scan verdict carries only its value
                fields = (("value",) if r["check"] == "positivity-verdict"
                          else ("target", "value", "residual"))
                assert all(r[k] is not None and math.isfinite(r[k]) for k in fields), (argv, r)


def _check(target, residual):
    return ResidualCheck(value=target + residual, target=target,
                         quad=QuadResult(target + residual, 0.0, True, 1, 21))


@pytest.mark.parametrize("target, residual, status", [
    (500.0, 9e-7, "pass"),      # within the absolute tol 1e-6
    (500.0, 2e-6, "fail"),      # 1e-9 * 500 is below tol: as strict as tol alone
    (1e3, 1.5e-6, "fail"),      # |target| = tol / rel_tol: still tol alone
    (1e4, 9e-6, "pass"),        # within 1e-9 * |target| = 1e-5
    (-1e4, -9e-6, "pass"),
    (1e4, 1.1e-5, "fail"),
])
def test_scored_records_allow_the_requested_relative_accuracy(target, residual, status):
    r = _scored_record("c", {}, 1e-6, DEFAULT_CONFIG, _check(target, residual))
    assert r["status"] == status


def test_a_non_converged_integral_fails_within_any_tolerance():
    c = _check(1e4, 0.0)._replace(quad=QuadResult(1e4, 0.0, False, 2000, 42000))
    assert _scored_record("c", {}, 1e-6, DEFAULT_CONFIG, c)["status"] == "fail"


def test_a_large_weighted_moment_passes_on_its_relative_residual(capsys):
    # at alpha = 10^4, n = 4 the target is ~1.31e19, where one ulp is ~2,000
    # and the quadrature meets it to ~5e-12 relative
    code, out, err = run(capsys, "integrals", "--suite", "weighted-moment", "--alpha", "10000",
                         "--n", "4", "--no-timestamp")
    assert code == 0 and err == ""
    (r,) = json.loads(out)["records"]
    assert r["status"] == "pass"
    assert abs(r["residual"]) > 1e-6 and abs(r["residual"]) <= 1e-9 * abs(r["target"])
