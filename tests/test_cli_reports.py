"""CLI reports end to end: golden bytes, numeric failures as records,
parse-time validation, and the documented example invocations."""

import csv
import json
import re
from pathlib import Path

import pytest

from khabcheck import cli, quadrature
from khabcheck.cli import main

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parents[1]

SUITE_CHECKS = {"log-weight-moment", "weight-derivative-moment", "reconstruction",
                "weighted-transition-moment", "conjecture-chain"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden reports: --no-timestamp output must not change by a byte ------------

@pytest.mark.parametrize("golden, argv", [
    ("report_integrals_all.json", "integrals --suite all --alpha 1/4,3 --no-timestamp"),
    ("report_integrals_all.csv",
     "integrals --suite all --alpha 1/4,3 --format csv --no-timestamp"),
    ("report_integrals_sweep.json", "integrals --suite all --alpha 1/30,5/8,7/4 --no-timestamp"),
    ("report_identities.json", "identities --alpha 1/2,2/3 --n-max 6 --no-timestamp"),
    # both moment routes read in one walk per alpha, to n = 60
    ("report_identities_n60.csv",
     "identities --alpha 1/3,2/7,1000/4099 --n-max 60 --format csv --no-timestamp"),
    ("report_scan_region.json", "scan --n 0..4 --alpha-grid 1/4:2:1/4 --no-timestamp"),
    ("report_scan_threshold.json", "scan --n 1..6 --threshold --no-timestamp"),
    ("report_scan_region_21x40.csv",
     "scan --n 0..20 --alpha-grid 1/20:2:1/20 --format csv --no-timestamp"),
    # plot-data prints transition_evaluator floats directly and has no timestamp
    ("plot_transition.csv", "plot-data --transition --n 0..20 --alpha 7/3 --points 41"),
    # kernel_eval floats on both sides of the series switch at x = 0.9
    ("plot_kernel.csv", "plot-data --kernel --n 0..12 --points 100"),
])
def test_report_matches_golden_bytes(capsys, golden, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out == (DATA / golden).read_bytes().decode("utf-8")


def test_tiny_alpha_identities_match_golden_bytes(capsys):
    # at alpha = 1e-160 every kernel moment (~1e320) overflows a float: 41
    # OverflowError fail records, kept next to the passing reciprocity records
    tiny = "1/1" + "0" * 160
    code, out, _ = run(capsys, "identities", "--alpha", f"{tiny},1/3", "--n-max", "40",
                       "--format", "csv", "--no-timestamp")
    assert code == 1
    assert out == (DATA / "report_identities_tiny_alpha.csv").read_bytes().decode("utf-8")
    assert out.count("OverflowError") == 41 and out.count(",pass\n") == 121


def test_tiny_alpha_identities_at_n200_match_golden_bytes(capsys):
    # the integer walks at n <= 200: 201 overflowing kernel moments at
    # alpha = 1e-160, and every other record passing
    tiny = "1/1" + "0" * 160
    code, out, _ = run(capsys, "identities", "--alpha", f"{tiny},1/3", "--n-max", "200",
                       "--format", "csv", "--no-timestamp")
    assert code == 1
    assert out == (DATA / "report_identities_tiny_alpha_n200.csv").read_bytes().decode("utf-8")
    assert out.count("OverflowError") == 201 and out.count(",pass\n") == 601


# -- numeric failures -----------------------------------------------------------

@pytest.mark.parametrize("alpha", ["1/64", "3/232"])
def test_numeric_failures_become_fail_records(capsys, alpha):
    code, out, err = run(capsys, "integrals", "--suite", "all", "--alpha", alpha,
                         "--no-timestamp")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    records = doc["records"]
    assert len(records) == 26  # 1 + 1 + 5 indices x 3 y + 5 indices + 4 chain indices
    assert {r["check"] for r in records} >= SUITE_CHECKS
    failed = [r for r in records if r["status"] == "fail"]
    assert failed and doc["summary"]["fail"] == len(failed)
    for r in failed:
        assert re.match(r"^[A-Za-z]+Error: ", r["params"]["error"])
        assert r["target"] is None and r["value"] is None and r["residual"] is None
        assert set(r) == {"check", "params", "target", "value", "residual", "status"}
    assert all(r["status"] != "inconclusive" for r in records)


def test_failures_keep_the_passing_records(capsys):
    code, out, _ = run(capsys, "integrals", "--suite", "all", "--alpha", "1/64",
                       "--no-timestamp")
    assert code == 1
    records = json.loads(out)["records"]
    passed = [r for r in records if r["status"] == "pass"]
    assert len(passed) == 15
    assert {r["check"] for r in passed} == {"reconstruction"}
    assert all("error" not in r["params"] for r in passed)


def test_csv_cells_keep_commas_in_params(capsys):
    argv = ("integrals", "--suite", "all", "--alpha", "3/232,1/64", "--no-timestamp")
    _, out, _ = run(capsys, *argv)
    records = json.loads(out)["records"]
    _, out, _ = run(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["check", "params", "target", "value", "residual", "status"]
    assert len(rows) == len(records) + 1
    assert all(len(row) == 6 for row in rows)
    assert [row[1] for row in rows[1:]] == [cli._render_params(r["params"]) for r in records]
    assert any("," in r["params"].get("error", "") for r in records)


def test_reconstruction_failure_at_one_y_fails_that_record_only(capsys):
    # at y = 1e308, y/u overflows to inf at some node, which Phi_n refuses
    argv = ("integrals", "--suite", "reconstruction", "--alpha", "1/4", "--n", "1",
            "--no-timestamp", "--y")
    code, out, err = run(capsys, *argv, "0.5,1e308,2")
    assert code == 1 and err == ""
    records = json.loads(out)["records"]
    assert [r["status"] for r in records] == ["pass", "fail", "pass"]
    assert records[1]["params"] == {"n": 1, "alpha": "1/4", "y": 1e308,
                                    "error": "ValueError: t must be positive and finite"}
    _, kept, _ = run(capsys, *argv, "0.5,2")
    assert [records[0], records[2]] == json.loads(kept)["records"]


def _kernel_calls(monkeypatch, capsys, argv):
    calls = []
    kernel_eval = quadrature.kernel_eval
    monkeypatch.setattr(quadrature, "kernel_eval",
                        lambda k, x: calls.append((k, x)) or kernel_eval(k, x))
    run(capsys, *argv.split())
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("alpha", ["1/4", "1/2", "7/2"])
def test_reconstruction_suite_evaluates_each_kernel_node_once(monkeypatch, capsys, alpha):
    calls = _kernel_calls(monkeypatch, capsys, "integrals --suite reconstruction "
                          f"--alpha {alpha} --n 0..2 --y 1e-3,1/2,1,2,1e3")
    # one sweep per (n, alpha): K_n at a node is computed once for all five y
    assert calls and len(calls) == len(set(calls))


def test_no_node_table_outlives_its_report(monkeypatch, capsys):
    argv = "integrals --suite all --alpha 1/4,3 --no-timestamp"
    first = _kernel_calls(monkeypatch, capsys, argv)
    assert first and _kernel_calls(monkeypatch, capsys, argv) == first


@pytest.mark.parametrize("argv", [
    "plot-data --transition --n 60 --alpha 10000000 --points 3",
])
def test_numeric_failures_outside_integrals_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"khabcheck: numeric failure: OverflowError: [^\n]+\n", err)


def test_identities_overflow_fails_only_its_records(capsys):
    # the kernel moments at alpha = 1e-160 are ~1e320, beyond a float
    tiny = "1/1" + "0" * 160
    code, out, err = run(capsys, "identities", "--alpha", f"{tiny},1/2", "--n-max", "2",
                         "--no-timestamp")
    assert code == 1
    assert err == ""
    records = json.loads(out)["records"]
    assert len(records) == 2 * (3 + 2)
    failed = [r for r in records if r["status"] == "fail"]
    assert [(r["check"], r["params"]["alpha"], r["params"]["n"]) for r in failed] == [
        ("kernel-moment-identity", tiny, n) for n in range(3)]
    for r in failed:
        assert re.fullmatch(r"OverflowError: .+", r["params"]["error"])
        assert r["target"] is None and r["value"] is None and r["residual"] is None
    # the reciprocity records at the tiny alpha and every record at 1/2 are kept
    assert all(r["status"] == "pass" and "error" not in r["params"]
               for r in records if r not in failed)
    _, half, _ = run(capsys, "identities", "--alpha", "1/2", "--n-max", "2", "--no-timestamp")
    assert [r for r in records if r["params"]["alpha"] == "1/2"] == json.loads(half)["records"]


def test_identities_at_n_max_zero_is_the_n0_moment_record_only(capsys):
    code, out, err = run(capsys, "identities", "--alpha", "1/2", "--n-max", "0",
                         "--no-timestamp")
    assert code == 0 and err == ""
    records = json.loads(out)["records"]
    assert [(r["check"], r["params"], r["status"]) for r in records] == [
        ("kernel-moment-identity", {"alpha": "1/2", "n": 0}, "pass")]
    assert records[0]["target"] == records[0]["value"] == 4.0


# -- parse-time validation --------------------------------------------------------

@pytest.mark.parametrize("argv, flag", [
    ("integrals --suite reconstruction --alpha 1/2 --y inf", "--y"),
    ("integrals --suite reconstruction --alpha 1/2 --n -1", "--n"),
    ("integrals --suite weighted-moment --alpha 1/2 --n 1,-1", "--n"),
    ("scan --n -1 --alpha-grid 1/2", "--n"),
    ("identities --alpha 1/2 --n-max -1", "--n-max"),
    ("identities --alpha 1/0", "--alpha"),
    ("integrals --suite reconstruction --alpha 1/2 --y 1/0", "--y"),
    pytest.param("integrals --suite reconstruction --alpha 1/2 --y " + "9" * 400, "--y",
                 id="y-beyond-the-float-range"),
    ("scan --n 1 --alpha-grid 1/2:1:1/0", "--alpha-grid"),
    ("scan --threshold --n 1 --tol nan", "--tol"),
    ("scan --threshold --n 1 --tol inf", "--tol"),
    ("scan --threshold --n 1 --tol 0", "--tol"),
    ("integrals --suite logmoment --alpha 1 --abs-tol inf", "--abs-tol"),
    ("integrals --suite logmoment --alpha 1 --rel-tol nan", "--rel-tol"),
    ("integrals --suite logmoment --alpha 1 --check-tol -1", "--check-tol"),
    # an empty list would check nothing and pass
    ("identities --alpha ,", "--alpha"),
    ("integrals --suite all --alpha ,", "--alpha"),
    ("integrals --suite reconstruction --alpha 1/2 --y ,", "--y"),
    ("integrals --suite weighted-moment --alpha 1/2 --n ,", "--n"),
    ("scan --threshold --n ,", "--n"),
    ("scan --n 1 --alpha-grid ,", "--alpha-grid"),
    ("plot-data --kernel --n ,", "--n"),
    # a threshold search reads no grid, so a grid given with it is refused
    ("scan --threshold --n 1 --alpha-grid 1/2", "--alpha-grid"),
    ("scan --alpha-grid 1/2 --threshold --n 1", "--threshold"),
])
def test_bad_inputs_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


# -- the documented examples run ---------------------------------------------------

def _examples() -> list[str]:
    lines = (ROOT / "README.md").read_text().splitlines() + cli.__doc__.splitlines()
    found = [line.strip() for line in lines if line.strip().startswith("khabcheck ")]
    return sorted(set(found))


def test_examples_are_found():
    assert len(_examples()) >= 10


@pytest.mark.parametrize("example", _examples())
def test_documented_example_runs(capsys, example):
    argv = example.split()[1:]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out
    if argv[0] != "plot-data" and "csv" not in argv:
        json.loads(out)
