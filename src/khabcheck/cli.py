"""Command-line front end: verification suites, scans, and plot data.

Subcommands
-----------
identities   exact rational identities (kernel moments, Beta-product
             reciprocity) over a range of indices
integrals    quadrature suites confronting integrals with their analytic
             targets: logmoment | weight-prime | reconstruction |
             weighted-moment | chain | all
scan         positivity verdict matrix over (index, alpha), or threshold
             bracketing with --threshold
plot-data    CSV curve samples of the kernels or transition functions

Examples
--------
    khabcheck identities --alpha 1/2 --n-max 10
    khabcheck integrals --suite logmoment --alpha 1
    khabcheck integrals --suite reconstruction --alpha 1/2 --n 0..3 --y 1/2,1,2
    khabcheck integrals --suite chain --alpha 1/2 --n 2 --q extremal
    khabcheck scan --n 1..8 --alpha-grid 1/10:1:1/10
    khabcheck scan --threshold --n 1..5 --tol 1e-6
    khabcheck plot-data --kernel --n 0,1,2 --points 200

alpha values are exact rationals ("1/2", "7/3"); floats are rejected so
that every certificate-bearing computation stays exact.  Reports are
deterministic: identical invocations with --no-timestamp produce
byte-identical output; the JSON timestamp is UTC, to the second.  Exit
codes: 0 all checks passed, 1 a mathematical check failed, an integral did
not converge or a computation failed numerically, 2 usage error.  A
numeric exception (ArithmeticError or ValueError) raised while building
one record -- an identities record, an integrals grid point, one y of the
reconstruction suite -- makes that record a `fail` that names it in
params.error, so the report completes; elsewhere (scan, plot-data) it
ends the run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .constants import moment_routes, reciprocity_routes
from .exact import positive_rational
from .kernel import kernel_eval
from .positivity import Status, alpha_threshold, region_scan
from .quadrature import (
    QuadConfig,
    ResidualCheck,
    extremal_density_fn,
    integrate_log_moment,
    integrate_weight_prime_moment,
    reconstruction_sweep,
    verify_conjecture_chain,
    verify_weighted_moment,
    DensityFunction,
)
from .transition import transition_evaluator

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")


def _argument_type(parse):
    """``parse`` as an argparse ``type``: its ValueError becomes an
    ArgumentTypeError with the same message, which argparse prints as it
    stands instead of "invalid <function name> value"."""
    @functools.wraps(parse)
    def admit(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return admit


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational: {text!r} (write e.g. 1/2, not 0.5)")
    return Fraction(text)


def _parts(text: str) -> list[str]:
    """The nonblank items of a comma list; a list with none is refused, since
    an empty grid would check nothing and pass."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"empty list: {text!r}")
    return parts


@_argument_type
def _parse_rational_list(text: str) -> list[Fraction]:
    return [positive_rational(_parse_rational(part)) for part in _parts(text)]


def _real(text: str) -> float:
    """A finite real, written as a rational or a decimal."""
    try:
        return float(Fraction(text))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"not a finite real: {text!r}") from None


@_argument_type
def _parse_real(text: str) -> float:
    """A positive finite real, written as a rational or a decimal."""
    value = _real(text)
    if not 0 < value < math.inf:
        raise ValueError(f"must be positive and finite: {text!r}")
    return value


@_argument_type
def _parse_real_list(text: str) -> list[float]:
    return [_parse_real(part) for part in _parts(text)]


@_argument_type
def _parse_check_tol(text: str) -> float:
    """A pass tolerance: finite and >= 0, where 0 demands exact agreement."""
    value = _real(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"must be nonnegative and finite: {text!r}")
    return value


@_argument_type
def _parse_index(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0: {text!r}")
    return value


@_argument_type
def _parse_int_set(text: str) -> list[int]:
    """Index lists: "0..3" (inclusive range), "1,2,5", or "4"; no negatives."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _parse_index(lo_text), _parse_index(hi_text)
        if hi < lo:
            raise ValueError(f"empty range: {text!r}")
        return list(range(lo, hi + 1))
    return sorted({_parse_index(part) for part in _parts(text)})


@_argument_type
def _parse_alpha_grid(text: str) -> list[Fraction]:
    """Either "start:stop:step" with rational endpoints, or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_parse_rational(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid bounds: {text!r}")
        grid = []
        value = positive_rational(start)  # the grid's smallest point
        while value <= stop:
            grid.append(value)
            value += step
        return grid
    return _parse_rational_list(text)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


def _record(check: str, params: dict, status: str,
            target: Optional[float] = None, value: Optional[float] = None,
            residual: Optional[float] = None) -> dict:
    # a non-finite target, value or residual shows nothing and has no JSON
    # form: it becomes null, and the record a fail that names it in params.error
    record = {"check": check, "params": params, "target": target,
              "value": value, "residual": residual, "status": status}
    bad = [k for k in ("target", "value", "residual")
           if record[k] is not None and not math.isfinite(record[k])]
    if bad:
        error = ", ".join(f"{k} is {record[k]}" for k in bad)
        record.update(dict.fromkeys(bad), status=FAIL,
                      params={**params, "error": f"NonFiniteResult: {error}"})
    return record


def _guarded(check: str, params: dict, build: Callable[[], list[dict]]) -> list[dict]:
    """The records ``build()`` returns or, where it raises a numeric
    exception, one fail record that names the exception in params.error."""
    try:
        return build()
    except (ArithmeticError, ValueError) as exc:
        return [_record(check, {**params, "error": f"{type(exc).__name__}: {exc}"}, FAIL)]


def _render_params(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


def _csv(header, rows) -> str:
    """A CSV table; a float is written as its repr, None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_report(records: list[dict], config: dict, fmt: str,
                   timestamp: bool) -> str:
    summary = {status: sum(1 for r in records if r["status"] == status)
               for status in (PASS, FAIL, INCONCLUSIVE)}
    if fmt == "json":
        doc = {
            "schemaVersion": 1,
            "tool": {"name": "khabcheck", "version": __version__},
            "config": config,
            "records": records,
            "summary": summary,
        }
        if timestamp:  # UTC, to the second
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # CSV: the records table only; configuration lives in the invocation
    return _csv(("check", "params", "target", "value", "residual", "status"),
                ((r["check"], _render_params(r["params"]), r["target"], r["value"],
                  r["residual"], r["status"]) for r in records))


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: report commands return (records, config); main renders them
# ---------------------------------------------------------------------------


# identity: (check name, (alpha, n_max) -> (n, target, value, den) per record, the
# exact target and value being integers over the shared denominator den)
_IDENTITIES = (("kernel-moment-identity", moment_routes),
               ("beta-product-reciprocity", reciprocity_routes))


def _cmd_identities(args: argparse.Namespace) -> tuple[list[dict], dict]:
    records = []
    for alpha in sorted(args.alpha):
        for check, identity in _IDENTITIES:
            for n, target, value, den in identity(alpha, args.n_max):
                params = {"alpha": str(alpha), "n": n}
                # int / int rounds correctly, as float(Fraction) does, and
                # raises the same OverflowError beyond the float range
                records += _guarded(check, params, lambda: [_record(
                    check, params, PASS if value == target else FAIL, target=target / den,
                    value=value / den, residual=(value - target) / den)])
    config = {"command": "identities", "alpha": [str(a) for a in args.alpha],
              "nMax": args.n_max}
    return records, config


def _scored_record(check: str, params: dict, tol: float, cfg: QuadConfig,
                   c: ResidualCheck) -> dict:
    """Pass a converged integral whose residual is within ``tol``, or within
    the relative accuracy ``cfg.rel_tol`` the integral was asked for: no
    float can meet an absolute ``tol`` below one ulp of a large target."""
    ok = c.quad.converged and abs(c.residual) <= max(tol, cfg.rel_tol * abs(c.target))
    return _record(check, params, PASS if ok else FAIL,
                   target=c.target, value=c.value, residual=c.residual)


def _scored(measure):
    """Suite driver for one integral scored against its target.

    ``measure(cfg, **point)`` returns a ``ResidualCheck``.
    """
    def records(check, params, tol, cfg, args, **point):
        return [_scored_record(check, params, tol, cfg, measure(cfg, **point))]
    return records


def _reconstruction_records(check, params, tol, cfg, args, n, alpha):
    """One record per y of ``--y``, all from one sweep at (n, alpha) built on
    first use; a sweep that cannot be built fails every y alike."""
    sweep = functools.cache(lambda: reconstruction_sweep(n, alpha, cfg))
    records = []
    for y in args.y:
        at = {**params, "y": y}
        records += _guarded(check, at, lambda: [_scored_record(check, at, tol, cfg, sweep()(y))])
    return records


def _chain_records(check, params, tol, cfg, args, n, alpha):
    """Premise and conclusion records, or one inconclusive record when the
    positivity gate of the reduction does not hold."""
    if n < 1:
        return []  # the combined run owns index 0 elsewhere
    q = args.q
    density = (extremal_density_fn(alpha, n) if q == "extremal" else
               DensityFunction(lambda t: 0.0, power_at_zero=0.0, power_at_infinity=-10.0))
    report = verify_conjecture_chain(n, alpha, density, cfg=cfg, premise_tol=tol)
    params = {**params, "q": q, "polyIndex": report.poly_index}
    if not report.applicable:
        return [_record(check, {**params, "positivity": report.positivity.status.value},
                        INCONCLUSIVE)]
    concl_ok = report.equality_within_tol if q == "extremal" else report.conclusion_satisfied
    return [
        _record("chain-premise", params, PASS if report.premise_satisfied else FAIL,
                target=0.0, value=report.premise_max_violation,
                residual=report.premise_max_deviation),
        _record("chain-conclusion", params, PASS if concl_ok else FAIL,
                target=report.rhs_value, value=report.conclusion.value,
                residual=report.conclusion.value - report.rhs_value),
    ]


# suite: (check name, default pass tolerance, grid axes in loop order, driver);
# a driver returns the records of one grid point, the reconstruction's one per y.
# Drivers name the numeric layers as module globals, looked up per call, so
# that wrappers swapped into this module at run time see every call.
_SUITES = {
    "logmoment": ("log-weight-moment", 1e-8, ("alpha",), _scored(
        lambda cfg, alpha: integrate_log_moment(alpha, cfg))),
    "weight-prime": ("weight-derivative-moment", 1e-8, ("alpha",), _scored(
        lambda cfg, alpha: integrate_weight_prime_moment(alpha, cfg))),
    "reconstruction": ("reconstruction", 1e-6, ("n", "alpha"), _reconstruction_records),
    "weighted-moment": ("weighted-transition-moment", 1e-6, ("n", "alpha"), _scored(
        lambda cfg, n, alpha: verify_weighted_moment(n, alpha, cfg))),
    "chain": ("conjecture-chain", 1e-6, ("n", "alpha"), _chain_records),
}


def _cmd_integrals(args: argparse.Namespace) -> tuple[list[dict], dict]:
    cfg = QuadConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
    if args.n is None:
        args.n = list(range(1, 4)) if args.suite == "chain" else list(range(0, 5))
    if args.suite == "chain" and any(n < 1 for n in args.n):
        raise ValueError("chain suite needs conjecture index n >= 1")
    grid = {"n": args.n, "alpha": sorted(args.alpha)}
    records = []
    for suite in _SUITES if args.suite == "all" else [args.suite]:
        check, tol, axes, driver = _SUITES[suite]
        tol = tol if args.check_tol is None else args.check_tol
        for values in itertools.product(*(grid[axis] for axis in axes)):
            point = dict(zip(axes, values))
            params = {**point, "alpha": str(point["alpha"])}
            records += _guarded(check, params,
                                lambda: driver(check, params, tol, cfg, args, **point))
    config = {"command": "integrals", "suite": args.suite,
              "alpha": [str(a) for a in sorted(args.alpha)],
              "n": args.n, "y": args.y, "q": args.q,
              "absTol": args.abs_tol, "relTol": args.rel_tol,
              "checkTol": args.check_tol}
    return records, config


def _cmd_scan(args: argparse.Namespace) -> tuple[list[dict], dict]:
    records = []
    if args.threshold:
        for n in args.n:
            lo, hi = alpha_threshold(n, args.tol)
            width = float(hi - lo)
            records.append(_record(
                "alpha-threshold",
                {"polyIndex": n, "conjectureN": n + 1,
                 "lo": str(lo), "hi": str(hi), "tol": args.tol},
                PASS if width <= args.tol else FAIL,
                value=float(lo), residual=width,
            ))
        config = {"command": "scan", "mode": "threshold", "n": args.n,
                  "tol": args.tol}
    else:
        if args.alpha_grid is None:
            raise ValueError("scan needs --alpha-grid (or --threshold)")
        report = region_scan(args.n, args.alpha_grid)
        for cell in report.cells:
            verdict = cell.verdict
            params = {"polyIndex": cell.poly_index,
                      "conjectureN": cell.conjecture_n,
                      "alpha": str(cell.alpha),
                      "verdict": verdict.status.value}
            if verdict.certificate:
                params["certificate"] = verdict.certificate
            if verdict.witness is not None:
                params["witness"] = str(verdict.witness)
            records.append(_record(
                "positivity-verdict", params, PASS,
                value=1.0 if verdict.status is Status.NONNEGATIVE else 0.0,
            ))
        config = {"command": "scan", "mode": "region", "n": args.n,
                  "alphaGrid": [str(a) for a in args.alpha_grid]}
    return records, config


def _cmd_plotdata(args: argparse.Namespace) -> str:
    """CSV curve samples: a bare table, not a report."""
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    if args.kernel:
        axis = "x"
        grid = [i / args.points for i in range(1, args.points + 1)]
        columns = [(f"kernel_n{n}", functools.partial(kernel_eval, n)) for n in args.n]
    else:
        if args.alpha is None or len(args.alpha) != 1:
            raise ValueError("--transition needs exactly one --alpha")
        axis = "t"
        lo, hi = math.log10(1e-2), math.log10(1e2)
        grid = [10.0 ** (lo + i * (hi - lo) / (args.points - 1)) for i in range(args.points)]
        columns = [(f"transition_n{n}", transition_evaluator(n, args.alpha[0]))
                   for n in args.n]
    return _csv((axis, *(label for label, _ in columns)),
                ((x, *(curve(x) for _, curve in columns)) for x in grid))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reports")


def _identities_arguments(p_id: argparse.ArgumentParser) -> None:
    p_id.add_argument("--alpha", type=_parse_rational_list, required=True,
                      metavar="P/Q[,P/Q...]")
    p_id.add_argument("--n-max", type=_parse_index, default=10)
    _add_common(p_id)
    p_id.set_defaults(func=_cmd_identities)


def _integrals_arguments(p_int: argparse.ArgumentParser) -> None:
    p_int.add_argument("--suite", required=True, choices=(*_SUITES, "all"))
    p_int.add_argument("--alpha", type=_parse_rational_list, required=True,
                       metavar="P/Q[,P/Q...]")
    p_int.add_argument("--n", type=_parse_int_set, default=None,
                       metavar="LO..HI|N[,N...]")
    p_int.add_argument("--y", type=_parse_real_list, default=[0.5, 1.0, 2.0],
                       metavar="Y[,Y...]")
    p_int.add_argument("--q", choices=("extremal", "zero"), default="extremal",
                       help="density driven through the chain suite")
    p_int.add_argument("--abs-tol", type=_parse_real, default=1e-10)
    p_int.add_argument("--rel-tol", type=_parse_real, default=1e-9)
    p_int.add_argument("--check-tol", type=_parse_check_tol, default=None,
                       help="override the per-suite pass tolerance (the chain "
                            "premise's is relative to t^alpha where that exceeds 1); "
                            "any other integral also passes within --rel-tol of its "
                            "target")
    _add_common(p_int)
    p_int.set_defaults(func=_cmd_integrals)


def _scan_arguments(p_scan: argparse.ArgumentParser) -> None:
    p_scan.add_argument("--n", type=_parse_int_set, required=True,
                        metavar="LO..HI|N[,N...]",
                        help="polynomial indices to scan")
    mode = p_scan.add_mutually_exclusive_group()
    mode.add_argument("--alpha-grid", type=_parse_alpha_grid, default=None,
                      metavar="START:STOP:STEP|LIST")
    mode.add_argument("--threshold", action="store_true",
                      help="bracket the nonnegativity threshold per index")
    p_scan.add_argument("--tol", type=_parse_real, default=1e-6)
    _add_common(p_scan)
    p_scan.set_defaults(func=_cmd_scan)


def _plotdata_arguments(p_plot: argparse.ArgumentParser) -> None:
    which = p_plot.add_mutually_exclusive_group(required=True)
    which.add_argument("--kernel", action="store_true")
    which.add_argument("--transition", action="store_true")
    p_plot.add_argument("--n", type=_parse_int_set, default=[0, 1, 2],
                        metavar="LO..HI|N[,N...]")
    p_plot.add_argument("--alpha", type=_parse_rational_list, default=None,
                        metavar="P/Q")
    p_plot.add_argument("--points", type=int, default=200)
    p_plot.add_argument("--out")
    p_plot.set_defaults(func=_cmd_plotdata)


#: each command's help line and the function that adds its options
_COMMANDS = {
    "identities": ("exact rational identity suite", _identities_arguments),
    "integrals": ("quadrature verification suites", _integrals_arguments),
    "scan": ("positivity region scan / threshold search", _scan_arguments),
    "plot-data": ("CSV curve samples", _plotdata_arguments),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one.

    A parser of one command parses that command's argv as the full parser
    does: its usage line names every command, and its messages are the same.
    An argv whose first word is no command (none, an unknown word, an option)
    needs the full parser, for its help, its choices and its messages.
    """
    parser = argparse.ArgumentParser(
        prog="khabcheck",
        description="verification suites for the integral-inequality reduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command in _COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        commands = {command: _COMMANDS[command]}
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        commands = _COMMANDS
    for name, (help_text, add_arguments) in commands.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        result = args.func(args)
    except ValueError as exc:
        print(f"khabcheck: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"khabcheck: numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, str):  # plot-data
        _emit(result, args.out)
        return 0
    records, config = result
    _emit(_render_report(records, config, args.format, not args.no_timestamp), args.out)
    return 1 if any(r["status"] == FAIL for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
