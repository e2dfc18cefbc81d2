"""Seeded inputs, operations and exact output checks for the three workloads.

An operation is one report a user would ask for.  Each runs through the
package's public API with cold package caches, as a fresh ``khabcheck``
process would, and its output is checked with exact rational arithmetic
only.  Operations reach the package through module attributes at call
time, so a tracer that swaps those attributes sees every call; the checks
use functions captured at import, so they never show up as spans.

Inputs come in two sets per seed:

* the timed strata, where the parent program completes every operation;
  they are drawn afresh for every pass (``pass_ops``);
* the defect strata, where the parent program is known to fail (numeric
  underflow/overflow in ``integrals`` below alpha ~1/54, oracle round-off
  in ``family`` above alpha 1/2).  They run once per run, untimed, and
  their failures are counted in ``failed_share`` (``defect_ops``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import khabcheck
from khabcheck import cli

F = Fraction

#: prime denominator of every scan/family alpha: no alpha reduces, so the
#: cost of a cell does not hinge on accidental cancellation
Q = 97
#: prime denominator of integrals alphas, fine enough for alpha = 1/256
Q_INTEGRALS = 4099

#: scan: (lo, hi, draws) per stratum; every draw lies strictly inside
#: (lo, hi).  (1, 3/2) is the heavy Sturm-isolation stratum; the middle
#: third of (3/2, 3) is the second isolation band (2, 5/2).
SCAN_STRATA = ((F(0), F(1, 2), 2), (F(1, 2), F(1), 2),
               (F(1), F(3, 2), 3), (F(3, 2), F(3), 3))
SCAN_INDICES = range(0, 13)
THRESHOLD_INDICES = range(1, 13)
THRESHOLD_TOL = "1e-6"

#: integrals: log2(alpha) strata.  Timed: nine half-octaves over
#: [2^-5.5, 2^-1] (alpha <= 1/2, where the report runs the whole chain
#: suite) and nine equal strata over (2^-1, 2^3]; each report pairs one
#: alpha of each kind.  Defect: [2^-8, 2^-5.5) by half-octaves, plus two
#: alphas that raise OverflowError.
INTEGRALS_SLOW = tuple((x / 2, x / 2 + 0.5) for x in range(-11, -2))
INTEGRALS_FAST = tuple((-1 + 4 * j / 9, -1 + 4 * (j + 1) / 9) for j in range(9))
INTEGRALS_TIMED = INTEGRALS_SLOW + INTEGRALS_FAST
INTEGRALS_DEFECT = tuple((x / 2, x / 2 + 0.5) for x in range(-16, -11))
INTEGRALS_OVERFLOW = (F(3, 232), F(3, 250))

#: family: polynomial index bound and (lo, hi, draws) strata
FAMILY_N = 20
FAMILY_TIMED = ((F(0), F(1, 4), 2), (F(1, 4), F(1, 2), 2))
FAMILY_DEFECT = ((F(1, 2), F(3, 4), 1), (F(3, 4), F(1), 1))


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def stratum_draws(rng: random.Random, lo: Fraction, hi: Fraction,
                  draws: int) -> list[Fraction]:
    """``draws`` alphas num/Q strictly inside (lo, hi), one per equal sub-range.

    Splitting the stratum keeps the share of each sub-band fixed from seed
    to seed; numerators divisible by Q are skipped so no alpha reduces.
    """
    nums = [k for k in range(math.floor(lo * Q), math.ceil(hi * Q) + 1)
            if lo < F(k, Q) < hi and k % Q]
    if len(nums) < draws:
        raise ValueError(f"stratum ({lo}, {hi}) too narrow for {draws} draws")
    size = len(nums) / draws
    return [F(rng.choice(nums[round(j * size):round((j + 1) * size)]), Q)
            for j in range(draws)]


def log_draw(rng: random.Random, lo_exp: float, hi_exp: float) -> Fraction:
    """One alpha log-uniform in [2^lo_exp, 2^hi_exp) with denominator Q_INTEGRALS."""
    lo = math.ceil(2.0 ** lo_exp * Q_INTEGRALS)
    hi = math.ceil(2.0 ** hi_exp * Q_INTEGRALS) - 1
    num = round(2.0 ** rng.uniform(lo_exp, hi_exp) * Q_INTEGRALS)
    return F(min(max(num, lo), hi), Q_INTEGRALS)


def scan_grid(seed: int, pass_no: int) -> list[Fraction]:
    rng = _rng(seed, f"scan:{pass_no}")
    return sorted(a for lo, hi, m in SCAN_STRATA for a in stratum_draws(rng, lo, hi, m))


def integrals_pairs(seed: int, pass_no: int) -> list[tuple[Fraction, Fraction]]:
    """Timed alpha pairs: slow stratum j with a random fast stratum.

    A report at alpha <= 1/2 runs the whole chain suite and takes ~6x as
    long as one above 1/2.  Single-alpha reports would put the median
    latency on the edge between those two clusters, where it jumps from
    run to run; one alpha of each kind per report keeps every report's
    cost alike.
    """
    rng = _rng(seed, f"integrals:{pass_no}")
    slow = [log_draw(rng, lo, hi) for lo, hi in INTEGRALS_SLOW]
    fast = [log_draw(rng, lo, hi) for lo, hi in INTEGRALS_FAST]
    rng.shuffle(fast)
    return list(zip(slow, fast))


def family_alphas(seed: int, pass_no: int) -> list[Fraction]:
    rng = _rng(seed, f"family:{pass_no}")
    return [a for lo, hi, m in FAMILY_TIMED for a in stratum_draws(rng, lo, hi, m)]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One user-visible report: how to run it and how to check its output."""

    #: the op's place in a pass: every pass has one op per slot, on fresh inputs
    slot: str
    label: str
    execute: Callable[[], object]
    check: Callable[[object], "Verdicts"]


@dataclass
class Verdicts:
    """What an operation decided, and what the benchmark found wrong with it.

    ``errors`` are failures the program reports itself (an exception, exit
    code 2, a ``fail`` record, a False self-check).  ``wrong`` are outputs
    the benchmark disproves.  ``items`` feed the digest.
    """

    items: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(self.items, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class OpResult:
    slot: str
    label: str
    latency_s: float
    errors: list
    wrong: list
    digest: Optional[str]

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.wrong)


#: captured before any tracer swaps module attributes, so clearing caches
#: and checking outputs never show up as spans of the program
_CACHED = (khabcheck.transition_poly, khabcheck.transition_oracle,
           khabcheck.log_weight_derivatives)
_transition_poly = khabcheck.transition_poly


def clear_caches() -> None:
    """Drop every package cache, as a fresh process starts without them."""
    for fn in _CACHED:
        fn.cache_clear()


def run_op(op: Op) -> OpResult:
    """Run one operation from cold caches, time it, then check its output."""
    clear_caches()
    gc.collect()
    start = time.perf_counter()
    try:
        out = op.execute()
    except Exception as exc:  # every failure is counted, never hidden
        latency = time.perf_counter() - start
        return OpResult(op.slot, op.label, latency,
                        [f"raised {type(exc).__name__}: {exc}"], [], None)
    latency = time.perf_counter() - start
    try:
        v = op.check(out)
    except Exception as exc:  # a malformed report is a wrong output
        v = Verdicts(wrong=[f"check raised {type(exc).__name__}: {exc}"])
    return OpResult(op.slot, op.label, latency, v.errors, v.wrong, v.digest())


def _cli(argv: list[str]) -> Callable[[], tuple]:
    def execute() -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()
    return execute


def _report(out: tuple, v: Verdicts) -> Optional[dict]:
    """Parse a CLI report, recording a self-reported failure in ``v``."""
    rc, text, err = out
    if rc != 0:
        v.errors.append(f"exit {rc}: {err.strip()[:200]}")
    return json.loads(text) if text else None


def check_positivity(v: Verdicts, index: int, alpha: Fraction, verdict: str,
                     certificate: Optional[str], witness: Optional[Fraction]) -> None:
    """Exact check of one positivity verdict of P_index at alpha."""
    v.items.append([index, str(alpha), verdict, certificate])
    if verdict == "Negative":
        if witness is None or witness <= 0:
            v.wrong.append(f"P_{index}({alpha}): Negative without a positive witness")
        elif not _transition_poly(index).evaluate(alpha, witness) < 0:
            v.wrong.append(f"P_{index}({alpha}): witness {witness} is not negative")
    elif verdict == "Nonnegative":
        if not certificate:
            v.wrong.append(f"P_{index}({alpha}): Nonnegative without a certificate")
    else:
        v.wrong.append(f"P_{index}({alpha}): undecided verdict {verdict}")


def check_scan_region(out: tuple, index: int, grid: list[Fraction]) -> Verdicts:
    v = Verdicts()
    doc = _report(out, v)
    if doc is None:
        return v
    cells = {}
    for r in doc["records"]:
        p = r["params"]
        if r["check"] != "positivity-verdict" or r["status"] != "pass":
            v.errors.append(f"record {r['check']} status {r['status']}")
        cells[(p["polyIndex"], F(p["alpha"]))] = p
    if sorted(cells) != [(index, a) for a in grid]:
        v.wrong.append("report cells do not match the requested grid")
    for (n, a), p in sorted(cells.items()):
        w = p.get("witness")
        check_positivity(v, n, a, p["verdict"], p.get("certificate"),
                         F(w) if w is not None else None)
    return v


def check_threshold(out: tuple, index: int) -> Verdicts:
    v = Verdicts()
    doc = _report(out, v)
    if doc is None:
        return v
    (r,) = doc["records"]
    p = r["params"]
    lo, hi = F(p["lo"]), F(p["hi"])
    v.items.append([p["polyIndex"], p["lo"], p["hi"], r["status"]])
    if r["status"] != "pass":
        v.errors.append(f"threshold status {r['status']}")
    if p["polyIndex"] != index or not 0 < lo <= hi:
        v.wrong.append(f"threshold bracket ({lo}, {hi}] for index {p['polyIndex']}")
    elif hi - lo > F(THRESHOLD_TOL):
        v.wrong.append(f"threshold bracket width {hi - lo} exceeds {THRESHOLD_TOL}")
    return v


def check_integrals(out: tuple, alphas: str) -> Verdicts:
    v = Verdicts()
    doc = _report(out, v)
    if doc is None:
        return v
    for r in doc["records"]:
        p = r["params"]
        v.items.append([r["check"], {k: str(p[k]) for k in sorted(p)}, r["status"]])
        if r["status"] == "pass":
            continue
        if r["status"] == "inconclusive":
            # the chain gate may refuse only where P_{n-1} is Negative,
            # which happens only above alpha = 1/2
            if not (r["check"] == "conjecture-chain" and F(p["alpha"]) > F(1, 2)
                    and p.get("positivity") == "Negative"):
                v.wrong.append(f"unexpected inconclusive {r['check']} {p}")
        else:
            v.errors.append(f"{r['check']} {r['status']} {p}")
    if not doc["records"]:
        v.wrong.append(f"no records at alpha {alphas}")
    return v


def _family(alpha: Fraction) -> Callable[[], dict]:
    def execute() -> dict:
        fam = khabcheck.PhiFamily.build(alpha, FAMILY_N)
        return {
            "validate": fam.validate(),
            "scan": khabcheck.region_scan(range(FAMILY_N + 1), [alpha]),
            "moments": khabcheck.verify_moment_identity(alpha, FAMILY_N),
            "reciprocity": khabcheck.verify_reciprocity(alpha, FAMILY_N),
        }
    return execute


def check_family(out: dict, alpha: Fraction) -> Verdicts:
    v = Verdicts()
    v.items.append([out["validate"], out["moments"], out["reciprocity"]])
    if out["validate"] is not True:
        v.errors.append(f"PhiFamily.validate() is False at alpha {alpha}")
    # moments cover n = 0..N, reciprocity n = 1..N
    for name, count in (("moments", FAMILY_N + 1), ("reciprocity", FAMILY_N)):
        if len(out[name]) != count or not all(out[name]):
            v.errors.append(f"{name} identities not all True at alpha {alpha}")
    cells = out["scan"].cells
    if [c.poly_index for c in cells] != list(range(FAMILY_N + 1)):
        v.wrong.append("region scan does not cover 0..N")
    for c in cells:
        vd = c.verdict
        check_positivity(v, c.poly_index, c.alpha, vd.status.value,
                         vd.certificate, vd.witness)
    return v


def scan_ops(seed: int, pass_no: int) -> list[Op]:
    grid = scan_grid(seed, pass_no)
    grid_text = ",".join(str(a) for a in grid)
    ops = [Op(f"region-{k}", f"scan --n {k} ({len(grid)} alphas)",
              _cli(["scan", "--n", str(k), "--alpha-grid", grid_text, "--no-timestamp"]),
              lambda out, k=k: check_scan_region(out, k, grid))
           for k in SCAN_INDICES]
    ops += [Op(f"threshold-{k}", f"scan --threshold --n {k}",
               _cli(["scan", "--threshold", "--n", str(k), "--tol", THRESHOLD_TOL,
                     "--no-timestamp"]),
               lambda out, k=k: check_threshold(out, k))
            for k in THRESHOLD_INDICES]
    _rng(seed, f"scan-order:{pass_no}").shuffle(ops)
    return ops


def _integrals_op(alphas: list[Fraction], slot: str = "defect") -> Op:
    text = ",".join(str(a) for a in alphas)
    return Op(slot, f"integrals --suite all --alpha {text}",
              _cli(["integrals", "--suite", "all", "--alpha", text, "--no-timestamp"]),
              lambda out: check_integrals(out, text))


def _family_op(alpha: Fraction, slot: str = "defect") -> Op:
    return Op(slot, f"family N={FAMILY_N} alpha={alpha}", _family(alpha),
              lambda out: check_family(out, alpha))


def pass_ops(workload: str, seed: int, pass_no: int) -> list[Op]:
    """The timed operation list of one pass; pass 0 is the seed's own input set."""
    if workload == "scan":
        return scan_ops(seed, pass_no)
    if workload == "integrals":
        return [_integrals_op(list(pair), f"pair-{j}")
                for j, pair in enumerate(integrals_pairs(seed, pass_no))]
    if workload == "family":
        return [_family_op(a, f"stratum-{j}") for j, a in enumerate(family_alphas(seed, pass_no))]
    raise ValueError(f"unknown workload {workload!r}")


def defect_ops(workload: str, seed: int) -> list[Op]:
    """Operations in the strata where the program is known to fail."""
    rng = _rng(seed, f"{workload}:defect")
    if workload == "integrals":
        alphas = [log_draw(rng, lo, hi) for lo, hi in INTEGRALS_DEFECT]
        return [_integrals_op([a]) for a in alphas + list(INTEGRALS_OVERFLOW)]
    if workload == "family":
        return [_family_op(a) for lo, hi, m in FAMILY_DEFECT
                for a in stratum_draws(rng, lo, hi, m)]
    return []


def run_digest(results: list[OpResult]) -> str:
    """One digest over a pass's per-operation verdict digests, in pass order."""
    blob = "\n".join(f"{r.label}={r.digest}" for r in results)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
