"""Benchmark of khabcheck: the ``scan``, ``integrals`` and ``family`` workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each operation (one report a user
would ask for) starts after the previous one ends, with cold package
caches.  The timed loop runs passes over seeded operation lists until
``--seconds`` have gone by, always finishing pass 0, and reports operation
times at reference speed (see speed.py).  Every output is
checked exactly; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details and the layer -> metric -> workload map are in README.md here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("scan", "integrals", "family")
#: fresh-interpreter imports per run; setup_s is their median
SETUP_REPEATS = 5
#: per workload, a percentile with at least ten samples beyond it in a run
#: of 30 s at the seed commit, fixed so runs stay comparable.  On scan, p90
#: falls on the step between the two slowest report kinds (~0.5-0.7 s) and
#: the three ~0.3-s ones, and jumps between them from run to run; p85 sits
#: inside the ~0.3-s group.  Family runs ~25 reports, so p50 is its tail.
TAIL_PERCENTILE = {"scan": 85, "integrals": 60, "family": 50}
#: layers the workload is meant to stress, by self time in the traced run
EXPECTED_DOMINANT = {"scan": ("positivity",), "integrals": ("quadrature",),
                     "family": ("termalgebra", "transition")}

SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import khabcheck.cli; "
              "print(time.perf_counter() - t)")


def measure_setup() -> list[float]:
    """Import time of ``khabcheck.cli`` in fresh interpreters, one per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        times.append(float(done.stdout))
    return times


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_timed(workloads, workload: str, seed: int, seconds: float) -> tuple[list, list, float]:
    """Passes over fresh seeded op lists until ``seconds`` pass; pass 0 always ends.

    Returns ``(pass, result)`` pairs, for each the latency at reference
    speed (its wall latency scaled by the reference kernel run beside it),
    and the median reference-kernel time.
    """
    from perfbench.speed import Speedometer

    speed = Speedometer()
    timed = []
    start = time.perf_counter()
    pass_no = 0
    while True:
        for op in workloads.pass_ops(workload, seed, pass_no):
            if pass_no and time.perf_counter() - start >= seconds:
                speed.sample()
                results = [(p, r) for p, r, _ in timed]
                ref = [r.latency_s * speed.factor(mid) for _, r, mid in timed]
                return results, ref, speed.median_ref_s()
            if speed.due():
                speed.sample()
            t0 = time.perf_counter()
            r = workloads.run_op(op)
            timed.append((pass_no, r, t0 + r.latency_s / 2))
        pass_no += 1


def list_time(slots: list[str], latencies: list[float]) -> tuple[float, int]:
    """Wall time of one operation list: per slot, the median over passes, summed.

    Every pass runs one op per slot on fresh inputs, so this uses every pass
    while a stall that slows one pass moves no slot's median.
    """
    by_slot: dict[str, list[float]] = {}
    for slot, latency in zip(slots, latencies):
        by_slot.setdefault(slot, []).append(latency)
    return (sum(statistics.median(v) for v in by_slot.values()),
            min(len(v) for v in by_slot.values()))


def failed_share(pass0: list, defects: list) -> tuple[float, str]:
    inputs = pass0 + defects
    failed = [r for r in inputs if r.failed]
    kinds = sorted({(r.errors + r.wrong)[0].split(":")[0] for r in failed})
    note = (f"{sum(r.failed for r in pass0)} of {len(pass0)} pass-0 inputs, "
            f"{sum(r.failed for r in defects)} of {len(defects)} defect-strata inputs"
            + (f" ({'; '.join(kinds)})" if kinds else ""))
    return len(failed) / len(inputs), note


def op_record(pass_no: int, r, ref_s: Optional[float] = None) -> dict:
    return {"pass": pass_no, "slot": r.slot, "label": r.label,
            "latency_s": r.latency_s, "latency_ref_s": ref_s, "errors": r.errors,
            "wrong": r.wrong, "digest": r.digest}


def emit(lines: list[str], record: dict, result: dict, name: str) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))


def run_untraced(workloads, args) -> int:
    from perfbench.speed import REF_NOMINAL_S

    setup = measure_setup()
    results, latencies, speed_ref_s = run_timed(workloads, args.workload, args.seed, args.seconds)
    defects = [workloads.run_op(op) for op in workloads.defect_ops(args.workload, args.seed)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pass0 = [r for p, r in results if p == 0]
    run_s, passes = list_time([r.slot for _, r in results], latencies)
    wall = [r.latency_s for _, r in results]
    wall_run_s, _ = list_time([r.slot for _, r in results], wall)
    share, share_note = failed_share(pass0, defects)
    failed = sum(r.failed for _, r in results)
    p = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(latencies, p)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh-interpreter imports of khabcheck.cli "
                   "(wall clock)",
        "run_s": f"{len(pass0)} ops; per op slot the median of {passes}+ passes, summed "
                 f"(wall clock {wall_run_s:.6g} s)",
        "op_p50_s": f"median of {len(latencies)} ops "
                    f"(wall clock {statistics.median(wall):.6g} s)",
        "op_tail_s": f"p{p} of {len(latencies)} ops, {beyond} beyond"
                     + ("" if beyond >= 10 else " (fewer than ten: run longer)"),
        "peak_rss_mb": "peak resident memory of this process",
    }
    digest = workloads.run_digest(pass0)
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace=0",
             f"  times at reference speed: wall time x {REF_NOMINAL_S} s / local "
             f"reference-kernel time (median here {speed_ref_s:.6g} s)"]
    lines += [f"  {k:<13}{v:>12.6g} {u:<3} {notes[k]}" for k, (v, u) in metrics.items()]
    lines.append(f"  {'failed_share':<13}{share:>12.6g}     {share_note}")
    lines.append(f"  pass-0 verdict digest {digest}")
    for tag, group in (("FAILED", [r for _, r in results]), ("known defect", defects)):
        lines += [f"  {tag} {r.label}: {'; '.join(r.errors + r.wrong)[:300]}"
                  for r in group if r.failed]
    correct = failed == 0 and not any(r.wrong for r in defects)
    result = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "setup_s": setup, "failed_share": share,
              "digest_pass0": digest,
              "ops": [op_record(p, r, x) for (p, r), x in zip(results, latencies)],
              "defect_ops": [op_record(-1, r) for r in defects], "result": result}
    emit(lines, record, result, f"{args.workload}-seed{args.seed}-trace0.json")
    return 0


def run_traced(workloads, args) -> int:
    from perfbench.tracing import PER_LAYER, Tracer, median_metrics

    tracer = Tracer()
    ops = workloads.pass_ops(args.workload, args.seed, 0)
    n_pass0 = len(ops)
    ops += workloads.defect_ops(args.workload, args.seed)
    untraced, traced, samples, layers = [], [], [], []
    first = None
    start = time.perf_counter()
    # alternate untraced and traced repeats of the same input set, so the
    # overhead compares like with like; start a repeat only if it fits
    while not traced or (time.perf_counter() - start) * (1 + 1 / len(traced)) < args.seconds:
        plain = [workloads.run_op(op) for op in ops]
        untraced.append(sum(r.latency_s for r in plain))
        tracer.reset()
        tracer.install()
        try:
            spans = [workloads.run_op(dataclasses.replace(op, execute=tracer.op_span(i, op.execute)))
                     for i, op in enumerate(ops)]
        finally:
            tracer.uninstall()
        traced.append(sum(r.latency_s for r in spans))
        table = tracer.table()
        samples.append(tracer.metrics(table))
        layers.append(tracer.layer_self(table))
        if first is None:
            first = (plain, table)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")

    plain, table = first
    share, share_note = failed_share(plain[:n_pass0], plain[n_pass0:])
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics = median_metrics(samples)
    units = dict(PER_LAYER)
    metrics["failed_share"] = share
    metrics["trace.overhead"] = overhead
    units.update({"failed_share": "share", "trace.overhead": "share"})

    total = statistics.median(traced)
    layer_s = {k: statistics.median(l.get(k, 0.0) for l in layers)
               for k in sorted({k for l in layers for k in l})}
    ranked = sorted(layer_s.items(), key=lambda kv: -kv[1])
    expected = EXPECTED_DOMINANT[args.workload]
    expected_share = sum(layer_s.get(k, 0.0) for k in expected) / total
    top = ranked[0][0]
    verdict = "consistent" if top in expected else f"differs: measured top layer is {top}"

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace=1",
             f"  {len(traced)} traced repeats of pass 0 + defect strata ({len(ops)} ops)",
             f"  untraced {statistics.median(untraced):.4f} s, traced {total:.4f} s, "
             f"tracing overhead {overhead:+.1%}",
             "  layer         self_s   share of traced op time"]
    lines += [f"  {k:<12}{v:>9.4f}   {v / total:6.1%}" for k, v in ranked]
    lines.append(f"  expected dominant {'+'.join(expected)}: {expected_share:.1%} of op time; "
                 f"{verdict}")
    lines.append(f"  failed_share {share:.6g}: {share_note}")
    lines += [f"  {k:<34}{metrics[k]:>14.6g} {units[k]}" for k in units]
    failed = sum(r.failed for r in plain[:n_pass0])
    correct = failed == 0 and not any(r.wrong for r in plain)
    result = {"correct": correct, "attempted": len(plain[:n_pass0]), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "untraced_s": untraced, "traced_s": traced, "layers_self_s": layer_s,
              "spans_first_repeat": table, "per_repeat_metrics": samples,
              "ops": [op_record(0, r) for r in plain], "result": result}
    emit(lines, record, result, f"{args.workload}-seed{args.seed}-trace1.json")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT)
        code = max(code, done.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "khabcheck" / "__init__.py").is_file():
        print(f"perfbench: no khabcheck package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    return (run_traced if args.trace else run_untraced)(workloads, args)


if __name__ == "__main__":
    sys.exit(main())
