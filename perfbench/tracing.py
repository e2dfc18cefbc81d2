"""Spans around calls into each khabcheck layer, recorded from outside the package.

``Tracer.install()`` swaps every module attribute of ``khabcheck`` that
refers to a traced public function -- including the names imported into
``cli``, ``positivity``, ``quadrature`` and ``transition`` -- for a wrapper
that records one span per call: name, start, end, parent span and
operation.  Spans stay in memory (flat arrays) until ``write_spans``.

A span is named ``<layer>.<what>``, the layer being the khabcheck module
(``bench.op`` is the root span of one operation).  Its self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Optional

#: the per-layer metrics of BENCHMARK.json, with units
PER_LAYER = (
    ("positivity.decide_s", "s"), ("positivity.decide_calls", "count"),
    ("positivity.isolate_s", "s"), ("positivity.isolate_calls", "count"),
    ("positivity.threshold_s", "s"), ("positivity.threshold_probes", "count"),
    ("positivity.witness_bits_max", "bits"),
    ("transition.poly_build_s", "s"), ("transition.poly_build_calls", "count"),
    ("exact.specialize_s", "s"), ("exact.specialize_calls", "count"),
    ("termalgebra.oracle_build_s", "s"), ("termalgebra.eval_s", "s"),
    ("termalgebra.eval_calls", "count"), ("termalgebra.crosscheck_failures", "count"),
    ("quadrature.integrate_s", "s"), ("quadrature.integrals", "count"),
    ("quadrature.subdivisions", "count"), ("quadrature.nonconverged", "count"),
    ("kernel.eval_s", "s"), ("kernel.eval_calls", "count"),
    ("transition.eval_s", "s"), ("transition.eval_calls", "count"),
    ("constants.identity_s", "s"), ("cli.self_s", "s"), ("cli.reports", "count"),
)


def _isolation_rung(coeffs) -> bool:
    """The decision ladder's Sturm rung: mixed signs, both end coefficients > 0."""
    nonzero = [x for x in coeffs if x != 0]
    return (bool(nonzero) and nonzero[0] > 0 and nonzero[-1] > 0
            and any(x < 0 for x in nonzero))


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counters (the wrappers stay installed)."""
        self.name = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.counters: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             pick: Optional[Callable[[tuple], str]] = None,
             after: Optional[Callable[[tuple, object], object]] = None) -> Callable:
        """``fn`` with a span around each call.

        ``pick(args)`` may choose the span name per call; ``after(args,
        result)`` sees the result, may count from it, and returns what the
        caller gets.
        """
        fixed = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            nid = tracer._id(pick(args)) if pick else fixed
            stack = tracer.stack
            i = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.opid.append(tracer.op)
            tracer.end.append(0)
            tracer.self_ns.append(0)
            frame = [i, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.end[i] = t1
                tracer.self_ns[i] = t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            return after(args, result) if after else result

        traced.__wrapped__ = fn
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def op_span(self, op_index: int, fn: Callable[[], object]) -> Callable[[], object]:
        """Wrap one whole operation as the root span ``bench.op``."""
        def run():
            self.op = op_index
            return self.wrap("bench.op", fn)()
        return run

    # -- installation ------------------------------------------------------

    def _replace(self, orig: object, wrapper: object) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "khabcheck" and not modname.startswith("khabcheck."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls: type, attr: str, wrapper: Callable,
                        static: bool = False) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def install(self) -> None:
        from khabcheck import (cli, constants, exact, kernel, positivity,
                               quadrature, termalgebra, transition)

        thr = self._id("positivity.alpha_threshold")

        def decide_name(args):
            if any(self.name[f[0]] == thr for f in self.stack):
                self.counters["positivity.threshold_probes"] += 1
            return "positivity.isolate" if _isolation_rung(args[0]) else "positivity.decide"

        def decide_after(args, verdict):
            if verdict.witness is not None:
                w = verdict.witness
                bits = max(w.numerator.bit_length(), w.denominator.bit_length())
                c = self.counters
                c["positivity.witness_bits_max"] = max(c["positivity.witness_bits_max"], bits)
            return verdict

        poly_cached = transition.transition_poly

        def poly_build(n):
            before = poly_cached.cache_info().misses
            result = poly_cached(n)
            if poly_cached.cache_info().misses > before:
                self.counters["transition.poly_build_calls"] += 1
            return result

        def unit_after(args, result):
            c = self.counters
            c["quadrature.subdivisions"] += result.subdivisions_used
            c["quadrature.nonconverged"] += not result.converged
            return result

        def crosscheck_after(args, report):
            self.counters["termalgebra.crosscheck_failures"] += len(report.failures)
            return report

        def evaluator_after(args, phi):
            return self.wrap("transition.eval", phi)

        targets = [
            (cli.main, "cli.main", None, None),
            (positivity.alpha_threshold, "positivity.alpha_threshold", None, None),
            (positivity.region_scan, "positivity.region_scan", None, None),
            (positivity.poly_nonneg_on_pos, "positivity.poly_nonneg_on_pos", None, None),
            (positivity.coeffs_nonneg_on_pos, "positivity.decide", decide_name, decide_after),
            (transition.transition_evaluator, "transition.evaluator", None, evaluator_after),
            (transition.oracle_equiv_check, "transition.crosscheck", None, crosscheck_after),
            (transition.transition_oracle, "termalgebra.oracle_build", None, None),
            (transition.log_weight_derivatives, "termalgebra.oracle_build", None, None),
            (termalgebra.mixed_eval, "termalgebra.eval", None, None),
            (quadrature.integrate_half_line, "quadrature.half_line", None, None),
            (quadrature.integrate_unit_interval, "quadrature.unit_interval", None, unit_after),
            (kernel.kernel_eval, "kernel.eval", None, None),
            (constants.verify_moment_identity, "constants.identity", None, None),
            (constants.verify_reciprocity, "constants.identity", None, None),
        ]
        for fn, name, pick, after in targets:
            self._replace(fn, self.wrap(name, fn, pick, after))
        self._replace(poly_cached, self.wrap("transition.poly_build", poly_build))
        self._replace_method(exact.ZPolynomial, "specialize",
                             self.wrap("exact.specialize", exact.ZPolynomial.specialize))
        family = transition.PhiFamily
        self._replace_method(family, "build",
                             self.wrap("transition.family_build", family.build), static=True)
        self._replace_method(family, "validate",
                             self.wrap("transition.validate", family.validate))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        calls = defaultdict(int)
        incl = defaultdict(int)
        own = defaultdict(int)
        names = self.names
        for i in range(len(self.name)):
            n = names[self.name[i]]
            calls[n] += 1
            own[n] += self.self_ns[i]
            # inclusive time counts only the outermost span of a name, so a
            # recursive build is not counted once per level
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                incl[n] += self.end[i] - self.start[i]
        for n in calls:
            out[n] = {"layer": n.split(".")[0], "calls": calls[n],
                      "incl_s": incl[n] / 1e9, "self_s": own[n] / 1e9}
        return out

    def metrics(self, t: dict[str, dict]) -> dict[str, float]:
        """The PER_LAYER metrics, from this run's ``table()`` and counters."""

        def get(name, key):
            return t.get(name, {}).get(key, 0)

        def self_s(*names):
            return sum(get(n, "self_s") for n in names)

        c = self.counters
        return {
            "positivity.decide_s": self_s("positivity.decide", "positivity.isolate"),
            "positivity.decide_calls": get("positivity.decide", "calls")
            + get("positivity.isolate", "calls"),
            "positivity.isolate_s": self_s("positivity.isolate"),
            "positivity.isolate_calls": get("positivity.isolate", "calls"),
            "positivity.threshold_s": get("positivity.alpha_threshold", "incl_s"),
            "positivity.threshold_probes": c["positivity.threshold_probes"],
            "positivity.witness_bits_max": c["positivity.witness_bits_max"],
            "transition.poly_build_s": self_s("transition.poly_build"),
            "transition.poly_build_calls": c["transition.poly_build_calls"],
            "exact.specialize_s": self_s("exact.specialize"),
            "exact.specialize_calls": get("exact.specialize", "calls"),
            "termalgebra.oracle_build_s": self_s("termalgebra.oracle_build"),
            "termalgebra.eval_s": self_s("termalgebra.eval"),
            "termalgebra.eval_calls": get("termalgebra.eval", "calls"),
            "termalgebra.crosscheck_failures": c["termalgebra.crosscheck_failures"],
            "quadrature.integrate_s": self_s("quadrature.half_line", "quadrature.unit_interval"),
            "quadrature.integrals": get("quadrature.unit_interval", "calls"),
            "quadrature.subdivisions": c["quadrature.subdivisions"],
            "quadrature.nonconverged": c["quadrature.nonconverged"],
            "kernel.eval_s": self_s("kernel.eval"),
            "kernel.eval_calls": get("kernel.eval", "calls"),
            "transition.eval_s": self_s("transition.eval"),
            "transition.eval_calls": get("transition.eval", "calls"),
            "constants.identity_s": self_s("constants.identity"),
            "cli.self_s": self_s("cli.main"),
            "cli.reports": get("cli.main", "calls"),
        }

    @staticmethod
    def layer_self(t: dict[str, dict]) -> dict[str, float]:
        """Self seconds of a ``table()`` summed per layer (module)."""
        out: dict[str, float] = defaultdict(float)
        for row in t.values():
            out[row["layer"]] += row["self_s"]
        return dict(out)

    def write_spans(self, path) -> None:
        """Write every span as CSV: id, op, parent, name, start_ns, end_ns, self_ns."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("id,op,parent,name,start_ns,end_ns,self_ns\n")
            names = self.names
            for i in range(len(self.name)):
                fh.write(f"{i},{self.opid[i]},{self.parent[i]},{names[self.name[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.self_ns[i]}\n")


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over repeated traced passes."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
