"""Span tracer for the benchmark's traced passes.

``Tracer.install`` wraps the public functions the per-layer metrics name.
Modules import functions with ``from .x import f``, so patching the defining
module alone would miss most callers: every attribute of every loaded
``workbench.*`` module that *is* the function object is rebound to the
wrapper.  Two methods are wrapped on their classes.

Spans (name, start, end, parent id) are kept in memory and written out
once, after the pass.  A span's self time is its duration minus the
durations of its direct children; the process has one thread, so children
nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute) of each traced public function.  The
# comments say which end-to-end metric each layer should move, and where
# (stage names as in workloads.py); workbench.diffops and workbench.cli run
# in no workload.
FUNCTIONS = {
    # pass_cal, gcd_bound_s, curve_vs_form_s, other_checks_s on suite;
    # samples stay 0 on exset and elimination
    "nevanlinna.circle_average": ("workbench.nevanlinna", "circle_average"),
    "nevanlinna.characteristic_T": ("workbench.nevanlinna", "characteristic_T"),
    # build_W_s on exset; all three stages on elimination; a minor share of suite
    "algebra.resultant": ("workbench.algebra.euclid", "resultant"),
    "algebra.gcd_poly": ("workbench.algebra.euclid", "gcd_poly"),
    "algebra.squarefree_decompose": ("workbench.algebra.squarefree", "squarefree_decompose"),
    "algebra.roots_certified": ("workbench.algebra.roots", "roots_certified"),
    # build_W_s and member_hit_s, member_miss_s on exset
    "exset.substitute": ("workbench.exset", "substitute"),
    "exset.beta_loci": ("workbench.exset", "beta_loci"),
    "exset.delta_lines": ("workbench.exset", "delta_lines"),
    "exset.member_of_W": ("workbench.exset", "member_of_W"),
    "exset.build_W": ("workbench.exset", "build_W"),
    # gcd_bound_s on suite
    "harness.run_scenario": ("workbench.harness", "run_scenario"),
    "harness.gcd_bound_check": ("workbench.harness", "gcd_bound_check"),
    # curve_vs_form_s, other_checks_s on suite
    "expsum.eval_poly_on_tuple": ("workbench.expsum", "eval_poly_on_tuple"),
    # pushforward_s on elimination
    "morphisms.pushforward_curve": ("workbench.morphisms", "pushforward_curve"),
    "constants.choose_m": ("workbench.constants", "choose_m"),
}
# span name -> (module, class, method)
METHODS = {
    # suite stages, and member_miss_s on exset (products in member_of_W)
    "nevanlinna.MeroFn": ("workbench.nevanlinna", "MeroFn", "__init__"),
    # curve_vs_form_s, other_checks_s on suite
    "expsum.ExpSumFn.zeros_in_disk": ("workbench.expsum", "ExpSumFn", "zeros_in_disk"),
}
# spans whose return values the counters read after the pass
_KEEP = ("exset.build_W", "harness.run_scenario", "algebra.roots_certified")

_VERDICTS = ("holds-on-grid", "excluded-by-W", "degenerate-branch", "violated-at",
             "hypothesis-violation")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.samples = 0
        self.err_max = 0.0
        self.kept: dict[str, list] = {name: [] for name in _KEEP}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "workbench" or n.startswith("workbench.")]
        for name, (mod, attr) in FUNCTIONS.items():
            target = getattr(importlib.import_module(mod), attr)
            fn = self._sampled(target) if name == "nevanlinna.circle_average" else target
            wrapped = self._span(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, key, wrapped)
        for name, (mod, cls, meth) in METHODS.items():
            owner = getattr(importlib.import_module(mod), cls)
            setattr(owner, meth, self._span(name, getattr(owner, meth)))

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kept = self.kept.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if kept is not None:
                kept.append(out)
            return out

        return traced

    def _sampled(self, circle_average):
        """Count the nodes each circle average evaluates, and its error."""

        @functools.wraps(circle_average)
        def sampled(logabs, *args, **kwargs):
            def counted(zs):
                self.samples += zs.size
                return logabs(zs)

            value, err = circle_average(counted, *args, **kwargs)
            self.err_max = max(self.err_max, err)
            return value, err

        return sampled

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the work counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        out: dict[str, float] = {}
        for name in (*FUNCTIONS, *METHODS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["nevanlinna.MeroFn.constructions"] = out.pop("nevanlinna.MeroFn.calls")
        out["nevanlinna.circle_average.samples"] = self.samples
        out["nevanlinna.circle_average.err_max"] = self.err_max
        curves = sum(len(W.curves) for W in self.kept["exset.build_W"])
        raw = sum(len(c.provenance) for W in self.kept["exset.build_W"] for c in W.curves)
        out["exset.curves"] = curves
        out["exset.raw_curves"] = raw
        out["exset.dedup_ratio"] = curves / raw if raw else 0.0
        verdicts = Counter()
        for report in self.kept["harness.run_scenario"]:
            kind = next((v for v in _VERDICTS if report.verdict.startswith(v)), "other")
            verdicts[kind] += 1
        for v in (*_VERDICTS, "other"):
            out[f"harness.verdict.{v.replace('-', '_')}"] = verdicts[v]
        out["trace.spans"] = len(self.spans)
        return out

    def certified_roots(self):
        """Distinct (polynomial, enclosures) pairs returned by roots_certified."""
        seen = {}
        for roots in self.kept["algebra.roots_certified"]:
            seen.setdefault(roots.defining_poly, roots.roots)
        return seen.items()

    def write(self, path, pass_id: int) -> None:
        """Write the spans as JSON lines: name, start, end, parent id, pass id."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, pass_id]) + "\n")
