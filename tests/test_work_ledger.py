"""The work ledger: deterministic work counts of one pass of each benchmark
workload, pinned in ``tests/golden/work.json``.

Each of the three workloads of ``perfbench/workloads.py`` is set up at seed
1, as ``test_layout.py`` sets them up, and runs one untimed pass on cold
module caches.  The ledger counts, per workload:

- ``circle_average`` calls and the nodes they sample
- real solves of a squarefree factor (``roots._solve_squarefree``), split
  into the route from a solved reversal's roots, the float-seeded route and
  the ``mpmath.polyroots`` route
- ``mpmath.polyroots`` calls
- ``roots_certified`` calls that solve (cache misses) and cache hits
- ``gcd_poly``, ``resultant`` and ``squarefree_decompose`` calls
- ``SparsePoly`` products of two multi-term operands and the term pairs
  they multiply (scalar and one-term factors are not counted), and those
  of them that take the packed route (``poly._packed_product``)

Modules import these functions by name, so every attribute of a loaded
``workbench`` module that is the function object is rebound to its counter,
as ``perfbench/tracer.py`` does.  A change that is meant to keep the work
keeps this file; a change that moves a count regenerates it and lists each
moved count.  Regenerate from the repository root with

    PYTHONPATH=src python tests/test_work_ledger.py > tests/golden/work.json
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "work.json"

# ledger key -> (module, attribute) of each counted workbench function
COUNTED = {
    "gcd_poly.calls": ("workbench.algebra.euclid", "gcd_poly"),
    "resultant.calls": ("workbench.algebra.euclid", "resultant"),
    "squarefree_decompose.calls": ("workbench.algebra.squarefree", "squarefree_decompose"),
}


def _workbench_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "workbench" or n.startswith("workbench.")]


def _rebind(mp, target, wrapper) -> None:
    """Point every workbench module attribute that is ``target`` at ``wrapper``."""
    for m in _workbench_modules():
        for key, value in list(vars(m).items()):
            if value is target:
                mp.setattr(m, key, wrapper)


def _counting(counts: Counter, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _one_pass(mp, workloads, name: str) -> dict[str, int]:
    from workbench.algebra import poly, roots
    from workbench.algebra.poly import SparsePoly
    from workbench import nevanlinna

    workload = workloads.WORKLOADS[name](1, workloads.load_reference())
    counts = Counter({key: 0 for key in (
        "circle_average.calls", "circle_average.samples", "mpmath.polyroots.calls",
        "products.multi_term", "products.term_pairs",
        "products.packed", "products.packed_term_pairs",
        "solve_squarefree.polyroots", "solve_squarefree.reversal", "solve_squarefree.seeded",
        *COUNTED)})
    for key, (module, attr) in COUNTED.items():
        fn = getattr(importlib.import_module(module), attr)
        _rebind(mp, fn, _counting(counts, key, fn))

    average = nevanlinna.circle_average

    def circle_average(logabs, *args, **kwargs):
        def sampled(zs):
            counts["circle_average.samples"] += zs.size
            return logabs(zs)
        counts["circle_average.calls"] += 1
        return average(sampled, *args, **kwargs)

    _rebind(mp, average, circle_average)
    solve = roots._solve_squarefree

    def solve_squarefree(coeffs, dps, route, *mirror):
        counts["solve_squarefree." + route] += 1
        return solve(coeffs, dps, route, *mirror)

    mp.setattr(roots, "_solve_squarefree", solve_squarefree)
    mul = SparsePoly.__mul__

    def product(p, q):
        if isinstance(q, SparsePoly) and len(p.terms) > 1 and len(q.terms) > 1:
            counts["products.multi_term"] += 1
            counts["products.term_pairs"] += len(p.terms) * len(q.terms)
        return mul(p, q)

    mp.setattr(SparsePoly, "__mul__", product)
    packed = poly._packed_product

    def packed_product(p, q, *layout):
        counts["products.packed"] += 1
        counts["products.packed_term_pairs"] += len(p.terms) * len(q.terms)
        return packed(p, q, *layout)

    mp.setattr(poly, "_packed_product", packed_product)
    mp.setattr(mpmath, "polyroots", _counting(counts, "mpmath.polyroots.calls", mpmath.polyroots))
    # a fresh process starts with every module cache empty
    for m in _workbench_modules():
        for value in vars(m).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    p = workloads.Pass(workload.stages)
    workload.run(p)
    raised = [label for label, out, _ in p.ops if isinstance(out, Exception)]
    assert not raised, (name, raised)
    info = roots.roots_certified.cache_info()
    counts["roots_certified.solves"], counts["roots_certified.cache_hits"] = info.misses, info.hits
    return dict(sorted(counts.items()))


def ledger() -> dict[str, dict[str, int]]:
    """The counts of one pass of each workload at seed 1."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        for name in workloads.WORKLOADS:
            with mp.context() as inner:
                out[name] = _one_pass(inner, workloads, name)
    return out


def to_text(counts: dict) -> str:
    return json.dumps(counts, indent=2, sort_keys=True) + "\n"


def test_work_ledger_is_unchanged():
    want = json.loads(GOLDEN.read_text())
    got = ledger()
    moved = [f"{name}.{key}: {want.get(name, {}).get(key)} -> {value}"
             for name, counts in got.items() for key, value in counts.items()
             if want.get(name, {}).get(key) != value]
    moved += [f"{name}.{key}: {value} -> gone" for name, counts in want.items()
              for key, value in counts.items() if key not in got.get(name, {})]
    assert not moved, "work counts moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    sys.stdout.write(to_text(ledger()))
