"""Every function under src/workbench is called by a product path, or is kept
with a stated reason.

The product paths are the shipped scenario suite, one seed-1 pass of each
benchmark workload of ``perfbench/workloads.py``, and one ``workbench``
command per subcommand and per ``nev --functional`` and ``morphism --op``
value.  They run in a fresh interpreter under ``sys.setprofile``, which
records the code object of every Python function call; a function counts as
called when its code object is recorded.  Recording covers the imports and
the runs.  It pauses while the command inputs are written and the workloads
set up, and the workloads' output checks do not run, so neither keeps a
function alive.

``KEPT`` names each function no product path calls, with the reason it
stays.  The never-called set must equal it, so an entry cannot go stale, and
a new function that only tests call fails this test until it is deleted or
given a reason.  Print the never-called set from the repository root with

    python tests/test_calls.py
"""

import ast
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "workbench"

_CRITERION_4 = "acceptance criterion 4 (symbolic identities) reads it"
_DIFFOPS = "diffops.verify_Du_numeric reads it (" + _CRITERION_4 + ")"
_IMMUTABLE = "immutability guard: refuses assignment to a hashed value"
_REPR = "the repr that error messages and failed assertions print"

KEPT = {
    **{name: _CRITERION_4 for name in (
        "algebra.certificates.NullstellensatzCertificate.verify",
        "algebra.certificates._eliminate",
        "algebra.certificates.nullstellensatz_certificate",
        "diffops.DiffSymbolRing.__init__",
        "diffops.DiffSymbolRing.w",
        "diffops.DiffSymbolRing.embed",
        "diffops.DiffSymbolRing.reduce",
        "diffops.DiffSymbolRing.lam_derivative",
        "diffops.apply_Du",
        "diffops.apply_Du.var",
        "diffops.check_product_rule",
        "diffops._with_image",
        "diffops.coprime_with_Du",
        "diffops.resultants_with_Du",
        "diffops.diffpoly_to_doc",
        "diffops.diffpoly_from_doc",
        "diffops.verify_Du_numeric",
    )},
    "expsum.ExpSumFn.derivative": _DIFFOPS,
    "nevanlinna.MeroFn.eval": _DIFFOPS,
    "nevanlinna.LogDerivative.eval": _DIFFOPS,
    "exset.normalize_pair": "acceptance criterion 5 (substitution round-trips) reads it",
    "morphisms.PowerMorphism.apply_to_polys":
        "the benchmark's pushforward check and acceptance criterion 6 read it",
    "algebra.poly.SparsePoly.divides": "the benchmark's pushforward check reads it",
    "algebra.gaussrat.GaussRat.__setattr__": _IMMUTABLE,
    "algebra.poly.SparsePoly.__setattr__": _IMMUTABLE,
    "nevanlinna.MeroFn.__setattr__": _IMMUTABLE,
    "algebra.gaussrat.GaussRat.__repr__": _REPR,
    "algebra.poly.SparsePoly.__repr__": _REPR,
    "algebra.gaussrat.GaussRat.__rsub__": "operator of the number type: int - GaussRat",
    "algebra.gaussrat.GaussRat.__rtruediv__": "operator of the number type: int / GaussRat",
    "expsum.ExpSumFn.__sub__": "operator of the exp-sum ring: f - g",
    "expsum.ExpSumFn.__neg__": "operator of the exp-sum ring: -f",
    "algebra.roots._cache_clear": "roots_certified.cache_clear, which empties the LRU and "
                                  "the store of solved factors together; no product path "
                                  "clears a cache",
    "algebra.roots._inside": "refinement guard: the refined disk must lie inside the first; "
                             "runs only when |L| r >= 1/2",
    "errors.QuadratureError.__init__": "raised when adaptive quadrature does not converge",
    "harness.MarginReport.reject": "refuses a scenario whose hypotheses fail; "
                                   "every shipped scenario meets its hypotheses",
    "harness._allowance_param": "input check of the log_allowance parameter, "
                                "which no shipped scenario sets",
}


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, node) of every def, methods and nested defs included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
            yield from _definitions(node, f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}.{node.name}")
        elif isinstance(node, ast.stmt):
            yield from _definitions(node, prefix)


def functions() -> dict[tuple[str, int], str]:
    """Qualified name of each src/ function, keyed by (file, first line) as
    its code object records them: a decorated def starts at its first
    decorator."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for name, node in _definitions(ast.parse(path.read_text(), str(path)), module):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[str(path), first] = name
    return out


def _command_inputs(d: Path) -> list[list[str]]:
    """One argument list per subcommand and per --functional and --op value."""
    from workbench.algebra import serialize
    from workbench.algebra.poly import SparsePoly

    x0, x1, x2 = (SparsePoly.variable(i, 3) for i in range(3))
    z = SparsePoly.variable(0, 1)

    def write(name, doc):
        (d / name).write_text(json.dumps(doc))
        return str(d / name)

    def fn(name, p):
        return write(name, {"factors": [{"poly": serialize.poly_to_doc(p), "mult": 1}]})

    sphere = write("G.json", serialize.poly_to_doc(x0**2 + x1**2 + x2**2))
    forms = [write(f"f{i}.json", serialize.poly_to_doc(p))
             for i, p in enumerate((x0, x1, x0**2 + x1**2 + x2**2))]
    line = write("z.json", serialize.poly_to_doc(x2))
    f, g = fn("f.json", z**2 - 1), fn("g.json", z - 1)
    # a free family answers in closed form, a dependent one walks its sumset
    free = write("free.json", {"vectors": [[0, 0], [2, 0], [0, 3]]})
    dependent = write("dependent.json", {"vectors": [[0], [1], [2]]})
    scenario = str(PACKAGE / "scenarios" / "truncation_defect_generic.json")
    morphism = ["morphism", "--f1", forms[0], "--f2", forms[1], "--f3", forms[2], "--z", line]
    return [
        ["exset", "--poly", sphere, "--bound", "2", "--out", str(d / "W.json")],
        ["constants", "--n", "2", "--d", "1", "--eps", "1/2", "--family", free],
        ["constants", "--n", "2", "--d", "1", "--eps", "99/100", "--family", dependent],
        *(["nev", "--fn", f, "--other", g, "--grid", "2,50,3", "--functional", functional]
          for functional in ("T", "N", "N1", "m", "Ngcd")),
        *(morphism + ["--op", op] for op in ("jacobian", "euler", "genpos", "pushforward")),
        ["verify", "--scenario", scenario],
        ["suite"],
    ]


def never_called() -> list[str]:
    """Run the product paths with calls recorded; the names of the src/
    functions they never call."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    import workloads
    from workbench.cli import main

    sys.setprofile(None)
    reference = workloads.load_reference()
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            w = workload(1, reference)
            p = workloads.Pass(w.stages)
            sys.setprofile(record)
            w.run(p)
            sys.setprofile(None)
            raised = [label for label, out, _ in p.ops if isinstance(out, Exception)]
            assert not raised, (name, raised)
        for argv in _command_inputs(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            sys.setprofile(record)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            sys.setprofile(None)
            assert code == 0, (argv, code, err.getvalue())
    called = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in seen}
    return sorted(name for key, name in functions().items() if key not in called)


def test_every_function_is_called_or_kept():
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         cwd=ROOT, timeout=600)
    assert run.returncode == 0, run.stderr
    never = set(run.stdout.split())
    assert not never - set(KEPT), "called by no product path and not kept"
    assert not set(KEPT) - never, "kept but called by a product path, or gone"
    assert all(reason.strip() for reason in KEPT.values())


if __name__ == "__main__":
    print("\n".join(never_called()))
