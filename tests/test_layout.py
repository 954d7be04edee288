"""Every def and class under src/workbench is mentioned by the program itself.

A definition counts as used when src/ or perfbench/ mentions its name
outside its own body: as an attribute, inside a string (the way
perfbench/tracer.py names the functions it wraps), or, for a module-level or
nested function or class, as a name that is read.  A method is reached
through an attribute, so a bare name counts for it only in the statements of
its own class body (``__str__ = to_string``); a local variable that happens
to share its name does not keep it.  Package ``__init__.py`` files are not
counted, so a re-export or an ``__all__`` entry alone does not make a name
used.  Special methods are called by the language and are exempt.  Public
entry points that only users and tests call are listed in KEPT_PUBLIC, and
the list must name exactly the unused definitions, so it cannot go stale.

This is a check on name mentions, not a call graph: a method whose name is
also some unrelated attribute still counts as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "workbench"

KEPT_PUBLIC = {
    # the algebra kernel's public operations
    "algebra.certificates.nullstellensatz_certificate",
    "algebra.euclid.pseudo_rem",
    # the other halves of the polynomial file format
    "algebra.serialize.dump_poly",
    # the formal symbol ring and its checks (acceptance criterion 4)
    "diffops.check_product_rule",
    "diffops.coprime_with_Du",
    "diffops.resultants_with_Du",
    "diffops.diffpoly_to_doc",
    "diffops.diffpoly_from_doc",
    "diffops.verify_Du_numeric",
    # the normal form of an exponent pair (enumerate_pairs lists normal pairs)
    "exset.normalize_pair",
    # the exact transversality test of the morphism toolkit
    "morphisms.transversality_check",
    # the writing half of the class-function file format
    "nevanlinna.mero_to_doc",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree: ast.AST) -> tuple[Counter, Counter]:
    """Names read, and names mentioned as attributes or inside strings."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.update(p for p in node.value.replace(":", ".").split(".") if p.isidentifier())
    return names, attrs


def _class_level_names(cls: ast.ClassDef) -> Counter:
    """Names read by the statements of a class body outside its definitions."""
    out = Counter()
    for stmt in cls.body:
        if not isinstance(stmt, _DEFS):
            out += _mentions(stmt)[0]
    return out


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, node, enclosing class or None) for every definition."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            yield f"{prefix}.{node.name}", node, tree if isinstance(tree, ast.ClassDef) else None
            yield from _definitions(node, f"{prefix}.{node.name}")


def _unused() -> set[str]:
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    names, attrs = Counter(), Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            n, a = _mentions(tree)
            names += n
            attrs += a
    unused = set()
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for qualname, node, cls in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _mentions(node)
            uses = attrs[name] - own_attrs[name]
            if cls is None:
                uses += names[name] - own_names[name]
            else:
                uses += _class_level_names(cls)[name]
            if uses <= 0:
                unused.add(qualname)
    return unused


def test_every_definition_is_used_or_kept_public():
    assert _unused() == KEPT_PUBLIC


def test_one_polynomial_arithmetic():
    """Only the exact kernel and the two function classes define products.

    The name check above exempts special methods, so an operator that
    nothing applies would hide from it; a polynomial over formal symbols is
    a SparsePoly in more variables, not a second arithmetic.
    """
    owners = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.FunctionDef) and d.name == "__mul__" for d in node.body
            ):
                owners.add(node.name)
    assert owners == {"GaussRat", "SparsePoly", "MeroFn", "ExpSumFn"}


def test_one_home_for_division_and_composition():
    """SparsePoly alone defines division by a polynomial and composition,
    and no module outside algebra/ runs either loop again: no ``while rest``
    loop there takes the leading exponent ``max(rest)`` of what is left, and no
    loop over a polynomial's terms raises values to their exponents.  The
    pushforward's normal forms and the two composition loops are gone."""
    owners = {"__divmod__": set(), "compose": set()}
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for d in node.body:
                    if isinstance(d, ast.FunctionDef) and d.name in owners:
                        owners[d.name].add(node.name)
        if PACKAGE / "algebra" in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.While) and isinstance(node.test, ast.Name):
                assert not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "max"
                               and [ast.unparse(a) for a in n.args] == [node.test.id]
                               for n in ast.walk(node)), (path.name, node.lineno)
            elif isinstance(node, ast.For) and any(
                    isinstance(n, ast.Attribute) and n.attr == "terms" for n in ast.walk(node.iter)):
                assert not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                               for n in ast.walk(node)), (path.name, node.lineno)
        assert not re.search(r"\b(_normal_form|_compose)\b", path.read_text()), path.name
    assert owners == {"__divmod__": {"SparsePoly"}, "compose": {"SparsePoly"}}


def test_one_home_for_bases_squarefree_parts_and_evaluation():
    """algebra/squarefree.py alone defines the gcd-free basis, which every
    refinement reads; squarefree_part and is_squarefree read one loop of
    gcds with the partial derivatives; compose is the one evaluation.  The
    restart loop and the two evaluators it replaced are gone."""
    owners = {"gcd_free_basis": set(), "_repeated_part": set()}
    for path in PACKAGE.rglob("*.py"):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in owners:
                owners[node.name].add(path.relative_to(PACKAGE).as_posix())
        assert not re.search(r"\b(_coprime_refine|eval_exact)\b|\.eval\(\[", text), path.name
    assert owners == {"gcd_free_basis": {"algebra/squarefree.py"},
                      "_repeated_part": {"algebra/euclid.py"}}
    from workbench.algebra.poly import SparsePoly

    assert not hasattr(SparsePoly, "eval") and not hasattr(SparsePoly, "eval_exact")


def test_one_rule_for_common_units_and_pair_normal_forms():
    """nevanlinna.common_unit is the one definition of the common unit of
    exponentials, and in the modules that handle exponents it alone takes
    the lcm or the denominators of their ratios; _as_unit_polynomial and
    shared_zeros call it.  normalize_pair is the closed-form sign rule, with
    no loop over candidates."""
    owners, uses = [], []
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        owners += [(path.name, n.name) for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "common_unit"]
        if path.name not in ("nevanlinna.py", "expsum.py"):
            continue
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                for n in ast.walk(f):
                    name = getattr(n, "attr", getattr(n, "id", None))
                    if name in ("lcm", "denominator", "numerator"):
                        uses.append(f.name)
                    if name == "common_unit" and isinstance(n, (ast.Name, ast.Attribute)):
                        uses.append(f"{f.name} calls")
    assert owners == [("nevanlinna.py", "common_unit")]
    assert set(uses) == {"common_unit", "_as_unit_polynomial calls", "shared_zeros calls"}
    exset = PACKAGE / "exset.py"
    tree = ast.parse(exset.read_text(), str(exset))
    normalize = next(f for f in tree.body
                     if isinstance(f, ast.FunctionDef) and f.name == "normalize_pair")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(n, loops) for n in ast.walk(normalize))


def test_one_home_for_circle_functionals():
    """Circle averages and the choice between the two function types live in
    nevanlinna.py; the harness asks for functionals and never tests a type.

    log+|f| is the log-max average of (f, 1), so the quadrature has no
    positive-part mode of its own, and the log-max average is the one caller
    of both the quadrature and the exact exp-polynomial kernel, which has no
    exp-affine twin.
    """
    for path in PACKAGE.rglob("*.py"):
        text = path.read_text()
        for gone in ("max_affine_average", "_affine_breaks", "_exp_affine"):
            assert gone not in text, (path.name, gone)
        if path.name != "nevanlinna.py":
            assert "circle_average" not in text, path.name
            assert "max_harmonic_average" not in text, path.name
    harness = PACKAGE / "harness.py"
    for node in ast.walk(ast.parse(harness.read_text(), str(harness))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            assert not named & {"MeroFn", "ExpSumFn"}, ast.unparse(node)
    nevanlinna = PACKAGE / "nevanlinna.py"
    tree = ast.parse(nevanlinna.read_text(), str(nevanlinna))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "circle_average":
            assert [a.arg for a in node.args.args] == ["logabs", "r"]
            break
    else:
        raise AssertionError("nevanlinna.circle_average is gone")
    for kernel in ("circle_average", "max_harmonic_average"):
        callers = [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                   for n in ast.walk(f) if isinstance(n, ast.Name) and n.id == kernel]
        assert callers == ["_log_max_average"], kernel


def test_one_home_for_root_refinement():
    """Newton refinement and the enclosure radius live in algebra/roots.py;
    every other module reads the certified root a RootEnclosure carries
    instead of refining one again."""
    private = re.compile(r"\b(_newton|_fixed_point_values|_radius|_dyadic)\b")
    for path in PACKAGE.rglob("*.py"):
        if path != PACKAGE / "algebra" / "roots.py":
            assert not private.search(path.read_text()), path.name


def test_seeds_are_refined_off_mpmath():
    """_seeded_roots refines its float seeds with the integer Newton
    iteration, and the radius is taken only after the final step."""
    path = PACKAGE / "algebra" / "roots.py"
    tree = ast.parse(path.read_text(), str(path))
    seeded = next(f for f in tree.body
                  if isinstance(f, ast.FunctionDef) and f.name == "_seeded_roots")
    called = {getattr(n.func, "id", None) for n in ast.walk(seeded) if isinstance(n, ast.Call)}
    assert "_newton" in called
    assert "_radius" not in called


def test_one_integer_arithmetic_for_certified_roots():
    """One Newton iteration, on integers, refines the float seeds, the
    polyroots roots and the exactness test's roots; the radius is evaluated
    exactly and mentions no mpmath; mpmath's Horner rule and Newton, the
    working-precision level and its rounding bound are gone."""
    path = PACKAGE / "algebra" / "roots.py"
    tree = ast.parse(path.read_text(), str(path))
    defs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def called(name):
        return {getattr(n.func, "id", None) for n in ast.walk(defs[name])
                if isinstance(n, ast.Call)}

    for caller in ("_seeded_roots", "_solve_squarefree", "_gaussian_rational"):
        assert "_newton" in called(caller), caller
    assert "mpmath" not in ast.unparse(defs["_radius"])
    gone = re.compile(r"\b(_horner|_level|_dyadic_pairs|_fixed_newton|mpc_mul|mpc_add)\b")
    for path in PACKAGE.rglob("*.py"):
        assert not gone.search(path.read_text()), path.name


def test_one_root_route_for_exceptional_values():
    """Every exceptional value, the chart top-form slopes included, comes from
    exset._roots_of, which alone calls roots_certified; a beta is compared by
    its enclosure, never by a rounded key or a reversed polynomial."""
    exset = PACKAGE / "exset.py"
    tree = ast.parse(exset.read_text(), str(exset))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and "roots_certified" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]
    roots_of = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_roots_of")
    assert calls and all(any(call is n for n in ast.walk(roots_of)) for call in calls)
    gone = re.compile(r"\b(factor_linear_forms|LinearFormFactorization|_exact_key|_reverse_univar)\b")
    for path in PACKAGE.rglob("*.py"):
        assert not gone.search(path.read_text()), path.name


def test_every_check_takes_one_scenario():
    """run_scenario finds each target's check by name, and every check reads
    all it needs from its one Scenario argument."""
    import inspect

    from workbench import harness

    for target, name in harness.CHECKS.items():
        params = inspect.signature(getattr(harness, name)).parameters
        assert list(params) == ["s"], (target, name, list(params))


def _is_params(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "params") or (
        isinstance(node, ast.Attribute) and node.attr == "params")


def _params_get_calls(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and _is_params(node.func.value)]


def _params_keys_read(tree: ast.AST) -> set[str]:
    """String keys read from ``params`` or ``<x>.params``: subscripts, ``.get``
    calls and ``in`` tests."""

    def key(node):
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None

    keys = {key(call.args[0]) for call in _params_get_calls(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_params(node.value):
            keys.add(key(node.slice))
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In)
              and _is_params(node.comparators[0])):
            keys.add(key(node.left))
    return keys


def test_scenario_parameters_are_the_ones_read():
    """harness.PARAMS names exactly the keys the harness reads from a
    scenario's params, each as a literal string.  The checks read them with
    no default of their own (no ``params.get``): each key has one default,
    its entry in the table, which every Scenario fills in."""
    from workbench import harness

    path = PACKAGE / "harness.py"
    tree = ast.parse(path.read_text(), str(path))
    assert _params_keys_read(tree) == harness.PARAMS
    assert [call.lineno for call in _params_get_calls(tree)] == []
    assert set(harness._PARAMS) == harness.PARAMS
    assert all(len(entry) == 2 and callable(entry[0]) for entry in harness._PARAMS.values())
    defaults = {key: default for key, (_, default) in harness._PARAMS.items()}
    assert harness.Scenario("defaults", "smt-instance").params == defaults
    assert [name for name in vars(harness.Scenario)
            if callable(getattr(harness.Scenario, name)) and not name.startswith("__")] == []


# ---------------------------------------------------------------------------
# what the benchmark in perfbench/ reads from the program
# ---------------------------------------------------------------------------

def _perfbench(monkeypatch, name: str):
    """Import a perfbench module the way its scripts do, from its own directory."""
    import importlib

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module(name)


def test_traced_names_resolve(monkeypatch):
    """The tracer wraps functions and methods by name; each one must exist."""
    import importlib

    tracer = _perfbench(monkeypatch, "tracer")
    for module, attr in tracer.FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, method in tracer.METHODS.values():
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method)), (module, cls, method)


def test_workloads_set_up_at_seed_one(monkeypatch):
    workloads = _perfbench(monkeypatch, "workloads")
    reference = workloads.load_reference()
    for name, cls in workloads.WORKLOADS.items():
        assert cls(1, reference).stages, name


def test_reference_pins_exactly_the_shipped_scenarios(monkeypatch):
    """The suite pass looks each scenario up in the reference outside any
    operation, so a scenario added without a reference entry stops the pass."""
    from workbench import harness

    workloads = _perfbench(monkeypatch, "workloads")
    stems = sorted(p.stem for p in harness.shipped_scenario_dir().glob("*.json"))
    assert stems == sorted(workloads.load_reference()["suite"])
