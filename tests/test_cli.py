import json
import math

import pytest

from workbench.algebra import serialize
from workbench.algebra.poly import SparsePoly
from workbench.cli import main
from workbench.harness import shipped_scenario_dir

from conftest import variables


def write_poly(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(json.dumps(serialize.poly_to_doc(p)))
    return str(path)


def sphere():
    x0, x1, x2 = variables(3)
    return x0**2 + x1**2 + x2**2


def test_exset_command(tmp_path, capsys):
    gpath = write_poly(tmp_path, "G.json", sphere())
    out = tmp_path / "W.json"
    code = main(["exset", "--poly", gpath, "--bound", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"].startswith("exceptional-set/")
    assert len(doc["curves"]) == 15
    capsys.readouterr()


def test_constants_command(capsys):
    code = main(["constants", "--n", "2", "--d", "1", "--eps", "1/2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 29 and out["M"] == 464


def test_constants_for_a_tiny_eps_answers(capsys):
    assert main(["constants", "--n", "2", "--d", "2", "--eps", "1/100000"]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 6399998


@pytest.mark.parametrize("vectors", [[[0, 0], [2, 0]], [[0, 0], [2**70, 0]]],
                         ids=["exponent-2", "exponent-2^70"])
def test_constants_for_one_generator_with_a_large_exponent(tmp_path, capsys, vectors):
    # the sumset of {0, v} has t + 1 points whatever v is: the simplex's answer
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"vectors": vectors}))
    argv = ["constants", "--n", "2", "--d", "1", "--eps", "1/2", "--family", str(path)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["b"] == 465


def test_constants_refuses_a_family_past_the_sumset_cap(tmp_path, capsys, monkeypatch):
    from workbench import constants

    monkeypatch.setattr(constants, "_SUMSET_CAP", 10_000)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"vectors": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    argv = ["constants", "--n", "2", "--d", "1", "--eps", "1/2", "--family", str(path)]
    assert main(argv) == 2
    assert ("error: sumset enumeration exceeded 10000 points at depth 99; "
            "family growth too fast for exact counting") in capsys.readouterr().err


def test_nev_command(tmp_path, capsys):
    z = SparsePoly.variable(0, 1)
    fdoc = {
        "scalar": {"re": "1", "im": "0"},
        "factors": [{"poly": serialize.poly_to_doc(z**3), "mult": 1}],
        "exp": serialize.poly_to_doc(SparsePoly.zero(1)),
    }
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fdoc))
    code = main(["nev", "--fn", str(fpath), "--grid", "2,50,5",
                 "--functional", "T"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,value"
    r, v = (float(x) for x in lines[-1].split(","))
    assert v == pytest.approx(3 * math.log(r), abs=1e-6)


def write_fn(tmp_path, name, factors):
    path = tmp_path / name
    path.write_text(json.dumps({"factors": [{"poly": serialize.poly_to_doc(p), "mult": m}
                                            for p, m in factors]}))
    return str(path)


@pytest.mark.parametrize("functional, slope", [("T", 3), ("N", 3), ("N1", 2), ("m", 3),
                                               ("Ngcd", 1)])
def test_nev_prints_each_functional(tmp_path, capsys, functional, slope):
    # f = (z - 1)^2 (z + 1) and g = z - 1: every value is slope * log r for
    # r >= 2, where |f| >= 1 on the circle, and the two share the zero 1 once
    z = SparsePoly.variable(0, 1)
    f = write_fn(tmp_path, "f.json", [(z - 1, 2), (z + 1, 1)])
    g = write_fn(tmp_path, "g.json", [(z - 1, 1)])
    argv = ["nev", "--fn", f, "--other", g, "--grid", "2,50,3", "--functional", functional]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,value" and len(lines) == 4
    for line in lines[1:]:
        r, v = (float(x) for x in line.split(","))
        assert v == pytest.approx(slope * math.log(r), abs=1e-9)


def test_nev_writes_its_rows_to_out(tmp_path, capsys):
    z = SparsePoly.variable(0, 1)
    f = write_fn(tmp_path, "f.json", [(z, 3)])
    out = tmp_path / "T.csv"
    assert main(["nev", "--fn", f, "--grid", "2,50,5", "--functional", "T", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[0] == "r,value"
    assert len(out.read_text().splitlines()) == 6


def test_nev_refuses_ngcd_without_other(tmp_path, capsys):
    z = SparsePoly.variable(0, 1)
    f = write_fn(tmp_path, "f.json", [(z, 1)])
    assert main(["nev", "--fn", f, "--grid", "2,50,5", "--functional", "Ngcd"]) == 2
    assert capsys.readouterr().err == "error: Ngcd needs --other\n"


def test_morphism_command(tmp_path, capsys):
    x0, x1, x2 = variables(3)
    f1 = write_poly(tmp_path, "f1.json", x0)
    f2 = write_poly(tmp_path, "f2.json", x1)
    f3 = write_poly(tmp_path, "f3.json", sphere())
    zz = write_poly(tmp_path, "z.json", x2)
    assert main(["morphism", "--f1", f1, "--f2", f2, "--f3", f3,
                 "--op", "euler"]) == 0
    capsys.readouterr()
    assert main(["morphism", "--f1", f1, "--f2", f2, "--f3", f3,
                 "--op", "pushforward", "--z", zz]) == 0
    doc = json.loads(capsys.readouterr().out)
    A = serialize.poly_from_doc(doc)
    assert A.total_degree() == 1 and len(A.terms) == 3


def test_morphism_jacobian_prints_both_determinants(tmp_path, capsys):
    x0, x1, x2 = variables(3)
    forms = [write_poly(tmp_path, f"f{k}.json", p) for k, p in enumerate((x0, x1, sphere()))]
    argv = ["morphism", "--f1", forms[0], "--f2", forms[1], "--f3", forms[2]]
    assert main(argv + ["--op", "jacobian"]) == 0
    assert capsys.readouterr().out == "reduced: 2*x2\nfull:    8*x0*x1*x2\n"
    assert main(argv + ["--op", "pushforward"]) == 2
    assert capsys.readouterr().err == "error: pushforward needs --z\n"


def test_morphism_genpos_names_each_shared_point(tmp_path, capsys):
    x0, x1, x2 = variables(3)
    args = ["morphism", "--op", "genpos"]
    for k, p in enumerate((x0**2, x1**2, x2**2)):
        args += [f"--f{k + 1}", write_poly(tmp_path, f"f{k + 1}.json", p)]
    assert main(args + ["--z", write_poly(tmp_path, "z.json", x0 + 2 * x1 - 3 * x2)]) == 0
    assert capsys.readouterr().out == "in general position\n"
    assert main(args + ["--z", write_poly(tmp_path, "z.json", x0 + x1)]) == 1
    assert capsys.readouterr().out == "curves 0, 1, 3 share a point\n"


def test_verify_command(tmp_path, capsys):
    scenario = shipped_scenario_dir() / "truncation_defect_generic.json"
    out = tmp_path / "report.csv"
    code = main(["verify", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,lhs,rhs,margin,gated"
    assert len(lines) > 5


def test_exset_and_verify_print_to_stdout(tmp_path, capsys):
    gpath = write_poly(tmp_path, "G.json", sphere())
    assert main(["exset", "--poly", gpath, "--bound", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["curves"]) == 15
    scenario = shipped_scenario_dir() / "truncation_defect_generic.json"
    assert main(["verify", "--scenario", str(scenario)]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[0] == "r,lhs,rhs,margin,gated"
    assert "# verdict: holds-on-grid" in out.err


def test_suite_refuses_a_directory_without_scenarios(tmp_path, capsys):
    assert main(["suite", "--dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no scenarios in {tmp_path}\n"


def test_suite_command(capsys):
    code = main(["suite"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict" in out and "holds-on-grid" in out


def test_exset_refuses_an_enumeration_that_cannot_finish(tmp_path, capsys):
    gpath = write_poly(tmp_path, "G.json", sphere())
    out = tmp_path / "W.json"
    code = main(["exset", "--poly", gpath, "--eps", "1/2", "--out", str(out)])
    assert code == 2
    assert "19,347 chart solves" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_degeneracy_scan_that_cannot_finish(tmp_path, capsys):
    doc = json.loads((shipped_scenario_dir() / "gcd_bound_units.json").read_text())
    doc["params"]["eps"] = "1/100000"
    path = tmp_path / "gcd.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert "error: degeneracy scan to |m1|+|m2| <= 3,199,994" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("gcd_bound_units.json", "grid", [5.0, 200.0]),
    ("gcd_bound_units.json", "scan_cap", "x"),
    ("gcd_bound_units.json", "eps", "a/b"),
    ("smt_lines.json", "ell", "two"),
    ("smt_lines.json", "trunc", "x"),
    ("smt_lines.json", "r_pass", "far"),
    ("smt_exp_units.json", "simple_zeros", "yes"),
    # integers are JSON integers: not truncated, counted as 1 or parsed
    ("coefficient_borel.json", "ell", 2.7),
    ("lower_bound_generic.json", "ell2", True),
    ("smt_lines.json", "trunc", "3"),
    ("gcd_bound_units.json", "scan_cap", 4.5),
    ("unit_sum_poly.json", "grid", [5.0, 500.0, 21.5]),
    # values of the right type outside the range the inequalities are stated for
    ("log_derivative_height.json", "ell", 0),
    ("coefficient_borel.json", "ell", 0),
    ("coefficient_borel.json", "ell", -3),
    ("smt_lines.json", "trunc", 0),
    ("smt_lines.json", "trunc", -2),
    ("lower_bound_generic.json", "ell2", 0),
    ("smt_lines.json", "r_pass", "nan"),
    ("smt_lines.json", "r_pass", "inf"),
    ("smt_lines.json", "r_pass", 1e9),  # beyond the last radius: no row is gated
    ("smt_lines.json", "eps", "5"),
    ("smt_lines.json", "eps", "-1"),
    ("truncation_defect_generic.json", "eps", "3/2"),
    ("gcd_bound_units.json", "scan_cap", -1),
    ("unit_sum_poly.json", "grid", ["nan", 500, 17]),
    ("unit_sum_poly.json", "grid", [5, "inf", 17]),
    ("unit_sum_poly.json", "grid", [5, 500, 2**70]),
])
def test_verify_refuses_a_malformed_parameter(tmp_path, capsys, name, key, value):
    doc = json.loads((shipped_scenario_dir() / name).read_text())
    doc["params"][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert f"error: malformed scenario parameter {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("doc, problem", [
    ({"vectors": [[0, 0], [1.5, 0]]}, "'vectors' must be an integer, not 1.5"),
    ({"vectors": [[0], [True]]}, "'vectors' must be an integer, not True"),
    ({"generators": [[0]]}, "no key 'vectors'"),
    ([[0], [1]], "malformed family document"),
], ids=["float-exponent", "bool-exponent", "no-vectors", "not-an-object"])
def test_a_malformed_family_document_is_refused(tmp_path, capsys, doc, problem):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    argv = ["constants", "--n", "2", "--d", "1", "--eps", "1/2", "--family", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


@pytest.mark.parametrize("command, flag, value", [
    ("nev", "--grid", "2,200"),
    ("nev", "--grid", "2,x,5"),
    ("nev", "--grid", "2,200,5.5"),  # a count that is not an integer
    ("constants", "--eps", "abc"),
    ("constants", "--eps", "1/0"),
    ("constants", "--c3", "abc"),
    ("exset", "--eps", "abc"),
])
def test_a_malformed_flag_value_is_refused(tmp_path, capsys, command, flag, value):
    z = SparsePoly.variable(0, 1)
    fdoc = {"scalar": {"re": "1", "im": "0"},
            "factors": [{"poly": serialize.poly_to_doc(z**3), "mult": 1}],
            "exp": serialize.poly_to_doc(SparsePoly.zero(1))}
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fdoc))
    argv = {"nev": ["nev", "--fn", str(fpath), "--grid", "2,50,5", "--functional", "T"],
            "constants": ["constants", "--n", "2", "--d", "1", "--eps", "1/2"],
            "exset": ["exset", "--poly", write_poly(tmp_path, "G.json", sphere()),
                      "--bound", "2"]}[command]
    with pytest.raises(SystemExit) as exit_:
        main(argv + [flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and value in err


@pytest.mark.parametrize("doc, problem", [
    # a class-function document, not a polynomial one
    ({"scalar": {"re": "1", "im": "0"}, "factors": [], "exp": None}, "no key 'vars'"),
    ({"vars": 3, "terms": [{"exp": [1, 2], "re": "1"}]}, "has length 2, expected 3"),
    ({"vars": 1, "terms": [{"exp": [1], "re": "x"}]}, "'x'"),
    ({"vars": 1, "terms": [{"exp": [1], "re": "1/0"}]}, "a denominator is 0"),
    ({"vars": 1, "terms": [{"exp": [-1], "re": "1"}]}, "negative exponent"),
    ({"vars": 1, "laurent": True, "terms": []}, "Laurent document"),
    ([1, 2], "is an object"),
    # x + 2x + 5 + 0: a later term must not overwrite an earlier one
    ({"vars": 1, "terms": [{"exp": [1], "re": "1"}, {"exp": [1], "re": "2"},
                           {"exp": [0], "re": "5"}, {"exp": [0], "re": "0"}]},
     "exponent [1] is repeated"),
    # numbers that are not JSON integers are refused, not truncated
    ({"vars": 1, "terms": [{"exp": [1.7], "re": "1"}]}, "'exp' must be an integer, not 1.7"),
    ({"vars": 1.9, "terms": [{"exp": [1], "re": "1"}]}, "'vars' must be an integer, not 1.9"),
    ({"vars": 1, "terms": [{"exp": [True], "re": "1"}]}, "'exp' must be an integer, not True"),
], ids=["class-function", "exponent-length", "coefficient", "zero-denominator",
        "negative-exponent", "laurent", "not-an-object", "repeated-exponent",
        "float-exponent", "float-vars", "bool-exponent"])
def test_a_malformed_polynomial_document_is_refused(tmp_path, capsys, doc, problem):
    path = tmp_path / "G.json"
    path.write_text(json.dumps(doc))
    assert main(["exset", "--poly", str(path), "--bound", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


CUBE = {"vars": 1, "terms": [{"exp": [3], "re": "1"}]}


@pytest.mark.parametrize("command, doc, problem", [
    ("nev", {"factors": [{"poly": CUBE}]}, "no key 'mult'"),
    ("nev", {"scalar": {"re": "x"}}, "'x'"),
    ("nev", [1, 2], "is an object"),
    ("verify", {"const": {"re": "abc"}}, "'abc'"),
    ("verify", {"hl": {"h": CUBE}}, "no key 'ell'"),
    ("nev", {"factors": [{"poly": CUBE, "mult": 1.5}]}, "'mult' must be an integer, not 1.5"),
    ("verify", {"hl": {"h": CUBE, "ell": 2.5}}, "'ell' must be an integer, not 2.5"),
], ids=["factor-without-mult", "scalar", "not-an-object", "const", "hl-without-ell",
        "float-mult", "float-ell"])
def test_a_malformed_function_document_is_refused(tmp_path, capsys, command, doc, problem):
    """A class-function document (nev --fn) and a scenario's curve component
    (verify --scenario) are refused with an error line, not a traceback."""
    path = tmp_path / "doc.json"
    if command == "nev":
        path.write_text(json.dumps(doc))
        argv = ["nev", "--fn", str(path), "--grid", "2,50,5", "--functional", "T"]
    else:
        scenario = json.loads((shipped_scenario_dir() / "truncation_defect_generic.json").read_text())
        scenario["curve"][0] = doc
        path.write_text(json.dumps(scenario))
        argv = ["verify", "--scenario", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


@pytest.mark.parametrize("grid, problem", [
    ("nan,50,5", "grid needs 0 < r_min < r_max"),
    ("2,inf,5", "MAX_GRID_RADIUS"),
    ("2,1e7,5", "MAX_GRID_RADIUS"),
    (f"2,50,{2**70}", "MAX_GRID_COUNT"),
])
def test_nev_refuses_a_grid_outside_its_range(tmp_path, capsys, grid, problem):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"factors": [{"poly": CUBE, "mult": 1}]}))
    assert main(["nev", "--fn", str(fpath), "--grid", grid, "--functional", "T"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


HUGE_TERM = {"exp": [2**70], "re": "1"}


@pytest.mark.parametrize("command", ["exset", "nev"])
def test_a_document_with_a_huge_exponent_is_refused(tmp_path, capsys, command):
    """Coefficient lists are dense over the degree, so such a document would
    hang; it is refused at the exponent cap instead."""
    path = tmp_path / "doc.json"
    if command == "exset":
        # x^N + y^N + z^N with N = 2^70
        terms = [{"exp": [2**70 if i == j else 0 for j in range(3)], "re": "1"} for i in range(3)]
        path.write_text(json.dumps({"vars": 3, "terms": terms}))
        argv = ["exset", "--poly", str(path), "--bound", "2"]
    else:
        path.write_text(json.dumps({"factors": [{"poly": {"vars": 1, "terms": [HUGE_TERM]},
                                                 "mult": 1}]}))
        argv = ["nev", "--fn", str(path), "--grid", "2,50,5", "--functional", "T"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"above the cap MAX_EXPONENT = {serialize.MAX_EXPONENT}" in err


SCENARIO = "truncation_defect_generic.json"


@pytest.mark.parametrize("key, value, problem", [
    ("params", [], "malformed scenario document"),
    ("target", [], "malformed scenario document"),
    ("curve", None, "malformed scenario document"),
    ("polys", 3, "malformed scenario document"),
    (None, [1], "a scenario document is an object"),
    (None, "truncated", "malformed scenario document"),
    (None, "missing", "cannot read the scenario document"),
], ids=["params-list", "target-list", "curve-null", "polys-number", "not-an-object",
        "truncated", "missing-file"])
def test_a_malformed_scenario_document_is_refused(tmp_path, capsys, key, value, problem):
    """verify exits 2 with an error line, not 1 (a violated inequality) with a
    traceback."""
    text = (shipped_scenario_dir() / SCENARIO).read_text()
    path = tmp_path / SCENARIO
    if key is not None:
        doc = json.loads(text)
        doc[key] = value
        path.write_text(json.dumps(doc))
    elif value == "truncated":
        path.write_text(text[:len(text) // 2])
    elif value != "missing":
        path.write_text(json.dumps(value))
    assert main(["verify", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err


@pytest.mark.parametrize("state", ["truncated", "missing"])
@pytest.mark.parametrize("command", ["exset", "nev", "constants"])
def test_an_unreadable_document_file_is_refused(tmp_path, capsys, command, state):
    path = tmp_path / "doc.json"
    if state == "truncated":
        path.write_text('{"vars": 1, "terms": [{"exp": [1], "re"')
    argv = {"exset": ["exset", "--poly", str(path), "--bound", "2"],
            "nev": ["nev", "--fn", str(path), "--grid", "2,50,5", "--functional", "T"],
            "constants": ["constants", "--n", "2", "--d", "1", "--eps", "1/2",
                          "--family", str(path)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    kind = {"exset": "polynomial", "nev": "class-function", "constants": "family"}[command]
    want = "malformed" if state == "truncated" else "cannot read the"
    assert err.startswith("error: ") and f"{want} {kind} document" in err
