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
    serialize.dump_poly(p, str(path))
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


@pytest.mark.parametrize("name, key, value", [
    ("gcd_bound_units.json", "grid", [5.0, 200.0]),
    ("gcd_bound_units.json", "scan_cap", "x"),
    ("gcd_bound_units.json", "eps", "a/b"),
    ("smt_lines.json", "ell", "two"),
    ("smt_lines.json", "trunc", "x"),
    ("smt_lines.json", "r_pass", "far"),
    ("smt_exp_units.json", "simple_zeros", "yes"),
])
def test_verify_refuses_a_malformed_parameter(tmp_path, capsys, name, key, value):
    doc = json.loads((shipped_scenario_dir() / name).read_text())
    doc["params"][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    assert main(["verify", "--scenario", str(path)]) == 2
    assert f"error: malformed scenario parameter {key!r}" in capsys.readouterr().err


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
], ids=["class-function", "exponent-length", "coefficient", "zero-denominator",
        "negative-exponent", "laurent", "not-an-object"])
def test_a_malformed_polynomial_document_is_refused(tmp_path, capsys, doc, problem):
    path = tmp_path / "G.json"
    path.write_text(json.dumps(doc))
    assert main(["exset", "--poly", str(path), "--bound", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err
