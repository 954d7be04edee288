import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from workbench import harness
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import roots_certified
from workbench.errors import InvalidInput
from workbench.expsum import ExpSumFn, eval_poly_on_tuple
from workbench.exset import BetaValue, CurveSpec, build_W
from workbench.harness import (
    Verdict,
    borel_check,
    gcd_bound_check,
    load_scenario,
    run_scenario,
    run_suite,
    scenario_from_doc,
    shipped_scenario_dir,
    smt_instance_check,
    summary_table,
    unit_sum_check,
    witness_curves,
)
from workbench.nevanlinna import MeroFn, RadiusGrid

from conftest import (
    as_polynomial,
    composed_form_has_multiple_zero,
    count_calls,
    fit_log_slope,
    scenario,
    two_close_roots,
    variables,
)


def z():
    return SparsePoly.variable(0, 1)


def sphere():
    x0, x1, x2 = variables(3)
    return x0**2 + x1**2 + x2**2


def scenario_dir():
    return shipped_scenario_dir()


def test_shipped_scenarios_all_load_and_run():
    paths = sorted(scenario_dir().glob("*.json"))
    assert len(paths) >= 8
    reports, ok = run_suite(paths)
    assert ok
    table = summary_table(reports)
    assert "verdict" in table
    by_name = {r.scenario: r for r in reports}
    assert by_name["lower-bound-generic"].verdict == "holds-on-grid"
    assert by_name["truncation-defect-witness"].verdict == "excluded-by-W"
    assert by_name["gcd-bound-degenerate"].degenerate_tuple == (1, 1)


def test_witness_scenario_violates_without_exclusion():
    # the matched curve genuinely defeats the truncation-defect inequality
    rep = run_scenario(load_scenario(scenario_dir() / "truncation_defect_witness.json"))
    assert rep.matched_curves
    assert rep.min_gated_margin() < 0


def test_generic_lower_bound_margins_and_slopes():
    rep = run_scenario(load_scenario(scenario_dir() / "lower_bound_generic.json"))
    assert rep.verdict == "holds-on-grid"
    assert all(row.margin >= 0 for row in rep.rows if row.gated)
    # the counting side N^(1) has slope = number of distinct zeros = 2
    gated = [row for row in rep.rows if row.gated]
    assert fit_log_slope([(row.r, row.rhs) for row in gated]) == pytest.approx(2.0, rel=0.02)
    assert fit_log_slope([(row.r, row.margin) for row in gated]) >= 0


def test_log_derivative_margins():
    for ell in (5, 10):
        doc = {
            "schema": "scenario/1",
            "name": f"ld-{ell}",
            "target": "log-derivative-height",
            "curve": [{"hl": {"h": {"vars": 1, "terms": [
                {"exp": [2], "re": "1", "im": "0"},
                {"exp": [0], "re": "-1", "im": "0"}]}, "ell": ell}}],
            "params": {"ell": ell, "grid": [10.0, 500.0, 9], "r_pass": 10.0},
        }
        rep = run_scenario(scenario_from_doc(doc))
        assert rep.verdict == "holds-on-grid"
        assert all(row.margin >= 0 for row in rep.rows)


@pytest.mark.parametrize("ell", [11, 2**70])
def test_log_derivative_with_a_zero_below_ell_is_a_rejection(ell):
    # the bound is stated for f with every zero multiplicity >= ell; (z^2 - 1)^10
    # has multiplicity 10, so a larger ell is a failed hypothesis, not a violation
    doc = json.loads((shipped_scenario_dir() / "log_derivative_height.json").read_text())
    doc["params"]["ell"] = ell
    rep = run_scenario(scenario_from_doc(doc))
    assert rep.outcome is Verdict.HYPOTHESIS_VIOLATION and rep.rows == []
    assert rep.detail == f"component 0 has zero multiplicity 10 < ell={ell}"


def test_unit_sum_exponential_instance():
    # components (1, e^z, -1 - e^z): the third lives outside the factored
    # class and is passed as an exponential sum
    one = ExpSumFn.constant(1)
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    third = -(one + ez)
    rep = unit_sum_check(scenario("borel-unit-sum", [one, ez, third],
                                  {"grid": (5.0, 300.0, 11), "r_pass": 20.0}))
    assert rep.verdict == "holds-on-grid"
    assert all(row.margin >= 0 for row in rep.rows if row.gated)


def test_unit_sum_hypothesis_violations():
    one = MeroFn.constant(1)
    minus = MeroFn.constant(-1)
    t = MeroFn.from_poly(z())
    grid = {"grid": (2.0, 50.0, 5)}
    rep = unit_sum_check(scenario("borel-unit-sum", [one, minus, t], grid))
    assert rep.outcome is Verdict.HYPOTHESIS_VIOLATION
    assert rep.detail == "components do not sum to zero"
    rep = unit_sum_check(scenario("borel-unit-sum", [one, minus, t, MeroFn.from_poly(-z())], grid))
    assert rep.outcome is Verdict.HYPOTHESIS_VIOLATION
    assert rep.detail == "vanishing proper subsum (0, 1)"


def test_borel_check_moving_coefficients():
    ell = 5
    t = z()
    h1, h2, h3 = t**2 - 1, t**2 + 1, t**2 - 4
    f = [MeroFn(scalar=1, factors=[(h, ell)]) for h in (h1, h2, h3)]
    num = SparsePoly.zero(1)
    s = (t**2 - 1) ** ell + (t**2 + 1) ** ell
    a2 = MeroFn(scalar=-1, factors=[(s, 1), (h3, -ell)])
    coeffs = [MeroFn.constant(1), MeroFn.constant(1), a2]
    rep = borel_check(scenario("coefficient-borel", f, {"ell": ell, "grid": (5.0, 200.0, 7),
                                                        "r_pass": 10.0}, coeffs=coeffs))
    assert rep.verdict == "holds-on-grid"


def test_borel_check_degenerate_subsum():
    t = z()
    f = [MeroFn.from_poly(t), MeroFn.from_poly(-t), MeroFn.from_poly(t**2)]
    coeffs = [MeroFn.constant(1), MeroFn.constant(1), MeroFn.constant(0)]
    rep = borel_check(scenario("coefficient-borel", f, {"ell": 1, "grid": (2.0, 20.0, 4)},
                               coeffs=coeffs))
    assert rep.outcome is Verdict.HYPOTHESIS_VIOLATION
    assert rep.detail == "vanishing proper subsum (2,)"


def test_gcd_bound_unit_curve_disjoint_lattices():
    # 1 + e^z vanishes on the odd multiples of i pi, 1 + e^{2z} on the
    # half-odd multiples: the zero sets are disjoint and the gcd counting
    # is identically zero
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()), MeroFn.unit(z().scale(2)))
    rep = gcd_bound_check(scenario("gcd-bound", curve, {
        "eps": "1/2", "grid": (5.0, 100.0, 7), "r_pass": 10.0, "scan_cap": 4},
        polys=(x0 + x1, x0 + x2)))
    assert rep.degenerate_tuple == (2, -1)
    for row in rep.rows:
        assert row.lhs == pytest.approx(0.0, abs=1e-9)


def test_gcd_bound_unit_curve_shared_lattice():
    # with e^{3z} in the last slot both composed forms vanish on the odd
    # multiples of i pi; matching must reproduce the explicit lattice sum
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()), MeroFn.unit(z().scale(3)))
    rep = gcd_bound_check(scenario("gcd-bound", curve, {
        "eps": "1/2", "grid": (5.0, 100.0, 7), "r_pass": 10.0, "scan_cap": 4},
        polys=(x0 + x1, x0 + x2)))
    assert rep.degenerate_tuple == (3, -1)
    for row in rep.rows:
        expected = 0.0
        k = 0
        while math.pi * (2 * k + 1) <= row.r:
            expected += 2 * math.log(row.r / (math.pi * (2 * k + 1)))
            k += 1
        assert row.lhs == pytest.approx(expected, abs=1e-6)


def test_gcd_bound_rejects_bad_hypotheses():
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()), MeroFn.unit(z().scale(2)))
    with pytest.raises(Exception):
        gcd_bound_check(scenario("gcd-bound", curve, {"eps": "1/2"},
                                 polys=(x0 + x1, (x0 + x1) * (x0 + x2))))
    with pytest.raises(Exception):
        # both vanish at e_2
        gcd_bound_check(scenario("gcd-bound", curve, {"eps": "1/2"}, polys=(x0 + x1, x1 - x0)))
    with pytest.raises(InvalidInput, match="two forms"):
        gcd_bound_check(scenario("gcd-bound", curve, {"eps": "1/2"}, polys=(x0 + x1,)))


def test_smt_lines_instance():
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.from_poly(z()),
             MeroFn.from_poly(z() ** 2 + 1))
    rep = smt_instance_check(scenario("smt-instance", curve, {
        "eps": "1/4", "trunc": 2, "grid": (5.0, 500.0, 9), "r_pass": 10.0},
        polys=(x0, x1, x2, x0 + x1 + x2)))
    assert rep.verdict == "holds-on-grid"


def test_smt_rejection_names_the_shared_points():
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.from_poly(z()), MeroFn.from_poly(z() ** 2 + 1))
    rep = smt_instance_check(scenario("smt-instance", curve, {
        "eps": "1/4", "trunc": 2, "grid": (5.0, 50.0, 5), "r_pass": 10.0},
        polys=(x0, x1, x2, x0 + x1)))
    assert rep.verdict == ("hypothesis-violation(not in general position: "
                           "curves 0, 1, 3 share a point)")


def test_smt_curve_inside_hypersurface():
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(0), MeroFn.from_poly(z()), MeroFn.constant(1))
    rep = smt_instance_check(scenario("smt-instance", curve, {
        "eps": "1/4", "trunc": 2, "grid": (5.0, 50.0, 5), "r_pass": 10.0},
        polys=(x0, x1, x2, x0 + x1 + x2)))
    assert rep.outcome is Verdict.HYPOTHESIS_VIOLATION
    assert rep.detail == "curve inside a hypersurface"


def test_witness_generator_produces_multiple_zeros():
    G = sphere()
    W = build_W(G, ell2=2)
    relations = [c for c in W.curves if c.kind == "monomial-relation"]
    checked = 0
    for spec in relations:
        # the generic witnesses, on which the form is not constant; the
        # generator makes at most 18 (6 directions, 3 scales each)
        wits = [curve for curve in witness_curves(spec, count=18)
                if not as_polynomial(eval_poly_on_tuple(G, curve)).is_constant()][:3]
        if not wits:
            continue
        for curve in wits:
            from workbench.exset import member_of_W

            assert spec in member_of_W(W, curve)
            assert composed_form_has_multiple_zero(G, curve)
        checked += 1
    assert checked >= 3


def test_fit_log_slope():
    pts = [(math.exp(k), 3.0 * k + 1) for k in range(1, 6)]
    assert fit_log_slope(pts) == pytest.approx(3.0)


def test_scenario_csv_shape():
    rep = run_scenario(load_scenario(scenario_dir() / "truncation_defect_generic.json"))
    rows = rep.csv_rows()
    assert rows[0] == "r,lhs,rhs,margin,gated"
    assert len(rows) == len(rep.rows) + 1


def test_verdicts_reproducible_bit_for_bit():
    path = scenario_dir() / "truncation_defect_generic.json"
    rep1 = run_scenario(load_scenario(path))
    rep2 = run_scenario(load_scenario(path))
    assert rep1.verdict == rep2.verdict
    assert rep1.csv_rows() == rep2.csv_rows()


def test_unknown_target_rejected():
    import pytest as _pytest

    from workbench.errors import InvalidInput
    from workbench.harness import scenario_from_doc

    with _pytest.raises(InvalidInput):
        scenario_from_doc({"target": "no-such-check"})
    with _pytest.raises(InvalidInput, match="unknown target None"):
        scenario_from_doc({"name": "no target"})


@pytest.mark.parametrize("key", ["skip_exceptional_set", "r-pass"])
def test_unknown_scenario_parameter_rejected(key):
    doc = {"target": "gcd-bound", "params": {"eps": "1/2", key: True}}
    with pytest.raises(InvalidInput, match=repr(key)):
        scenario_from_doc(doc)


def test_scenario_holds_converted_parameters():
    # the checks read params without converting them again, and every key the
    # document leaves out holds its default
    s = scenario_from_doc({"target": "smt-instance", "params": {
        "eps": "1/4", "ell": 2, "trunc": 3, "r_pass": 10, "grid": [5, "200", 13],
        "log_allowance": ["1/2", 0], "simple_zeros": True}})
    assert s.params == {"eps": Fraction(1, 4), "ell": 2, "ell2": None, "trunc": 3,
                        "scan_cap": 8, "r_pass": 10.0,
                        "grid": RadiusGrid.log_spaced(5.0, 200.0, 13),
                        "log_allowance": (0.5, 0.0), "simple_zeros": True}
    assert [type(v) for v in s.params.values()] == [
        Fraction, int, type(None), int, int, float, RadiusGrid, tuple, bool]
    defaults = scenario_from_doc({"target": "smt-instance"}).params
    assert defaults == {"eps": Fraction(1, 10), "ell": 1, "ell2": None, "trunc": 1,
                        "scan_cap": 8, "r_pass": None,
                        "grid": RadiusGrid.log_spaced(2.0, 200.0, 21),
                        "log_allowance": (1.0, 0.0), "simple_zeros": False}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(path=st.sampled_from(sorted(shipped_scenario_dir().glob("*.json"))),
       key=st.sampled_from(sorted(harness.PARAMS)),
       value=st.sampled_from([0, -1, 2**70, 0.5, "nan", "inf", 1e9, True, "x", [3, 40, 5],
                              "1/100000"]))
def test_a_parameter_out_of_range_is_refused_or_checked(path, key, value):
    """A shipped scenario with one parameter set to an odd value returns a
    report or raises InvalidInput, and a pass always rests on a gated row."""
    doc = json.loads(path.read_text())
    doc["params"][key] = value
    try:
        report = run_scenario(scenario_from_doc(doc))
    except InvalidInput:
        return
    if report.outcome is Verdict.HOLDS_ON_GRID:
        assert any(row.gated for row in report.rows)


def test_unit_witness_scenario_excluded_with_double_zeros():
    rep = run_scenario(load_scenario(scenario_dir() / "truncation_defect_unit_witness.json"))
    assert rep.verdict == "excluded-by-W"
    assert any(sorted(c.exponents) == [-2, 1, 1] for c in rep.matched_curves)
    # every zero of the composed form is double, so the defect is N/2 > eps T
    assert rep.min_gated_margin() < 0


def test_exp_unit_zero_structure_is_exact():
    from workbench.nevanlinna import counting_of

    x0, x1, x2 = variables(3)
    G = x0**2 + x1**2 + x2**2
    from workbench.algebra.gaussrat import GaussRat

    g = (MeroFn.constant(1), MeroFn.unit(z()),
         MeroFn(scalar=GaussRat("1/2"), exp_part=-z()))
    Gg = eval_poly_on_tuple(G, g)
    # zeros at (log(1/2) + i pi (2k+1))/2, multiplicity 2
    r = 9.0
    zeros = Gg.zeros_in_disk(r)
    assert zeros and all(m == 2 for _, m in zeros)
    N = counting_of(Gg, r)
    assert N(r) - N(r, trunc=1) == pytest.approx(N(r) / 2, rel=1e-12)


@pytest.mark.parametrize("kind", ["lattice", "polynomial"])
def test_counting_resolved_once_equals_per_radius_zeros(kind):
    from workbench.expsum import eval_poly_on_tuple
    from workbench.nevanlinna import counting_of
    from workbench.nevanlinna import INFINITY, _log_counting

    if kind == "lattice":
        g = (MeroFn.constant(1), MeroFn.unit(z()),
             MeroFn(scalar=Fraction(1, 2), exp_part=-z()))
        Gg = eval_poly_on_tuple(sphere(), g)
        assert Gg.as_mero() is None
        zeros_in_disk = Gg.zeros_in_disk
    else:
        # one squarefree factor, so the divisor lists the roots in the order
        # roots_certified gives them for the whole polynomial
        p = (z() ** 3 + 7) ** 2
        Gg = ExpSumFn.from_mero(MeroFn.from_poly(p))

        def zeros_in_disk(r):
            return [(d.center, d.multiplicity) for d in roots_certified(p).roots
                    if abs(d.center) <= r]
    grid = RadiusGrid.log_spaced(1.0, 40.0, 9).perturbed_for([])
    N = counting_of(Gg, max(grid.points))
    for r in grid.points:
        zeros = zeros_in_disk(r)
        for trunc in (INFINITY, 1):
            want = _log_counting(((w, min(m, trunc)) for w, m in zeros), r)
            assert N(r, trunc) == want


def test_gcd_bound_resolves_each_zero_structure_once(monkeypatch):
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()),
             MeroFn(scalar=Fraction(1, 2), exp_part=-z()))
    calls = count_calls(monkeypatch, ExpSumFn, "zeros_in_disk")
    rep = gcd_bound_check(scenario("gcd-bound", curve, {
        "eps": "1/2", "grid": (2.0, 10.0, 3), "r_pass": 5.0, "scan_cap": 0},
        polys=(x0 + x1, x0 + x2)))
    assert len(rep.rows) == 3
    assert len(calls) <= 2


def test_truncation_defect_builds_class_function_once(monkeypatch):
    calls = count_calls(monkeypatch, ExpSumFn, "as_mero")
    rep = run_scenario(load_scenario(scenario_dir() / "truncation_defect_unit_witness.json"))
    assert len(rep.rows) == 13
    assert len(calls) <= 1


def test_exact_gcd_route_rejects_divisor_point_on_grid_circle():
    from workbench.errors import InvalidInput

    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.from_poly(z()), MeroFn.from_poly(z() ** 2 + 1))
    # x1 - 2 x0 composes to z - 2, whose zero sits on the first grid circle
    with pytest.raises(InvalidInput, match="on the circle"):
        gcd_bound_check(scenario("gcd-bound", curve, {
            "eps": "1/2", "grid": (2.0, 100.0, 5), "scan_cap": 0},
            polys=(x1 - x0 * 2, x0 + x2)))


def test_smt_exponential_scenario_holds():
    rep = run_scenario(load_scenario(scenario_dir() / "smt_exp_units.json"))
    assert rep.verdict == "holds-on-grid"


def test_gcd_bound_computes_curve_characteristic_once_per_radius(monkeypatch):
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.from_poly(z()), MeroFn.from_poly(z() ** 2 + 1))
    calls = count_calls(monkeypatch, harness, "characteristic_T")
    rep = gcd_bound_check(scenario("gcd-bound", curve, {
        "eps": "1/2", "grid": (5.0, 100.0, 5), "r_pass": 20.0, "scan_cap": 2},
        polys=(x0 + x1, x0 + x2)))
    # the degeneracy scan asks for T of single monomials; only the tuple counts
    calls = [(f, r) for f, r in calls if not isinstance(f, MeroFn)]
    assert [r for _, r in calls] == [row.r for row in rep.rows]
    assert len(calls) == 5


def _relation_value(curve, exponents):
    """prod g_i^e_i of a curve on [x^e = beta x^e'], which is the constant beta."""
    acc = MeroFn.constant(1)
    for g, e in zip(curve, exponents):
        acc = acc * g**e if e >= 0 else acc / g ** (-e)
    assert acc.is_constant() and not acc.exp_part
    return acc.constant_value()


def _witnesses_on(f, disk, exponents=(-1, 1, 0)):
    spec = CurveSpec(kind="monomial-relation", exponents=exponents, beta=BetaValue(f, disk))
    return witness_curves(spec)


def test_exact_root_does_not_upgrade_to_the_neighbouring_root():
    # the two roots of (z - 1)(z - 1 - 10^-10) agree to 9 digits; each disk
    # carries its own exact value, and the witnesses lie on their own beta
    f, gap, near_one, near_other = two_close_roots()
    assert near_one.exact == 1 and near_other.exact == 1 + gap
    for disk in (near_one, near_other):
        wits = _witnesses_on(f, disk)
        assert wits and all(_relation_value(w, (-1, 1, 0)) == disk.exact for w in wits)


@pytest.mark.parametrize("f, beta", [
    (25 * z() ** 2 + 5 * z() - 2, GaussRat(Fraction(1, 5))),
    (5 * z() ** 3 - GaussRat(1, 2) * z() ** 2 + 5 * z() - GaussRat(1, 2),
     GaussRat(Fraction(1, 5), Fraction(2, 5))),
])
def test_witnesses_for_a_beta_with_denominator_five(f, beta):
    (disk,) = [d for d in roots_certified(f).roots if d.exact == beta]
    wits = _witnesses_on(f, disk, (-2, 1, 1))
    assert len(wits) == 3
    assert all(_relation_value(w, (-2, 1, 1)) == beta for w in wits)
