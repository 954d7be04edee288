import math
from fractions import Fraction

import pytest

from workbench import harness
from workbench.algebra.poly import SparsePoly
from workbench.expsum import ExpSumFn
from workbench.exset import BetaValue, build_W
from workbench.harness import (
    borel_check,
    composed_form_has_multiple_zero,
    fit_log_slope,
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

from conftest import count_calls, two_close_roots, variables


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
    assert rep.fitted_slopes["rhs"] == pytest.approx(2.0, rel=0.02)
    assert rep.fitted_slopes["margin"] >= 0


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


def test_unit_sum_exponential_instance():
    # components (1, e^z, -1 - e^z): the third lives outside the factored
    # class and is passed as an exponential sum
    one = ExpSumFn.constant(1)
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    third = -(one + ez)
    grid = RadiusGrid.log_spaced(5.0, 300.0, 11)
    rep = unit_sum_check([one, ez, third], grid, params={"r_pass": 20.0})
    assert rep.verdict == "holds-on-grid"
    assert all(row.margin >= 0 for row in rep.rows if row.gated)


def test_unit_sum_hypothesis_violations():
    one = MeroFn.constant(1)
    minus = MeroFn.constant(-1)
    t = MeroFn.from_poly(z())
    grid = RadiusGrid.log_spaced(2.0, 50.0, 5)
    rep = unit_sum_check([one, minus, t], grid)
    assert rep.verdict.startswith("hypothesis-violation")
    rep = unit_sum_check([one, minus, t, MeroFn.from_poly(-z())], grid)
    assert "subsum" in rep.verdict


def test_borel_check_moving_coefficients():
    ell = 5
    t = z()
    h1, h2, h3 = t**2 - 1, t**2 + 1, t**2 - 4
    f = [MeroFn(scalar=1, factors=[(h, ell)]) for h in (h1, h2, h3)]
    num = SparsePoly.zero(1)
    s = (t**2 - 1) ** ell + (t**2 + 1) ** ell
    a2 = MeroFn(scalar=-1, factors=[(s, 1), (h3, -ell)])
    coeffs = [MeroFn.constant(1), MeroFn.constant(1), a2]
    grid = RadiusGrid.log_spaced(5.0, 200.0, 7)
    rep = borel_check(coeffs, f, ell, grid, params={"r_pass": 10.0})
    assert rep.verdict == "holds-on-grid"


def test_borel_check_degenerate_subsum():
    t = z()
    f = [MeroFn.from_poly(t), MeroFn.from_poly(-t), MeroFn.from_poly(t**2)]
    coeffs = [MeroFn.constant(1), MeroFn.constant(1), MeroFn.constant(0)]
    grid = RadiusGrid.log_spaced(2.0, 20.0, 4)
    rep = borel_check(coeffs, f, 1, grid)
    assert rep.verdict.startswith("hypothesis-violation")


def test_gcd_bound_unit_curve_disjoint_lattices():
    # 1 + e^z vanishes on the odd multiples of i pi, 1 + e^{2z} on the
    # half-odd multiples: the zero sets are disjoint and the gcd counting
    # is identically zero
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()), MeroFn.unit(z().scale(2)))
    grid = RadiusGrid.log_spaced(5.0, 100.0, 7)
    rep = gcd_bound_check(x0 + x1, x0 + x2, curve, Fraction(1, 2),
                          {"r_pass": 10.0, "scan_cap": 4}, grid)
    assert rep.degenerate_tuple == (2, -1)
    for row in rep.rows:
        assert row.lhs == pytest.approx(0.0, abs=1e-9)


def test_gcd_bound_unit_curve_shared_lattice():
    # with e^{3z} in the last slot both composed forms vanish on the odd
    # multiples of i pi; matching must reproduce the explicit lattice sum
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()), MeroFn.unit(z().scale(3)))
    grid = RadiusGrid.log_spaced(5.0, 100.0, 7)
    rep = gcd_bound_check(x0 + x1, x0 + x2, curve, Fraction(1, 2),
                          {"r_pass": 10.0, "scan_cap": 4}, grid)
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
        gcd_bound_check(x0 + x1, (x0 + x1) * (x0 + x2), curve, Fraction(1, 2))
    with pytest.raises(Exception):
        # both vanish at e_2
        gcd_bound_check(x0 + x1, x1 - x0, curve, Fraction(1, 2))


def test_smt_lines_instance():
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.from_poly(z()),
             MeroFn.from_poly(z() ** 2 + 1))
    grid = RadiusGrid.log_spaced(5.0, 500.0, 9)
    rep = smt_instance_check([x0, x1, x2, x0 + x1 + x2], curve, Fraction(1, 4),
                             2, grid, {"r_pass": 10.0})
    assert rep.verdict == "holds-on-grid"


def test_smt_curve_inside_hypersurface():
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(0), MeroFn.from_poly(z()), MeroFn.constant(1))
    grid = RadiusGrid.log_spaced(5.0, 50.0, 5)
    rep = smt_instance_check([x0, x1, x2, x0 + x1 + x2], curve, Fraction(1, 4),
                             2, grid, {"r_pass": 10.0})
    assert rep.verdict.startswith("hypothesis-violation")


def test_witness_generator_produces_multiple_zeros():
    G = sphere()
    W = build_W(G, ell2=2)
    relations = [c for c in W.curves if c.kind == "monomial-relation"]
    checked = 0
    for spec in relations:
        wits = witness_curves(spec, count=3, require_form=G)
        if not wits:
            continue
        for curve in wits:
            from workbench.exset import member_of_W

            assert any(m.canonical_key() == spec.canonical_key()
                       for m in member_of_W(W, curve))
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
    assert rep1.fitted_slopes == rep2.fitted_slopes


def test_unknown_target_rejected():
    import pytest as _pytest

    from workbench.errors import InvalidInput
    from workbench.harness import scenario_from_doc

    with _pytest.raises(InvalidInput):
        scenario_from_doc({"target": "no-such-check"})


def test_unit_witness_scenario_excluded_with_double_zeros():
    rep = run_scenario(load_scenario(scenario_dir() / "truncation_defect_unit_witness.json"))
    assert rep.verdict == "excluded-by-W"
    assert any(sorted(c.exponents) == [-2, 1, 1] for c in rep.matched_curves)
    # every zero of the composed form is double, so the defect is N/2 > eps T
    assert rep.min_gated_margin() < 0


def test_exp_unit_zero_structure_is_exact():
    from workbench.expsum import eval_poly_on_tuple
    from workbench.harness import counting_of

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
    from workbench.harness import counting_of
    from workbench.nevanlinna import INFINITY, _log_counting

    if kind == "lattice":
        g = (MeroFn.constant(1), MeroFn.unit(z()),
             MeroFn(scalar=Fraction(1, 2), exp_part=-z()))
        Gg = eval_poly_on_tuple(sphere(), g)
        assert Gg.as_mero() is None
    else:
        # one squarefree factor, so the divisor lists the roots in the order
        # roots_certified gives them for the whole polynomial
        Gg = ExpSumFn.from_mero(MeroFn.from_poly((z() ** 3 + 7) ** 2))
    grid = RadiusGrid.log_spaced(1.0, 40.0, 9).perturbed_for([])
    N = counting_of(Gg, max(grid.points))
    for r in grid.points:
        zeros = Gg.zeros_in_disk(r)
        for trunc in (INFINITY, 1):
            want = _log_counting(((w, min(m, trunc)) for w, m in zeros), r)
            assert N(r, trunc) == want


def test_gcd_bound_resolves_each_zero_structure_once(monkeypatch):
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.unit(z()),
             MeroFn(scalar=Fraction(1, 2), exp_part=-z()))
    calls = count_calls(monkeypatch, ExpSumFn, "zeros_in_disk")
    rep = gcd_bound_check(x0 + x1, x0 + x2, curve, Fraction(1, 2),
                          {"r_pass": 5.0, "scan_cap": 0},
                          RadiusGrid.log_spaced(2.0, 10.0, 3))
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
        gcd_bound_check(x1 - x0 * 2, x0 + x2, curve, Fraction(1, 2),
                        {"scan_cap": 0}, RadiusGrid.log_spaced(2.0, 100.0, 5))


def test_smt_exponential_scenario_holds():
    rep = run_scenario(load_scenario(scenario_dir() / "smt_exp_units.json"))
    assert rep.verdict == "holds-on-grid"


def test_gcd_bound_computes_curve_characteristic_once_per_radius(monkeypatch):
    x0, x1, x2 = variables(3)
    curve = (MeroFn.constant(1), MeroFn.from_poly(z()), MeroFn.from_poly(z() ** 2 + 1))
    grid = RadiusGrid.log_spaced(5.0, 100.0, 5)
    calls = count_calls(monkeypatch, harness, "tuple_characteristic")
    rep = gcd_bound_check(x0 + x1, x0 + x2, curve, Fraction(1, 2),
                          {"r_pass": 20.0, "scan_cap": 2}, grid)
    assert [r for _, r in calls] == [row.r for row in rep.rows]
    assert len(calls) == len(grid.points)


def test_exact_root_does_not_upgrade_to_the_neighbouring_root():
    # the disk about 1 + 10^-10 holds no small-denominator root, though 1 is
    # a root of its defining polynomial
    f, _, near_one, near_other = two_close_roots()
    assert harness._exact_root(BetaValue(f, near_one)) == 1
    assert harness._exact_root(BetaValue(f, near_other)) is None
