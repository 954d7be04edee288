"""Acceptance suite: one test per criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from workbench.algebra.certificates import nullstellensatz_certificate
from workbench.algebra.euclid import gcd_poly
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.constants import MonomialFamily, choose_m, constants, binom, dim_Vt
from workbench.diffops import DiffSymbolRing, check_product_rule, verify_Du_numeric
from workbench.expsum import eval_poly_on_tuple
from workbench.exset import beta_loci, build_W, member_of_W, normalize_pair, substitute
from workbench.harness import (
    gcd_bound_check,
    load_scenario,
    run_scenario,
    shipped_scenario_dir,
)
from workbench.morphisms import PowerMorphism, euler_identity_check, jacobian_det, pushforward_curve
from workbench.nevanlinna import (
    MeroFn,
    RadiusGrid,
    characteristic_T,
    counting_N,
    log_derivative,
    log_derivative_T,
)

from conftest import (
    as_polynomial,
    fit_log_slope,
    leading_coeff_log_abs_at_zero,
    random_poly,
    scenario,
)


def _vars3():
    return [SparsePoly.variable(i, 3) for i in range(3)]


def _z():
    return SparsePoly.variable(0, 1)


def sphere():
    x0, x1, x2 = _vars3()
    return x0**2 + x1**2 + x2**2


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_exceptional_set_oracle():
    t0 = time.monotonic()
    W = build_W(sphere(), ell2=2)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"build took {elapsed:.2f}s"

    # exactly the worked-example set: 3 coordinate lines, 6 lines
    # x_j = +-i x_k, 6 relations x_j x_k = +-1/2 x_l^2
    assert len(W) == 15
    coord = [c for c in W.curves if c.kind == "coordinate-line"]
    assert sorted(c.coord_index for c in coord) == [0, 1, 2]
    lines = [c for c in W.curves if c.kind != "coordinate-line"
             and sorted(c.exponents) == [-1, 0, 1]]
    quads = [c for c in W.curves if c.kind != "coordinate-line"
             and sorted(c.exponents) == [-2, 1, 1]]
    assert len(lines) == 6 and len(quads) == 6
    for c in lines:
        val = c.beta.enclosure.center
        assert abs(val.real) < 1e-9 and abs(abs(val.imag) - 1) < 1e-9  # +-i
    for c in quads:
        val = c.beta.enclosure.center
        assert abs(val.imag) < 1e-9 and abs(abs(val.real) - 0.5) < 1e-9  # +-1/2

    # witness curve (1, t, i): matched, and N - N^(1) = N/2 exactly for t^2
    one = MeroFn.constant(1)
    t = MeroFn.from_poly(_z())
    witness = (one, t, MeroFn.constant(GaussRat(0, 1)))
    assert member_of_W(W, witness)
    Gg = as_polynomial(eval_poly_on_tuple(sphere(), witness))
    assert Gg == _z() ** 2
    f = MeroFn.from_poly(Gg)
    for r in (7.0, 23.0):
        N = counting_N(f, "zero", r)
        N1 = counting_N(f, "zero", r, trunc=1)
        assert N - N1 == pytest.approx(N / 2, abs=1e-12)

    # generic curve (1, t, t+1): unmatched; N^(1) >= (2 - 0.1) T on r >= 10
    generic = (one, t, MeroFn.from_poly(_z() + 1))
    assert member_of_W(W, generic) == []
    rep = run_scenario(load_scenario(shipped_scenario_dir() / "lower_bound_generic.json"))
    gated = [row for row in rep.rows if row.gated]
    assert gated and all(row.r >= 10.0 - 1e-9 for row in gated)
    assert all(row.margin >= 0 for row in gated)
    margin_slope = fit_log_slope([(row.r, row.margin) for row in gated])
    assert margin_slope >= 0
    counting_slope = fit_log_slope([(row.r, row.rhs) for row in gated])
    assert abs(counting_slope - 2.0) <= 0.02 * 2.0  # within 2% of the degree count
    _report(1, f"exceptional set exact (15 curves, {elapsed:.2f}s); witness matched "
               f"with N - N1 = N/2; generic margins >= 0, counting slope "
               f"{counting_slope:.4f}")


def test_criterion_2_constants():
    p = constants(2, 2, 4)
    assert (p.M, p.M_prime, p.c_mnd, p.L) == (11, 4, 8, 7)

    def oracle_binom(top, k):
        if k < 0 or top < k:
            return 0
        num = den = 1
        for i in range(k):
            num *= top - i
            den *= i + 1
        assert num % den == 0
        return num // den

    M = 2 * oracle_binom(4 + 2 - 2, 2) - oracle_binom(4 + 2 - 4, 2)
    assert M == 11 and oracle_binom(6, 2) - M == 4
    assert 2 * oracle_binom(4, 3) - oracle_binom(2, 3) == 8

    assert choose_m(Fraction(1, 2), 2, 1) == 29
    for m in range(2, 51):
        prof = constants(2, 1, m)
        second = Fraction(m, 3) * binom(m + 2, 2) - prof.c_mnd - prof.M_prime * m
        assert second == 0

    rng = random.Random(118)
    cases = 0
    while cases < 200:
        g = rng.randrange(1, 5)
        vectors = {(0,) * g}
        for _ in range(rng.randrange(1, 5)):
            vectors.add(tuple(rng.randrange(0, 3) for _ in range(g)))
        if len(vectors) > 5:
            continue
        fam = MonomialFamily(tuple(vectors))
        tt = rng.randrange(0, 9)
        brute = {(0,) * g}
        for _ in range(tt):
            brute = {tuple(a + b for a, b in zip(s, v)) for s in brute for v in vectors}
        assert dim_Vt(fam, tt) == len(brute)
        cases += 1
    _report(2, "constants(2,2,4) = (11,4,8,7); choose_m(1/2,2,1) = 29 with the "
               "n=2,d=1 identity exact for m=2..50; 200 sumset dimension cases")


def test_criterion_3_nevanlinna_numerics():
    t0 = time.monotonic()
    grid = RadiusGrid.log_spaced(1.0, 50.0, 20)
    for a in (1, 2, 5):
        f = MeroFn.unit(_z().scale(a))
        for r in grid.points:
            got = characteristic_T(f, r)
            want = abs(a) * r / math.pi
            assert abs(got - want) <= 1e-6 * want, (a, r, got, want)

    z = _z()
    samples = [
        MeroFn(scalar=1, factors=[(z - 2, 3), (z + 1, -1)]),
        MeroFn(scalar=GaussRat("3/2"), factors=[(z**2 + 1, 2)]),
        MeroFn(scalar=GaussRat(0, 1), factors=[(z - 1, 1), (z + 3, -2)]),
        MeroFn(scalar=2, factors=[(z, 2), (z - 1, 1)]),
        MeroFn(scalar=1, factors=[(z**2 - 2, 1)]),
        MeroFn(scalar=1, factors=[(z, -1), (z - 3, 2)]),
        MeroFn(scalar=GaussRat("1/3", "1/7"), factors=[(z + 5, 1)]),
        MeroFn(scalar=1, factors=[(z**2 + z + 1, 1)]),
        MeroFn(scalar=4, factors=[(z - 1, 1), (z + 1, 1)]),
        MeroFn(scalar=1, factors=[(z**3 - 8, 1)]),
    ]
    assert len(samples) == 10
    for f in samples:
        C = abs(leading_coeff_log_abs_at_zero(f)) + 1e-6
        for r in (4.3, 12.7):
            diff = characteristic_T(f, r) - characteristic_T(f.inverse(), r)
            assert abs(diff) <= C

    # log-derivative height margins for (z^2 - 1)^ell, ell in {5, 10, 50}
    rs = RadiusGrid.log_spaced(10.0, 1000.0, 9)
    for ell in (5, 10, 50):
        f = MeroFn(scalar=1, factors=[(z**2 - 1, ell)])
        ld = log_derivative(f)
        for r in rs.points:
            Tf = characteristic_T(f, r)
            lhs = log_derivative_T(ld, r)
            rhs = Tf / ell + math.log(max(Tf, 1.0))
            assert rhs - lhs >= 0, (ell, r, lhs, rhs)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, f"exponential characteristic within 1e-6 relative (3 x 20 radii); "
               f"first-main-theorem bound on 10 samples; log-derivative margins "
               f">= 0 for ell in 5/10/50 at r >= 10 ({elapsed:.1f}s)")


def test_criterion_4_symbolic_identities():
    rng = random.Random(424)
    ring = DiffSymbolRing(2)
    ok = 0
    while ok < 1000:
        p = random_poly(rng, 3, 4, max_terms=3)
        q = random_poly(rng, 3, 4, max_terms=3)
        assert check_product_rule(ring, ring.embed(p), ring.embed(q))
        ok += 1

    one = MeroFn.constant(1)
    z = _z()
    u = (one, MeroFn.from_poly(z**2), MeroFn.from_poly((z - 1) ** 2))
    pts = [1.5 + 0.5j, -2 + 1j, 0.3 - 0.7j, 3 + 0j]
    resid = verify_Du_numeric(sphere(), u, pts)
    assert resid < 1e-9

    # variant with a nontrivial first component: the composition rule
    # G(g)' = d (g0'/g0) G(g) + D_u(G)(g) for g = (z, z^2, 1 + z^2)
    g = (MeroFn.from_poly(z), MeroFn.from_poly(z**2), MeroFn.from_poly(1 + z**2))
    Gp = sphere()
    Gg = eval_poly_on_tuple(Gp, g)
    lhs_fn = Gg.derivative()
    ld0 = log_derivative(g[0])
    lds = [None, log_derivative(g[1] / g[0]), log_derivative(g[2] / g[0])]
    worst = 0.0
    for zv in pts:
        lhs = lhs_fn.eval(zv)
        rhs = 2 * ld0.eval(zv) * Gg.eval(zv)
        w = [None, lds[1].eval(zv), lds[2].eval(zv)]
        for expo, coeff in Gp.terms.items():
            tw = sum(expo[j] * w[j] for j in (1, 2) if expo[j])
            mono = complex(coeff)
            for gi, e in zip(g, expo):
                if e:
                    mono *= gi.eval(zv) ** e
            rhs += mono * tw
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    assert worst < 1e-9

    certs = 0
    while certs < 50:
        dF, dG = rng.randrange(1, 4), rng.randrange(1, 4)
        F = random_poly(rng, 2, 0, max_terms=4, coeff_range=4, homogeneous_degree=dF)
        G = random_poly(rng, 2, 0, max_terms=4, coeff_range=4, homogeneous_degree=dG)
        if not F or not G or not gcd_poly(F, G, 0).is_constant():
            continue
        cert = nullstellensatz_certificate(F, G)
        assert cert.verify(F, G) and cert.R
        certs += 1

    morphisms = 0
    while morphisms < 100:
        comps = [
            random_poly(rng, 3, 0, max_terms=4, coeff_range=3,
                        homogeneous_degree=rng.randrange(1, 4))
            for _ in range(3)
        ]
        if any(not c or c.is_constant() for c in comps):
            continue
        m = PowerMorphism.build(*comps, check_finite=False)
        assert euler_identity_check(m)
        morphisms += 1
    _report(4, "product rule exact on 1000 cases; operator residuals < 1e-9; "
               "50 certificates verified by expansion; Euler and determinant "
               "identities exact on 100 morphisms")


def test_criterion_5_substitution_roundtrip():
    x0, x1, x2 = _vars3()
    curves = [
        sphere(),
        x0**3 + x1**3 + x2**3,
        x0**2 + x1**2 + 2 * x2**2,
        x0**3 + x1**3 + x2**3 + x0 * x1 * x2,
        x0**2 + 3 * x1**2 + x2**2 + x0 * x1,
    ]
    pairs = [(0, 1), (1, 1), (-1, 1), (1, 2), (-2, 1)]
    combos = 0
    for G in curves:
        for n1, n2 in pairs:
            sub = substitute(G, normalize_pair(n1, n2))
            assert sub.roundtrip_holds()  # T^M1 L^M2 B resubstitutes to G1
            combos += 1  # squarefreeness of B is asserted inside substitute
    assert combos >= 20

    L = SparsePoly.variable(0, 1)
    expect = {
        (0, 1): (L**2 + 1, [-1j, 1j]),
        (1, 1): (L**2 - Fraction(1, 4), [-0.5, 0.5]),
        (-1, 1): (L**2 + 1, [-1j, 1j]),
    }
    for (n1, n2), (poly, roots) in expect.items():
        loci = beta_loci(substitute(sphere(), normalize_pair(n1, n2)))
        assert loci.alphas.defining_poly == poly
        got = sorted((round(e.center.real, 9), round(e.center.imag, 9)) for e in loci.alphas.roots)
        want = sorted((round(complex(w).real, 9), round(complex(w).imag, 9)) for w in roots)
        assert got == want
    _report(5, f"{combos} substitution round-trips exact with squarefree cores; "
               "the three worked loci have defining polynomials 1+L^2, L^2-1/4, 1+L^2")


def test_criterion_6_morphism_suite():
    x0, x1, x2 = _vars3()
    m = PowerMorphism.build(x0, x1, sphere())
    assert jacobian_det(m, reduced=True) == 2 * x2
    A = pushforward_curve(m, x2)
    target = x2 - x0 - x1
    assert A == target or A == -target
    comp = m.apply_to_polys(m.powered_components(), A)
    assert comp == x2**2 or comp == -(x2**2)  # vanishing order exactly 2
    _report(6, "reduced Jacobian = 2*x2; pushforward of [x2=0] is the line "
               "y2 - y0 - y1 with pullback x2^2 (order two)")


def test_criterion_7_gcd_harness():
    x0, x1, x2 = _vars3()
    z = _z()
    one = MeroFn.constant(1)
    params = {"eps": "1/2", "grid": (5.0, 150.0, 9), "r_pass": 10.0, "scan_cap": 4}
    forms = (x0 + x1, x0 + x2)

    # stated instance: g = (1, e^z, e^{2z}).  The two composed forms are
    # 1 + e^z and 1 + e^{2z}, whose zero lattices i pi (odd) and
    # i pi/2 (odd) are disjoint, so the min-multiplicity sum over the
    # lattice {i pi (2k+1)} is identically zero; direct matching agrees.
    curve2 = (one, MeroFn.unit(z), MeroFn.unit(z.scale(2)))
    rep2 = gcd_bound_check(scenario("gcd-bound", curve2, params, polys=forms))
    F2 = eval_poly_on_tuple(x0 + x1, curve2)
    G2 = eval_poly_on_tuple(x0 + x2, curve2)
    for row in rep2.rows:
        lattice_sum = 0.0
        k = 0
        while math.pi * (2 * k + 1) <= row.r:
            for sgn in (1, -1):
                w = sgn * 1j * math.pi * (2 * k + 1)
                vf = 1 if abs(F2.eval(w)) < 1e-9 else 0
                vg = 1 if abs(G2.eval(w)) < 1e-9 else 0
                lattice_sum += min(vf, vg) * math.log(row.r / abs(w))
            k += 1
        assert abs(row.lhs - lattice_sum) <= 1e-6

    # shared-lattice variant: with e^{3z} both forms vanish on i pi (odd)
    curve3 = (one, MeroFn.unit(z), MeroFn.unit(z.scale(3)))
    rep3 = gcd_bound_check(scenario("gcd-bound", curve3, params, polys=forms))
    for row in rep3.rows:
        expected = 0.0
        k = 0
        while math.pi * (2 * k + 1) <= row.r:
            expected += 2 * math.log(row.r / (math.pi * (2 * k + 1)))
            k += 1
        assert abs(row.lhs - expected) <= 1e-6

    # degeneracy detector on (1, e^z, e^{-z}) fires with the tuple (1, 1)
    curve_deg = (one, MeroFn.unit(z), MeroFn.unit(-z))
    rep_deg = gcd_bound_check(scenario("gcd-bound", curve_deg, params, polys=forms))
    assert rep_deg.degenerate_tuple == (1, 1)
    _report(7, "gcd counting agrees with the explicit lattices within 1e-6 "
               "(disjoint for e^2z: identically zero; shared for e^3z); "
               "degeneracy detector fires with tuple (1, 1)")
