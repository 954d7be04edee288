"""Shared zeros of class functions and exp-sums: one exact route.

Every pair goes through ``nevanlinna.shared_zeros``: a unit and squarefree
factors per side, one gcd-free basis, and min-of-multiplicity weights.  The
float match it replaced, |z - w| <= 1e-8 max(1, |z|), is kept here only as the
oracle of the differential test, on draws whose zeros lie far apart.
"""

import math
import random
from fractions import Fraction

import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.squarefree import squarefree_decompose
from workbench.errors import InvalidInput
from workbench.expsum import ExpSumFn
from workbench.harness import gcd_bound_check
from workbench.nevanlinna import (
    MeroFn,
    _inflate,
    _shared_basis,
    exp_lattice,
    gcd_counting,
    shared_zeros,
)

from conftest import scenario, variables


def z():
    return SparsePoly.variable(0, 1)


def unit(D) -> ExpSumFn:
    return ExpSumFn.of(MeroFn.unit(D))


def unit_poly(p: SparsePoly, D: SparsePoly) -> ExpSumFn:
    """p(e^D) = sum_k c_k e^{k D} as an exp-sum."""
    return ExpSumFn.from_terms([(SparsePoly.constant(c, 1), SparsePoly.one(1), D.scale(e))
                                for (e,), c in p.terms.items()])


ONE = ExpSumFn.constant(1)


def test_units_a_constant_apart_share_nothing():
    # e^z - 1 and e^z - (1 + 10^-10) share no zero; the float match saw 15
    near = GaussRat(1) + GaussRat(Fraction(1, 10**10))
    f, g = unit(z()) - ONE, unit(z()) - ExpSumFn.constant(near)
    assert shared_zeros(f, g, [50.0]) == []
    assert gcd_counting(f, g, 50.0) == 0.0
    # e^{z+1} - 1 and e^z - 1: e^{z+1} = e^z * e, and e is not 1
    assert shared_zeros(unit(z() + 1) - ONE, unit(z()) - ONE, [50.0]) == []


def test_gcd_bound_counts_no_zeros_that_are_not_shared():
    # on [1 : e^z : e^{-z}], F = e^{2z} + e^{-2z} and G = e^{2z} + c e^{-2z}
    x0, x1, x2 = variables(3)
    c = GaussRat(1) + GaussRat(Fraction(1, 10**10))
    F = x1**2 + x2**2 + (x0**2 - x1 * x2)
    G = x1**2 + (x2**2).scale(c) + (x0**2 - x1 * x2).scale(2)
    curve = (MeroFn.constant(1), MeroFn.unit(z()), MeroFn.unit(-z()))
    rep = gcd_bound_check(scenario("gcd-bound", curve, {
        "eps": "1/2", "grid": (5.0, 200.0, 13), "r_pass": 10.0, "scan_cap": 4},
        polys=(F, G)))
    assert [row.lhs for row in rep.rows] == [0.0] * 13


def test_units_without_a_rational_ratio_are_refused():
    with pytest.raises(InvalidInput, match=r"exp\(z\) and exp\(i\*z\)"):
        shared_zeros(unit(z()) - ONE, unit(z().scale(GaussRat(0, 1))) - ONE, [5.0])


def test_a_polynomial_meets_a_unit_polynomial_only_where_the_exponent_vanishes():
    # z0 = -beta/alpha is shared exactly when P(z0) = 0 and p(1) = 0
    t = MeroFn.from_poly(z() - 1)
    assert shared_zeros(t, unit(z() - 1) - ONE, [5.0]) == [(1, 1)]
    assert shared_zeros(unit(z() - 1) - ONE, t, [5.0]) == [(1, 1)]
    assert shared_zeros(MeroFn.from_poly(z()), unit(z() + 1) - ONE, [5.0]) == []
    # P(0) = 0 but e^z + 1 does not vanish at 0
    assert shared_zeros(MeroFn.from_poly(z() ** 2), unit(z()) + ONE, [5.0]) == []
    # a double zero at the origin against a simple one: weight 1, the n(0) log r term
    assert shared_zeros(MeroFn.from_poly(z() ** 2), unit(z()) - ONE, [5.0]) == [(0, 1)]
    assert gcd_counting(MeroFn.from_poly(z() ** 2), unit(z()) - ONE, 5.0) == math.log(5.0)


def test_shared_zeros_take_the_smaller_multiplicity():
    # (1 + e^z)^2 against 1 - e^{2z} = (1 - e^z)(1 + e^z): e^z = -1, weight 1
    square = (ONE + unit(z())) ** 2
    points = shared_zeros(square, ONE - unit(z().scale(2)), [10.0])
    assert sorted(round(w.imag / math.pi) for w, _ in points) == [-3, -1, 1, 3]
    assert all(abs(w.real) < 1e-15 and m == 1 for w, m in points)
    # against itself every zero keeps its multiplicity 2
    assert [m for _, m in shared_zeros(square, square, [10.0])] == [2] * 4
    # over e^{-z}: 1 + e^{-z} has the zeros of 1 + e^z, reversed as w + 1
    assert shared_zeros(square, ONE + unit(-z()), [10.0]) == points


def test_sums_without_a_zero_structure_are_refused():
    trinomial = ONE + unit(z()) + unit(z() ** 2)
    with pytest.raises(InvalidInput, match="explicit zero structures"):
        shared_zeros(trinomial, ONE + unit(z()), [5.0])


def _float_match(zf, zg):
    """The float match that shared_zeros used for exp-sums before its exact
    route: each zero of f pairs with the first unused zero of g within
    1e-8 max(1, |z|)."""
    shared, used = [], [False] * len(zg)
    for w, m in zf:
        for k, (v, mv) in enumerate(zg):
            if not used[k] and abs(w - v) <= 1e-8 * max(1.0, abs(w)):
                used[k] = True
                shared.append((w, min(m, mv)))
                break
    return shared


def _gauss(rng, k=2):
    return GaussRat(rng.randint(-k, k), rng.randint(-k, k))


def _linear(rng):
    """a w + b with Gaussian-integer a, b != 0."""
    a, b = _gauss(rng), _gauss(rng)
    while not a or not b:
        a, b = _gauss(rng), _gauss(rng)
    return SparsePoly(1, {(1,): a, (0,): b})


def _draw(rng):
    """p(e^{lam z}) and q(e^{rho lam z}) with Gaussian-integer coefficients,
    sharing the root u0 = s of u = e^{lam z / b} (rho = a / b) in most draws."""
    a, b = rng.choice([(1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (1, 2), (-1, 2)])
    lam = rng.choice([GaussRat(1), GaussRat(0, 1), GaussRat(1, 1), GaussRat(2)])
    w = SparsePoly.variable(0, 1)
    p, q = _linear(rng), _linear(rng)
    if rng.random() < 0.75:
        s = _gauss(rng)
        while not s or s == GaussRat(1):
            s = _gauss(rng)
        p = p * (w - s**b) ** rng.randint(1, 2)
        q = q * ((w - s**a) if a > 0 else (w.scale(s ** -a) - 1)) ** rng.randint(1, 2)
    D = z().scale(lam)
    return unit_poly(p, D), unit_poly(q, D.scale(GaussRat(Fraction(a, b))))


def _far_apart(points, r):
    """Every two zeros coincide (to 1e-8) or lie 1e-3 apart, and every zero
    lies 1e-3 away from the circle |z| = r."""
    for i, w in enumerate(points):
        if abs(abs(w) - r) < 1e-3:
            return False
        for v in points[:i]:
            if 1e-8 * max(1.0, abs(w)) < abs(w - v) < 1e-3:
                return False
    return True


def test_exact_route_agrees_with_the_float_match_on_separated_zeros():
    rng = random.Random(20261019)
    checked = shared = 0
    while checked < 40:
        f, g = _draw(rng)
        r = rng.choice([4.0, 7.5, 12.0])
        zf, zg = f.zeros_in_disk(r), g.zeros_in_disk(r)
        if not _far_apart([w for w, _ in zf + zg], r):
            continue
        want = _float_match(zf, zg)
        got = shared_zeros(f, g, [r])
        assert len(got) == len(want), (f, g, r)
        for w, m in got:
            [mv] = [mv for v, mv in want if abs(w - v) <= 1e-12 * max(1.0, abs(w))]
            assert m == mv, (f, g, r, w)
        checked += 1
        shared += bool(got)
    # most draws share a lattice, so both branches of the comparison are exercised
    assert 10 < shared < checked


def _unit_polynomial_reference(fn):
    """ExpSumFn._as_unit_polynomial before the common-unit rule: the ratio of
    each exponent difference to the first nonzero one, and their lcm."""
    if len(fn.terms) < 2:
        return None
    if not all(n.is_constant() and d.is_constant() for n, d, _ in fn.terms):
        return None
    base = fn.terms[0][2]
    diffs = [q - base for _, _, q in fn.terms]
    if any(d.degree_in(0) > 1 for d in diffs):
        return None
    nonzero = [d for d in diffs if d]
    if not nonzero or any(d.degree_in(0) < 1 for d in nonzero):
        return None
    D0 = nonzero[0]
    lead0 = D0.coeffs_in(0)[1].constant_value()
    ratios = []
    for d in diffs:
        if not d:
            ratios.append(Fraction(0))
            continue
        ratio = d.coeffs_in(0)[1].constant_value() / lead0
        if not ratio.is_rational() or d != D0.scale(ratio):
            return None
        ratios.append(ratio.re)
    denom = math.lcm(*(f.denominator for f in ratios))
    powers = [int(f * denom) for f in ratios]
    terms = {}
    for (n, d, _), m in zip(fn.terms, powers):
        key = (m - min(powers),)
        terms[key] = terms.get(key, GaussRat(0)) + n.constant_value() / d.constant_value()
    poly_w = SparsePoly(1, terms)
    if not poly_w or poly_w.degree_in(0) < 1:
        return None
    return poly_w, D0.scale(GaussRat(Fraction(1, denom)))


def _two_units_reference(f, g, radii):
    """The two-unit branch of shared_zeros before the common-unit rule:
    D_g = (a/b) D_f, both sides rewritten over e^{D_f / b}."""
    (p, Df), (q, Dg) = _unit_polynomial_reference(f), _unit_polynomial_reference(g)
    ff, fg = dict(squarefree_decompose(p)), dict(squarefree_decompose(q))
    ratio = Dg.coeffs_in(0)[1].constant_value() / Df.coeffs_in(0)[1].constant_value()
    if not ratio.is_rational():
        raise InvalidInput("no rational ratio")
    if Dg != Df.scale(ratio):
        return []
    a, b = ratio.re.numerator, ratio.re.denominator
    ff = {_inflate(h, b): k for h, k in ff.items()}
    fg = {_inflate(h, a): k for h, k in fg.items()}
    unit = Df.scale(GaussRat(1) / b)
    return [(w, m) for h, m in _shared_basis(ff, fg)
            for w, _ in exp_lattice(h, unit, max(radii))]


def _exponent_draw(rng):
    """An exp-sum of 1-4 terms c e^{k D + c0}: D linear with a Gaussian
    slope, k rational or (rarely) i, c0 mostly 0, the coefficient rarely
    not constant and the exponent rarely quadratic."""
    D = SparsePoly(1, {(1,): rng.choice([GaussRat(1), GaussRat(-2), GaussRat(1, 1),
                                         GaussRat(Fraction(2, 3))]),
                       (0,): rng.choice([GaussRat(0), GaussRat(0), GaussRat(1)])})
    ks = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
          Fraction(3, 2), Fraction(2), Fraction(-5, 3), Fraction(3)]
    terms = []
    for _ in range(rng.randint(1, 4)):
        q = D.scale(GaussRat(rng.choice(ks)))
        roll = rng.random()
        if roll < 0.08:
            q = q + SparsePoly.constant(rng.choice([1, -1, GaussRat(0, 1)]), 1)
        elif roll < 0.12:
            q = D.scale(GaussRat(0, 1))
        elif roll < 0.15:
            q = q + z() ** 2
        num = SparsePoly.constant(_gauss(rng) or GaussRat(1), 1)
        if rng.random() < 0.05:
            num = num * (z() + 1)
        terms.append((num, SparsePoly.constant(rng.choice([1, 2, 3]), 1), q))
    return ExpSumFn.from_terms(terms)


def test_unit_polynomials_match_the_ratio_and_lcm_route():
    rng = random.Random(31)
    found = 0
    for _ in range(400):
        f = _exponent_draw(rng)
        got, want = f._as_unit_polynomial(), _unit_polynomial_reference(f)
        assert got == want, f.terms
        found += got is not None
    # both outcomes are drawn often
    assert 100 < found < 300, found


def test_shared_zeros_of_two_units_match_the_ratio_route():
    """Seeded unit-polynomial pairs over rational ratios (negative ones too),
    with a constant offset (nothing shared) or a non-real ratio (refused)."""
    rng = random.Random(32)
    kinds = []
    for _ in range(60):
        f, g = _draw(rng)
        kind = rng.choice(["ratio", "ratio", "offset", "non-real"])
        q, Dg = _unit_polynomial_reference(g)
        if kind == "offset":
            g = unit_poly(q, Dg + SparsePoly.constant(rng.choice([1, GaussRat(0, 2)]), 1))
        elif kind == "non-real":
            g = unit_poly(q, Dg.scale(GaussRat(0, 1)))
        r = rng.choice([4.0, 7.5])
        if kind == "non-real":
            with pytest.raises(InvalidInput, match="no rational ratio"):
                _two_units_reference(f, g, [r])
            with pytest.raises(InvalidInput, match="no rational ratio"):
                shared_zeros(f, g, [r])
        else:
            want = _two_units_reference(f, g, [r])
            assert shared_zeros(f, g, [r]) == want, (f, g, r)
            kinds.append((kind, bool(want)))
    assert {("ratio", True), ("ratio", False), ("offset", False)} <= set(kinds), kinds
