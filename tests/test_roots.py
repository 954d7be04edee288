from fractions import Fraction

import mpmath
import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly, random_poly
from workbench.algebra.roots import (
    ENCLOSURE_RADIUS,
    cauchy_root_bound,
    factor_linear_forms,
    roots_certified,
)

from conftest import variables


def t():
    return SparsePoly.variable(0, 1)


def test_quadratic_units():
    r = roots_certified(t() ** 2 + 1)
    centers = sorted((round(c.real, 9), round(c.imag, 9)) for c in r.centers())
    assert centers == [(0.0, -1.0), (0.0, 1.0)]
    assert all(e.multiplicity == 1 for e in r.roots)


def test_double_zero_root_is_exact():
    r = roots_certified(t() ** 2)
    ((root,),) = (r.roots,)
    assert root.exact == GaussRat(0)
    assert root.multiplicity == 2 and root.radius == 0.0


def test_half_roots():
    r = roots_certified(t() ** 2 - Fraction(1, 4))
    centers = sorted(c.real for c in r.centers())
    assert centers == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_multiplicity_sum_equals_degree(rng):
    for _ in range(20):
        f = random_poly(rng, 1, 4, max_terms=4, coeff_range=4)
        if not f or f.is_constant():
            continue
        k = rng.randrange(1, 3)
        g = f**k
        roots = roots_certified(g)
        assert roots.total_multiplicity() == g.degree_in(0)


def test_residual_bound(rng):
    # |f(center)| <= |lc| * tol * (2B)^(deg-1) with B the Cauchy bound
    tol = ENCLOSURE_RADIUS
    for _ in range(15):
        f = random_poly(rng, 1, 4, max_terms=4, coeff_range=4)
        if not f or f.degree_in(0) < 1:
            continue
        roots = roots_certified(f)
        lc = abs(complex(f.terms[max(f.terms)]))
        B = cauchy_root_bound(f)
        bound = lc * tol * (2 * B) ** max(f.degree_in(0) - 1, 0)
        for e in roots.roots:
            val = abs(complex(f.eval([e.center])))
            assert val <= max(bound, 1e-30) * 1e3 or val <= 1e-12


def test_linear_forms_circle():
    X, Y = variables(2)
    lf = factor_linear_forms(X**2 + Y**2)
    assert lf.y_multiplicity == 0
    got = sorted(round(c.imag, 9) for c in lf.slopes.centers())
    assert got == [-1.0, 1.0]


def test_linear_forms_with_y_factor():
    X, Y = variables(2)
    lf = factor_linear_forms(X**2 * Y)
    assert lf.y_multiplicity == 1
    ((root,),) = (lf.slopes.roots,)
    assert root.exact == GaussRat(0) and root.multiplicity == 2


def test_linear_forms_rational_slopes():
    X, Y = variables(2)
    lf = factor_linear_forms(X**2 - 3 * X * Y + 2 * Y**2)
    got = sorted(round(c.real, 9) for c in lf.slopes.centers())
    assert got == [1.0, 2.0]


def test_nonzero_filter():
    r = roots_certified(t() ** 3 - t())
    assert len(r.roots) == 3
    assert len(r.nonzero().roots) == 2


def _holds_a_root(disk, mp_roots) -> bool:
    """The nearest 50-digit root lies in the disk, with no slack."""
    center = mpmath.mpc(disk.center.real, disk.center.imag)
    return min(abs(r - center) for r in mp_roots) <= mpmath.mpf(disk.radius)


def test_disks_contain_their_roots_after_rounding(rng):
    # sqrt(2) lies 9.7e-17 from its float centre, far outside a radius of 1e-41
    polys = [t() ** 2 - 2]
    while len(polys) < 5:
        f = random_poly(rng, 1, 6, max_terms=5, coeff_range=4)
        if f.degree_in(0) >= 2 and f.terms.get((0,)):
            polys.append(f)
    with mpmath.workdps(50):
        for f in polys:
            coeffs = [complex(f.terms.get((k,), GaussRat(0))) for k in range(f.degree_in(0), -1, -1)]
            mp_roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)
            for disk in roots_certified(f).roots:
                assert disk.exact is not None or _holds_a_root(disk, mp_roots), (f, disk)
