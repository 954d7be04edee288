import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from workbench.algebra import roots
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly, random_poly
from workbench.algebra.roots import (
    ENCLOSURE_RADIUS,
    cauchy_root_bound,
    factor_linear_forms,
    roots_certified,
)
from workbench.algebra.squarefree import squarefree_decompose
from workbench.errors import EnclosureError

from conftest import count_calls, variables


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


# -- float-seeded path ---------------------------------------------------------

UNITS = (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1))


def _dense(rng, degree):
    """Every power up to ``degree`` with a Gaussian unit coefficient."""
    return SparsePoly(1, {(i,): rng.choice(UNITS) for i in range(degree + 1)})


def _integer(rng, degree, size):
    return SparsePoly(1, {(i,): GaussRat(rng.randrange(-size, size + 1)) for i in range(degree + 1)})


def _linear(c):
    return t() - SparsePoly.constant(c, 1)


def _differential_draws(seed, count, degrees):
    """Dense Gaussian draws, real polynomials with rational real roots, roots
    at exactly +-1 and +-i, and repeated factors, in turn.  Each draw has a
    squarefree factor of a degree in ``degrees``, give or take 4."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        kind = len(draws) % 4
        degree = rng.choice(degrees)
        if kind == 0:
            f = _dense(rng, degree)
        elif kind == 1:
            k = rng.randrange(2, 5)
            f = _integer(rng, max(degree - k, 2), 5)
            for _ in range(k):
                f = f * _linear(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))
        elif kind == 2:
            f = SparsePoly(1, {(i,): GaussRat(rng.randrange(-4, 5), rng.randrange(-1, 2))
                               for i in range(max(degree - 2, 3))})
            for c in rng.sample(UNITS, 2):
                f = f * _linear(c) ** rng.randrange(1, 3)
        else:
            f = _integer(rng, max(degree - 2, 3), 6) * _integer(rng, 2, 6) ** 2
        if f.degree_in(0) >= 2:
            draws.append(f)
    return draws


def _no_seeds(*_):
    raise EnclosureError("no float seeds")


def _certify(f, monkeypatch, seeded: bool):
    """roots_certified(f) on a cold cache; without ``seeded`` every seeded
    attempt finds no seeds, so the polyroots ladder alone runs."""
    roots_certified.cache_clear()
    with monkeypatch.context() as m:
        if not seeded:
            m.setattr(roots, "_seeded_roots", _no_seeds)
        out = roots_certified(f).roots
    roots_certified.cache_clear()
    return out


@pytest.mark.parametrize("degree", [20, 34])
def test_seeded_draws_never_call_polyroots(monkeypatch, degree):
    calls = count_calls(monkeypatch, mpmath, "polyroots")
    rng = random.Random(f"seeded/{degree}")
    roots_certified.cache_clear()
    for _ in range(2):
        got = roots_certified(_dense(rng, degree))
        assert sum(d.multiplicity for d in got.roots) == degree
    assert calls == []


def test_low_degrees_stay_on_polyroots(monkeypatch):
    calls = count_calls(monkeypatch, mpmath, "polyroots")
    roots_certified.cache_clear()
    roots_certified(_dense(random.Random("seeded/9"), 9))
    roots_certified.cache_clear()
    assert len(calls) == 1


def test_repeated_seed_falls_back_to_polyroots(monkeypatch):
    f = _dense(random.Random(7), 20)
    expected = _certify(f, monkeypatch, seeded=False)
    real = np.roots

    def repeated(coeffs):
        seeds = real(coeffs)
        seeds[1] = seeds[0]  # two seeds converge to one root: disks overlap
        return seeds

    monkeypatch.setattr(roots.np, "roots", repeated)
    calls = count_calls(monkeypatch, mpmath, "polyroots")
    assert _certify(f, monkeypatch, seeded=True) == expected
    assert len(calls) == 1


def test_overflowing_coefficients_certify_through_polyroots(monkeypatch):
    # the squarefree step makes factors monic, so the overflow has to survive
    # that: 10^320 does not fit a float
    f = (t() ** 2 + GaussRat(10**320)) * (t() ** 15 - 2)
    with pytest.raises(EnclosureError, match="no float seeds"):
        roots._solve_squarefree(roots._univar_coeffs(f), 40, True)
    calls = count_calls(monkeypatch, mpmath, "polyroots")
    got = _certify(f, monkeypatch, seeded=True)
    seeded_calls = len(calls)
    assert got == _certify(f, monkeypatch, seeded=False)
    # the same polyroots ladder ran on both paths
    assert seeded_calls and len(calls) == 2 * seeded_calls
    assert sum(d.multiplicity for d in got) == 17


def test_seeded_and_polyroots_paths_agree(monkeypatch):
    # the shipped configuration: a factor of degree >= _MIN_SEEDED_DEGREE
    calls = count_calls(monkeypatch, mpmath, "polyroots")
    for f in _differential_draws(20241018, 16, range(21, 35)):
        seeded = _certify(f, monkeypatch, True)
        assert calls == [], f  # the seeded attempt certified
        assert seeded == _certify(f, monkeypatch, False), f
        calls.clear()


def test_seeded_solver_agrees_with_polyroots_at_low_degrees():
    for f in _differential_draws(20241019, 64, (3, 5, 7, 9)):
        for p, _ in squarefree_decompose(f):
            coeffs = roots._univar_coeffs(p)
            if len(coeffs) > 2:
                # roots_certified orders the disks itself
                seeded, plain = (sorted(roots._solve_squarefree(coeffs, 40, s),
                                        key=lambda r: (r[0].real, r[0].imag))
                                 for s in (True, False))
                assert seeded == plain, f
