import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from workbench.algebra import roots
from workbench.algebra.gaussrat import GaussRat, int_pairs
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import ENCLOSURE_RADIUS, roots_certified
from workbench.algebra.squarefree import squarefree_decompose
from workbench.errors import EnclosureError

from conftest import cauchy_root_bound, count_calls, random_poly


def t():
    return SparsePoly.variable(0, 1)


def test_quadratic_units():
    r = roots_certified(t() ** 2 + 1)
    centers = sorted((round(e.center.real, 9), round(e.center.imag, 9)) for e in r.roots)
    assert centers == [(0.0, -1.0), (0.0, 1.0)]
    assert all(e.multiplicity == 1 for e in r.roots)


def test_double_zero_root_is_exact():
    r = roots_certified(t() ** 2)
    ((root,),) = (r.roots,)
    assert root.exact == GaussRat(0)
    assert root.multiplicity == 2 and root.radius == 0.0


def test_half_roots():
    r = roots_certified(t() ** 2 - Fraction(1, 4))
    centers = sorted(e.center.real for e in r.roots)
    assert centers == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_multiplicity_sum_equals_degree(rng):
    for _ in range(20):
        f = random_poly(rng, 1, 4, max_terms=4, coeff_range=4)
        if not f or f.is_constant():
            continue
        k = rng.randrange(1, 3)
        g = f**k
        roots = roots_certified(g)
        assert sum(e.multiplicity for e in roots.roots) == g.degree_in(0)


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
            val = abs(f.compose([e.center], complex))
            assert val <= max(bound, 1e-30) * 1e3 or val <= 1e-12


def test_nonzero_filter():
    r = roots_certified(t() ** 3 - t())
    assert len(r.roots) == 3
    assert len([e for e in r.roots if not (e.exact is not None and not e.exact)]) == 2


def _holds_a_root(disk, mp_roots) -> bool:
    """The nearest 80-digit root lies in the disk, with no slack."""
    center = mpmath.mpc(disk.center.real, disk.center.imag)
    return min(abs(r - center) for r in mp_roots) <= mpmath.mpf(disk.radius)


def _wide_scale(rng):
    """10^k A + B with k in [45, 52]: A has two or three distinct integer
    roots, and B's small coefficients b sit on A's support.  At 40 digits
    each a 10^k + b rounds to a 10^k exactly, so the rounded polynomial's
    roots are A's, floats that miss the true roots by about 10^-k."""
    k = rng.randrange(45, 53)
    A = SparsePoly.one(1)
    for r in rng.sample([r for r in range(-5, 6) if r], rng.randrange(2, 4)):
        A = A * _linear(r)
    B = SparsePoly(1, {e: GaussRat(rng.randrange(1, 10)) for e in A.terms})
    return A.scale(GaussRat(10**k)) + B


def test_disks_contain_their_roots_after_rounding(rng):
    # sqrt(2) lies 9.7e-17 from its float centre, far outside a radius of 1e-41;
    # at 40 digits 10^60 + 1 rounds to 10^60, so p(+-1) evaluates to 0 there,
    # while the roots +-sqrt(1 + 10^-60) lie 5e-61 from +-1
    polys = [t() ** 2 - 2, 10**60 * t() ** 2 - (10**60 + 1), _wide_scale(random.Random(60))]
    while len(polys) < 7:
        f = random_poly(rng, 1, 6, max_terms=5, coeff_range=4)
        if f.degree_in(0) >= 2 and f.terms.get((0,)):
            polys.append(f)
    with mpmath.workdps(80):
        for f in polys:
            coeffs = [roots._to_mpc(c) for c in reversed(roots._univar_coeffs(f))]
            mp_roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
            for disk in roots_certified(f).roots:
                assert disk.exact is not None or _holds_a_root(disk, mp_roots), (f, disk)


def _value_and_slope(coeffs, zr, zi):
    """p(z) and p'(z) at z = zr + zi i as (re, im) Fraction pairs, from the
    GaussRat coefficients, term by term."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    p = dp = (Fraction(0), Fraction(0))
    power = (Fraction(1), Fraction(0))  # z^k
    for k, c in enumerate(coeffs):
        term = mul((c.re, c.im), power)
        p = (p[0] + term[0], p[1] + term[1])
        if k + 1 < len(coeffs):
            slope = mul(((k + 1) * coeffs[k + 1].re, (k + 1) * coeffs[k + 1].im), power)
            dp = (dp[0] + slope[0], dp[1] + slope[1])
        power = mul(power, (zr, zi))
    return p, dp


@pytest.mark.parametrize("dps", [40, 640])
def test_radius_is_exact(dps):
    # sparse factors, coefficients of wide scale, and points from 0 to 10^160
    polys = [t() ** 15 - 2, (t() ** 2 + 10**320) * (t() ** 15 - 2),
             Fraction(1, 10**60) * t() ** 7 + 10**40 * t() ** 2 - 3]
    for f in polys:
        coeffs = roots._univar_coeffs(f)
        pairs, n = int_pairs(coeffs)[1], len(coeffs) - 1
        for z in (0j, 1.1 + 0.3j, 1e160j, 2 ** (1 / 15) + 0j):
            dyadic = roots._dyadic(z)
            got = roots._radius(pairs, dyadic)
            p, dp = _value_and_slope(coeffs, Fraction(z.real), Fraction(z.imag))
            slope2 = dp[0] ** 2 + dp[1] ** 2
            if not slope2:  # p'(0) = 0 on each of them
                assert got is None, (f, z)
                continue
            want = n * n * (p[0] ** 2 + p[1] ** 2) / slope2
            assert Fraction(*got) == want, (f, z)
            with mpmath.workdps(dps):
                stored = Fraction(roots._enclosure(dyadic, got, 1, None).radius)
            assert stored * stored >= want, (f, z)


@pytest.mark.parametrize("f, calls", [(t() ** 3 - 2 * 10**60, 3), (t() ** 2 - 2 * 10**80, 2)])
def test_newton_stops_relative_to_the_root(monkeypatch, f, calls):
    # the roots have |z| of about 10^20 and 10^40, and polyroots gives them
    # to the working precision, so one Newton step per root meets the stop
    # test of 10^-32 |z|; a stop test of 10^-32 in absolute terms takes a
    # second step per root (6 and 4 Horner passes)
    horner = count_calls(monkeypatch, roots, "_fixed_point_values")
    roots_certified.cache_clear()
    got = roots_certified(f)
    roots_certified.cache_clear()
    assert sum(d.multiplicity for d in got.roots) == f.degree_in(0)
    assert len(horner) == calls


# -- exact roots -----------------------------------------------------------------

I = GaussRat(0, 1)
# irreducible over Q(i), so no root in Q(i); x^2 + 1 is left out: it is (x - i)(x + i)
QUADRATICS = (t() ** 2 - 3, t() ** 2 - 7, t() ** 2 + t() + 1)


def _exact_roots(f) -> dict:
    """{exact value: multiplicity} over the disks, checking that every exact
    disk is the point at its value's float."""
    out = {}
    for d in roots_certified(f).roots:
        if d.exact is not None:
            assert d.radius == 0.0 and d.center == complex(d.exact), d
            out[d.exact] = d.multiplicity
    return out


def test_exact_on_exactly_the_gaussian_rational_roots():
    rng = random.Random(20261019)
    for draw in range(20):
        # two draws have a factor of degree >= 17, solved from float seeds;
        # smaller denominators keep their squarefree step short
        seeded = draw in (9, 19)
        count, top = (16, 10**3) if seeded else (rng.randrange(1, 5), 10**6)
        values = {}
        while len(values) < count:
            den = rng.randrange(1, top + 1)
            v = GaussRat(Fraction(rng.randrange(-3 * den, 3 * den + 1), den),
                         Fraction(rng.randrange(-3 * den, 3 * den + 1), den))
            values[v] = 1 if seeded else rng.choice((1, 1, 1, 2))
        f = SparsePoly.constant(GaussRat(rng.randrange(1, 9), rng.randrange(-3, 4)), 1)
        for v, m in values.items():
            f = f * _linear(v) ** m
        irrational = 0
        for q in rng.sample(QUADRATICS, rng.randrange(1, 3)):
            m = rng.choice((1, 1, 2))
            f, irrational = f * q**m, irrational + 2 * m
        got = roots_certified(f).roots
        assert _exact_roots(f) == values, f
        assert sum(d.multiplicity for d in got if d.exact is None) == irrational


@pytest.mark.parametrize("f, values, irrational", [
    (t() ** 2 - 1, {1: 1, -1: 1}, 0),
    (25 * t() ** 2 + 5 * t() - 2, {GaussRat(Fraction(1, 5)): 1, GaussRat(Fraction(-2, 5)): 1}, 0),
    (5 * t() ** 3 - (1 + 2 * I) * t() ** 2 + 5 * t() - (1 + 2 * I),
     {I: 1, -I: 1, GaussRat(Fraction(1, 5), Fraction(2, 5)): 1}, 0),
    # the float centre of 1 + 10^-20 is 1.0
    ((10**20 * t() - (10**20 + 1)) * (t() ** 2 - 3), {1 + GaussRat(Fraction(1, 10**20)): 1}, 2),
    # 1 + 10^-60 is decided only at 80 digits
    ((10**60 * t() - (10**60 + 1)) * (t() ** 2 - 3), {1 + GaussRat(Fraction(1, 10**60)): 1}, 2),
    # 1 and 1 + 10^-20 share the float centre 1.0: one squarefree factor, then
    # two linear factors; exact enclosures are told apart by value
    ((t() - 1) * (10**20 * t() - (10**20 + 1)), {1: 1, 1 + GaussRat(Fraction(1, 10**20)): 1}, 0),
    (((t() - 1) * (10**20 * t() - (10**20 + 1))) ** 2,
     {1: 2, 1 + GaussRat(Fraction(1, 10**20)): 2}, 0),
    ((t() - 1) * (10**20 * t() - (10**20 + 1)) ** 2,
     {1: 1, 1 + GaussRat(Fraction(1, 10**20)): 2}, 0),
])
def test_exact_roots_of_named_polynomials(f, values, irrational):
    assert _exact_roots(f) == values
    assert sum(d.multiplicity for d in roots_certified(f).roots if d.exact is None) == irrational


def test_exact_roots_in_whichever_variable_occurs():
    # the univariate view is solved, so a root is exact when the only
    # occurring variable of a polynomial in several variables is not the first
    for n in (2, 3):
        for v in range(n):
            y = SparsePoly.variable(v, n)
            assert _exact_roots(y**2 + 1) == {GaussRat(0, 1): 1, GaussRat(0, -1): 1}
            assert _exact_roots(y**3 - 8) == {GaussRat(2): 1}
            assert _exact_roots(y**2 * (2 * y - 3) ** 2) == {0: 2, GaussRat(Fraction(3, 2)): 2}


def test_exactness_beyond_the_precision_ladder_is_refused():
    # |L| * radius < 1/2 needs about 700 digits, past the last attempt's
    big = GaussRat(10**700)
    with pytest.raises(EnclosureError, match="exactness test needs more than 640 digits"):
        roots_certified((big * t() - (big + 1)) * (t() ** 2 - 3))


def test_exactness_refines_a_root_past_its_attempt(monkeypatch):
    # the attempt at 40 digits certifies the disks under the relative
    # tolerance, but about 10^160 i its radius is 1.7e80 (0.053 at 80
    # digits), so |L| r >= 1/2; a refinement at 640 digits decides each
    newton = count_calls(monkeypatch, roots, "_newton")
    f = (t() ** 2 + 10**320) * (t() ** 15 - 2)
    roots_certified.cache_clear()
    assert _exact_roots(f) == {GaussRat(0, 10**160): 1, GaussRat(0, -(10**160)): 1}
    roots_certified.cache_clear()
    assert [dps for *_, dps in newton].count(640) == 2


def _mignotte_times_its_rational_root():
    """(10t - 1)(t^10 - 2(10t - 1)^2): one squarefree factor whose irrational
    roots 1/10 +- 7.07e-7 lie within 1/(2|L|) = 1/20 of its root 1/10."""
    return (10 * t() - 1) * (t() ** 10 - 2 * (10 * t() - 1) ** 2)


def test_irrational_neighbours_of_a_rational_root_stay_inexact():
    near = [d for d in roots_certified(_mignotte_times_its_rational_root()).roots
            if abs(d.center - 0.1) < 1e-3]
    assert [d.exact for d in near] == [None, GaussRat(Fraction(1, 10)), None]


def test_two_roots_given_one_exact_value_do_not_certify(monkeypatch):
    # radii of 10^-3, under a tolerance raised to match, reach from each
    # neighbour to 1/10, so all three roots pass the test for 1/10; the
    # collision leaves every attempt uncertified instead of returning three
    # disks at 1/10
    real = roots._radius

    def widened(*args):  # a radius of at least 10^-3, squared as (num, den)
        num, den = real(*args)
        return (num, den) if num * 10**6 >= den else (1, 10**6)

    monkeypatch.setattr(roots, "_radius", widened)
    monkeypatch.setattr(roots, "ENCLOSURE_RADIUS", 1e-2)
    roots_certified.cache_clear()
    with pytest.raises(EnclosureError, match="could not certify"):
        roots_certified(_mignotte_times_its_rational_root())


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


@pytest.mark.parametrize("degree", [20, 34])
def test_seeded_solves_run_newton_twice_per_root(monkeypatch, degree):
    # one integer Newton refinement of each float seed 80 bits past the
    # working precision, one final step at it, and one exact radius
    f = _dense(random.Random(f"seeded/{degree}"), degree)
    newton = count_calls(monkeypatch, roots, "_newton")
    radius = count_calls(monkeypatch, roots, "_radius")
    polyroots = count_calls(monkeypatch, mpmath, "polyroots")
    roots_certified.cache_clear()
    got = roots_certified(f)
    roots_certified.cache_clear()
    assert polyroots == [] and [d.multiplicity for d in got.roots] == [1] * degree
    assert [dps for _, _, dps in newton] == [64] * degree + [40] * degree
    assert len(radius) == degree


def test_seeded_roots_that_span_scales_agree_with_polyroots(monkeypatch):
    # roots of sizes 2^-60 and 2^40, exact and irrational, beside the unit
    # circle's: each seed takes its own fixed-point scale
    tiny, huge = GaussRat(Fraction(1, 2**60)), GaussRat(2**40)
    f = (_dense(random.Random("scales"), 18) * _linear(tiny) * _linear(huge)
         * (t() ** 2 - SparsePoly.constant(3 * tiny * tiny, 1)) * (t() ** 2 - 3 * huge * huge))
    polyroots = count_calls(monkeypatch, mpmath, "polyroots")
    seeded = _certify(f, monkeypatch, seeded=True)
    assert polyroots == []  # the seeded attempt certified
    assert seeded == _certify(f, monkeypatch, seeded=False)
    assert {d.exact for d in seeded} >= {tiny, huge}
    assert min(abs(d.center) for d in seeded if d.exact is None) < 2**-59


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


def _enclosures(p, seeded: bool):
    """The enclosures of the squarefree ``p`` at 40 digits, built as
    roots_certified builds them, in the order of their centres."""
    coeffs = roots._univar_coeffs(p)
    pairs = int_pairs(coeffs)[1]
    with mpmath.workdps(40):
        out = [roots._enclosure(z, rad2, 1, roots._gaussian_rational(p, pairs, z, rad2))
               for z, rad2 in roots._solve_squarefree(coeffs, 40, seeded)]
    return sorted(out, key=lambda d: (d.center.real, d.center.imag))


def test_seeded_solver_agrees_with_polyroots_at_low_degrees():
    for f in _differential_draws(20241019, 64, (3, 5, 7, 9)):
        for p, _ in squarefree_decompose(f):
            if p.degree_in(0) > 1:
                assert _enclosures(p, True) == _enclosures(p, False), f
