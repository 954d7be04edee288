import math
import random
from fractions import Fraction

import numpy as np
import pytest

from workbench import nevanlinna
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import roots_certified
from workbench.errors import InvalidInput, QuadratureError
from workbench.nevanlinna import (
    MeroFn,
    RadiusGrid,
    characteristic_T,
    counting_N,
    gcd_counting,
    log_derivative,
    log_derivative_T,
    proximity_m,
)

from conftest import count_calls, jensen_log_average, leading_coeff_log_abs_at_zero


def z():
    return SparsePoly.variable(0, 1)


def test_canonical_form():
    t = z()
    f = MeroFn(scalar=2, factors=[((t - 1) ** 2 * (t + 2), 1), (t - 1, 1)])
    mults = {str(p): m for p, m in f.factors}
    assert mults == {"x0 - 1": 3, "x0 + 2": 1}
    # (z-1)/(z-1) collapses to the constant 1
    g = MeroFn.from_poly(t - 1) / MeroFn.from_poly(t - 1)
    assert g.is_constant() and g.constant_value() == GaussRat(1)


@pytest.mark.parametrize("mult", [1.5, 2.0, True, "3", Fraction(3)])
def test_multiplicities_are_integers(mult):
    # refused, not truncated to z^1, counted as 1 or parsed
    with pytest.raises(InvalidInput, match="multiplicity must be an integer"):
        MeroFn(factors=[(z() ** 3, mult)])


@pytest.mark.parametrize("factors, exp_part", [
    ([(3, 1)], None),
    ([("z", 1)], None),
    ((), 3),
], ids=["int-factor", "str-factor", "int-exp"])
def test_factors_and_exp_parts_are_univariate_polynomials(factors, exp_part):
    with pytest.raises(InvalidInput, match="expected a univariate polynomial"):
        MeroFn(factors=factors, exp_part=exp_part)


def _by_order_draw(rng):
    """A scalar and up to 5 factors from 7 linear and 2 quadratic polynomials
    that share roots, with multiplicities -2..2."""
    t = z()
    i = GaussRat(0, 1)
    linear = [t, t - 1, t + 1, t - 2, t + 2, t - i, 2 * t + 1]
    quadratic = [t**2 - 1, t**2 + 1]
    factors = [(rng.choice(linear + quadratic), rng.randint(-2, 2))
               for _ in range(rng.randint(0, 5))]
    return GaussRat(rng.randint(1, 3), rng.randint(-1, 1)), factors


def test_equal_class_functions_compare_and_hash_equal():
    """One function built three ways is one value: one constructor call, a
    product of one-factor functions, and one factor per multiplicity,
    multiplied out first."""
    rng = random.Random(31)
    for _ in range(300):
        scalar, factors = _by_order_draw(rng)
        whole = MeroFn(scalar=scalar, factors=factors, exp_part=z())
        product = MeroFn(scalar=scalar, exp_part=z())
        for p, m in factors:
            product = product * MeroFn(factors=[(p, m)])
        grouped = {}
        for p, m in factors:
            grouped[m] = grouped.get(m, SparsePoly.one(1)) * p
        premultiplied = MeroFn(scalar=scalar, factors=[(p, m) for m, p in grouped.items()],
                               exp_part=z())
        assert whole == product == premultiplied, factors
        assert hash(whole) == hash(product) == hash(premultiplied), factors
        orders = [m for _, m in whole.factors]
        assert len(set(orders)) == len(orders) and 0 not in orders, factors


def test_mero_operator_examples():
    t = z()
    assert MeroFn.from_poly(t**2) * MeroFn.from_poly(t**3) == MeroFn.from_poly(t**5)
    prod = (MeroFn(scalar=1, factors=[(t, 1)], exp_part=t)
            * MeroFn(scalar=1, factors=[(t, 1)], exp_part=-t))
    assert prod == MeroFn.from_poly(t**2)
    sq = MeroFn.from_poly(t) ** -2
    assert sq.factors[0][1] == -2
    with pytest.raises(InvalidInput):
        MeroFn.from_poly(t) ** 1.5


def test_log_derivative_examples():
    t = z()
    ld = log_derivative(MeroFn.from_poly(t**3))
    assert ld.num == SparsePoly.constant(3, 1) and ld.den == t
    a = GaussRat(2, 1)
    ld = log_derivative(MeroFn.unit(t.scale(a)))
    assert ld.num == SparsePoly.constant(a, 1) and ld.den == SparsePoly.one(1)
    ld = log_derivative(MeroFn.from_poly(t * (t - 1)))
    assert ld.num == 2 * t - 1 and ld.den == t**2 - t


def test_counting_examples():
    t = z()
    f = MeroFn.from_poly(t**3)
    assert counting_N(f, "zero", math.e) == pytest.approx(3.0, abs=1e-12)
    assert counting_N(f, "zero", math.e, trunc=1) == pytest.approx(1.0, abs=1e-12)
    g = MeroFn.from_poly((t - 1) ** 2 * (t + 2))
    assert counting_N(g, "zero", 4.0, trunc=1) == pytest.approx(
        math.log(4) + math.log(2), abs=1e-12
    )


def test_counting_rejects_circle_collision():
    f = MeroFn.from_poly(z() - 1)
    with pytest.raises(InvalidInput):
        counting_N(f, "zero", 1.0)
    grid = RadiusGrid.log_spaced(0.5, 2.0, 3).perturbed_for([f])
    for r in grid.points:
        counting_N(f, "zero", r)  # no collision after perturbation


def test_counting_decides_the_origin_exactly():
    # a zero at 10^-10 is not a zero at 0: N(2) = log(2 / 10^-10)
    f = MeroFn.from_poly(z() - GaussRat(Fraction(1, 10**10)))
    assert counting_N(f, "zero", 2.0) == pytest.approx(math.log(2e10), rel=1e-12)
    # a nonzero root whose float centre underflows to 0 cannot be counted
    tiny = MeroFn.from_poly(z() - GaussRat(Fraction(1, 10**400)))
    with pytest.raises(InvalidInput, match="underflows"):
        counting_N(tiny, "zero", 2.0)


def test_proximity_examples():
    assert proximity_m(MeroFn.from_poly(z() ** 3), math.e) == pytest.approx(3.0, abs=1e-7)
    inv = MeroFn.from_poly(z()).inverse()
    assert proximity_m(inv, math.e) == pytest.approx(0.0, abs=1e-9)


def test_exponential_characteristic_closed_form():
    # T(e^{az}) = |a| r / pi
    for a in (1, 2):
        f = MeroFn.unit(z().scale(a))
        for r in (5.0, 17.0):
            got = characteristic_T(f, r)
            want = abs(a) * r / math.pi
            assert abs(got - want) <= 1e-6 * want


def test_characteristic_of_polynomial_tuple():
    one = MeroFn.constant(1)
    tup = (one, MeroFn.from_poly(z()), MeroFn.from_poly(z() ** 2))
    got = characteristic_T(tup, 50.0)
    assert got == pytest.approx(2 * math.log(50), abs=1e-6)


def test_tuple_common_zero_rejected():
    t = z()
    with pytest.raises(InvalidInput):
        characteristic_T((MeroFn.from_poly(t), MeroFn.from_poly(t**2)), 2.0)


def test_tuple_validated_once_over_grid(monkeypatch):
    # the common-zero check depends on the tuple, not on r: one gcd chain for
    # a whole grid of radii, while a failing tuple raises on every call
    nevanlinna._validate_no_common_zeros.cache_clear()
    calls = count_calls(monkeypatch, nevanlinna, "_zero_poly")
    t = z()
    tup = (MeroFn.from_poly(t - 3), MeroFn.from_poly(t**2 + 5), MeroFn.constant(1))
    for r in (2.0, 4.0, 8.0):
        characteristic_T(tup, r)
    assert len(calls) == len(tup)
    bad = (MeroFn.from_poly(t), MeroFn.from_poly(t**2))
    for r in (2.0, 4.0):
        with pytest.raises(InvalidInput):
            characteristic_T(bad, r)


def test_first_main_theorem_bound():
    # |T_f - T_{1/f}| equals log of the leading coefficient at the origin
    t = z()
    samples = [
        MeroFn(scalar=1, factors=[(t - 2, 3), (t + 1, -1)]),
        MeroFn(scalar=GaussRat("3/2"), factors=[(t**2 + 1, 2)]),
        MeroFn(scalar=GaussRat(0, 1), factors=[(t - 1, 1), (t + 3, -2)]),
        MeroFn(scalar=2, factors=[(t, 2), (t - 1, 1)]),
        MeroFn(scalar=1, factors=[(t**2 - 2, 1)]),
        MeroFn(scalar=1, factors=[(t, -1), (t - 3, 2)]),
        MeroFn(scalar=GaussRat("1/3", "1/7"), factors=[(t + 5, 1)]),
        MeroFn(scalar=1, factors=[(t**2 + t + 1, 1)], exp_part=t.scale(0)),
        MeroFn(scalar=4, factors=[(t - GaussRat(1, 1), 1)]),
        MeroFn(scalar=1, factors=[(t**3 - 8, 1)]),
    ]
    assert len(samples) == 10
    for f in samples:
        C = abs(leading_coeff_log_abs_at_zero(f)) + 1e-6
        for r in (3.7, 11.3):
            diff = characteristic_T(f, r) - characteristic_T(f.inverse(), r)
            assert abs(diff) <= C


def test_truncation_inequalities():
    t = z()
    f = MeroFn.from_poly((t - 1) ** 3 * (t + 2) ** 2 * (t**2 + 4))
    for r in (3.0, 10.0):
        N = counting_N(f, "zero", r)
        for k in (1, 2, 3):
            Nk = counting_N(f, "zero", r, trunc=k)
            assert Nk <= N + 1e-12
            assert Nk <= k * counting_N(f, "zero", r, trunc=1) + 1e-12


def test_monotone_in_radius():
    t = z()
    f = MeroFn.from_poly((t - 1) * (t + 3), )
    grid = RadiusGrid.log_spaced(0.5, 50.0, 9).perturbed_for([f])
    Ns = [counting_N(f, "zero", r) for r in grid.points]
    Ts = [characteristic_T(f, r) for r in grid.points]
    assert Ns == sorted(Ns)
    assert all(b - a > -1e-9 for a, b in zip(Ts, Ts[1:]))


def test_gcd_counting_examples():
    t = z()
    f = MeroFn.from_poly(t**2 * (t - 1))
    g = MeroFn.from_poly(t * (t - 1) ** 3)
    r = 7.0
    assert gcd_counting(f, g, r) == pytest.approx(2 * math.log(r), abs=1e-12)
    assert gcd_counting(g, f, r) == gcd_counting(f, g, r)
    assert gcd_counting(f, g, r) <= min(
        counting_N(f, "zero", r), counting_N(g, "zero", r)
    )
    assert gcd_counting(
        MeroFn.from_poly(t - 1), MeroFn.from_poly(t + 1), r
    ) == 0.0
    self_gcd = gcd_counting(MeroFn.from_poly(t**2), MeroFn.from_poly(t**2), r)
    assert self_gcd == pytest.approx(2 * math.log(r), abs=1e-12)


def test_gcd_counting_cross_factor_roots():
    # shared root through different factor polynomials (z^2+1 vs z-i)
    t = z()
    f = MeroFn.from_poly(t**2 + 1)
    g = MeroFn(scalar=1, factors=[(t - GaussRat(0, 1), 2)])
    got = gcd_counting(f, g, 5.0)
    assert got == pytest.approx(math.log(5.0), abs=1e-9)


def test_log_derivative_height_vs_plain():
    t = z()
    f = MeroFn(scalar=1, factors=[(t**2 - 1, 10)])
    ld = log_derivative(f)
    for r in (10.0, 100.0):
        Tld = log_derivative_T(ld, r)
        Tf = characteristic_T(f, r)
        assert Tld <= Tf / 10 + math.log(max(Tf, 1.0)) + 1e-9


def test_quotient_characteristic_sandwich():
    # T_{f_j/f_i} <= T_tuple + C and T_tuple <= sum_j T_{f_j/f_0} + C
    t = z()
    fns = (MeroFn.from_poly(t + 2), MeroFn.from_poly(t**2 + 1),
           MeroFn.from_poly(t**2 - t))
    grid = RadiusGrid.log_spaced(3.0, 300.0, 7).perturbed_for(list(fns))
    C = 3.0  # bounded comparison constant for this sample
    for r in grid.points:
        T = characteristic_T(fns, r)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                Tq = characteristic_T(fns[j] / fns[i], r)
                assert Tq <= T + C
        total = sum(characteristic_T(fns[j] / fns[0], r) for j in range(3))
        assert T <= total + C


def test_jensen_oracle_matches_quadrature():
    t = z()
    p = (t - 1) ** 2 * (t + 3)
    from workbench.nevanlinna import circle_average

    def logabs(zs):
        import numpy as np

        return MeroFn.from_poly(p).log_abs(zs)

    for r in (2.5, 9.0):
        got, _ = circle_average(logabs, r)
        assert got == pytest.approx(jensen_log_average(p, r), abs=1e-7)


def test_constructor_decomposes_each_factor_once(monkeypatch):
    t = z()
    calls = count_calls(monkeypatch, nevanlinna, "squarefree_decompose")
    f = MeroFn(scalar=3, factors=[((t - 1) ** 2 * (2 * t + 4), 1), (t**2 + 1, -2), (t, 3)])
    assert len(calls) == 3
    # the unit of each factor (its leading coefficient) lands in the scalar
    assert f.scalar == GaussRat(6)


def test_operators_on_canonical_operands_do_not_decompose(monkeypatch):
    t = z()
    f = MeroFn(scalar=2, factors=[((t - 1) ** 2 * (t + 2), 1)], exp_part=t)
    g = MeroFn(scalar=GaussRat(0, 1), factors=[(t**2 + 1, -1), (t - 1, 1)])
    calls = count_calls(monkeypatch, nevanlinna, "squarefree_decompose")
    results = [f * g, f / g, f.inverse(), f**3, g**-2]
    assert calls == []
    assert dict(results[0].factors) == {t - 1: 3, t + 2: 1, t**2 + 1: -1}
    assert results[1] * g == f


def test_root_cache_is_bounded_and_hits_on_equal_polynomials():
    info = roots_certified.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    p = z() ** 3 - 11 * z() + 13
    MeroFn.from_poly(p).divisor()
    before = roots_certified.cache_info()
    # a fresh object caches no divisor of its own, so this goes to the root cache
    MeroFn.from_poly(z() ** 3 - 11 * z() + 13).divisor()
    after = roots_certified.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


# ---------------------------------------------------------------------------
# exact circle averages of exp-affine functions and tuples
# ---------------------------------------------------------------------------

def exp_affine(c, lam, mu=0):
    """c * exp(lam z + mu) as a class function."""
    t = z()
    return MeroFn(scalar=c, exp_part=t.scale(GaussRat.coerce(lam)) + SparsePoly.constant(mu, 1))


def test_exact_proximity_of_exp_affine_functions():
    # m(r, c e^{lam z + mu}) with a = |lam| r, b = log|c| + Re mu
    cases = [(GaussRat(1, -5), GaussRat(2, 1), 0, 200.0), (3, GaussRat(0, -1), 1, 2.5),
             (GaussRat(1, 7), 1, GaussRat(-2, 3), 0.5), (1, 2, 9, 4.0), (5, 0, 0, 3.0)]
    for c, lam, mu, r in cases:
        a = abs(complex(GaussRat.coerce(lam))) * r
        b = math.log(abs(complex(GaussRat.coerce(c)))) + float(GaussRat.coerce(mu).re)
        if abs(b) < a:
            want = (math.sqrt(a * a - b * b) + b * math.acos(-b / a)) / math.pi
        else:
            want = max(b, 0.0)
        got = proximity_m(exp_affine(c, lam, mu), r)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
    for lam in (1, GaussRat(3, -4), GaussRat(0, 2)):
        for r in (5.0, 17.0, 200.0):
            want = abs(complex(GaussRat.coerce(lam))) * r / math.pi
            assert characteristic_T(exp_affine(1, lam), r) == pytest.approx(want, rel=1e-14)


def test_exact_tuple_characteristic_is_the_steinmetz_perimeter():
    # T(r, [e^{lam_i z}]) = r * perimeter(conv{lam_i}) / (2 pi)
    one = MeroFn.constant(1)
    for r in (1.0, 7.5, 200.0):
        got = characteristic_T((one, exp_affine(1, 1), exp_affine(1, 2)), r)
        assert got == pytest.approx(2 * r / math.pi, rel=1e-14)
        got = characteristic_T((one, exp_affine(1, 1), exp_affine(1, GaussRat(0, 1))), r)
        assert got == pytest.approx(r * (2 + math.sqrt(2)) / (2 * math.pi), rel=1e-14)


def _mp_gauss(q: GaussRat):
    import mpmath

    return mpmath.mpc(mpmath.mpf(q.re.numerator) / q.re.denominator,
                      mpmath.mpf(q.im.numerator) / q.im.denominator)


def _scan_breaks(terms, nodes=1 << 14):
    """Angles where the maximal term changes, found without the kernel: a
    uniform scan of the argmax, then bisection on each bracket in floats."""
    def values(t):
        t = np.asarray(t, dtype=float)
        return np.array([sum((np.real(complex(w) * np.exp(1j * k * t)) for k, w in enumerate(ws, 1)),
                             np.full_like(t, float(b)))
                         for b, ws in terms])

    ts = np.linspace(0.0, 2 * math.pi, nodes + 1)
    top = np.argmax(values(ts), axis=0)
    cuts = []
    for n in np.nonzero(top[1:] != top[:-1])[0]:
        i, j = top[n], top[n + 1]
        lo, hi = ts[n], ts[n + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v = values([mid])[:, 0]
            lo, hi = (mid, hi) if v[i] >= v[j] else (lo, mid)
        cuts.append(0.5 * (lo + hi))
    return [0.0, *cuts, 2 * math.pi]


def _mp_logmax(fns, r, positive_part):
    """30-digit mpmath.quad of the average of log max |f_i| (or log+ |f|) for
    class functions c e^{Q}, from their exact data, split where the maximal
    term changes (``_scan_breaks``)."""
    import mpmath

    with mpmath.workdps(30):
        terms = []
        for f in fns:
            if f.is_zero():
                continue
            ex = f.exp_part.terms
            b = mpmath.log(abs(_mp_gauss(f.scalar))) + _mp_gauss(ex.get((0,), GaussRat(0))).real
            terms.append((b, [_mp_gauss(ex.get((k,), GaussRat(0))) * mpmath.mpf(r) ** k
                              for k in range(1, f.exp_part.degree_in(0) + 1)]))
        if positive_part:
            terms.append((mpmath.mpf(0), []))

        def integrand(t):
            e = mpmath.expj(t)
            return max(b + sum((w * e**k).real for k, w in enumerate(ws, 1)) for b, ws in terms)

        return float(mpmath.quad(integrand, _scan_breaks(terms)) / (2 * mpmath.pi))


def _draw_exp_affine(rng, small=False):
    def rat(k):
        return GaussRat(rng.randint(-k, k), rng.randint(-k, k))

    c = rat(6)
    while not c:
        c = rat(6)
    lam = rat(1) if small else GaussRat(rng.randint(-3, 3), rng.randint(-3, 3)) / rng.randint(1, 3)
    return exp_affine(c, lam, rat(2))


def test_exact_route_matches_mpmath_quadrature(rng):
    one = MeroFn.constant(1)
    edge_tuples = [  # at r = 3
        (exp_affine(1, 1), exp_affine(2, 1), one),                   # equal lam, different c
        (MeroFn.constant(2), MeroFn.constant(GaussRat(0, 3)), one),  # all lam = 0
        (exp_affine(1, 1, -3), one),                                 # tangent: |b_i - b_j| = |D| = 3
        (exp_affine(1, GaussRat(3, 4), 15), exp_affine(1, GaussRat(0, 1)), one),  # tangent at 15
        (exp_affine(1, 1), exp_affine(1, 1), one),                   # duplicate components
        (MeroFn.constant(0), exp_affine(1, GaussRat(1, 1)), one),    # a zero component
    ]
    cases = [(tup, 3.0) for tup in edge_tuples]
    for _ in range(40):
        k = rng.randint(1, 4)
        tup = tuple(_draw_exp_affine(rng, small=rng.random() < 0.3) for _ in range(k))
        cases.append((tup, rng.choice((0.5, 3.0, 20.0, 200.0))))
    for tup, r in cases:
        if len(tup) > 1:
            got = characteristic_T(tup, r)
            want = _mp_logmax(tup, r, positive_part=False)
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (tup, r)
        for f in tup:
            if f.is_zero():
                continue
            got = proximity_m(f, r)
            want = _mp_logmax((f,), r, positive_part=True)
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), (f, r)
    # the reported error is a rounding bound, far below the comparison tolerance
    value, err = nevanlinna.max_harmonic_average([(0.0, [2 + 1j]), (0.5, [])], 200.0)
    assert 0 < err <= 1e-11 * (1 + abs(value))


# ---------------------------------------------------------------------------
# exact circle averages of exp-polynomial functions and tuples
# ---------------------------------------------------------------------------

def test_characteristic_of_exp_z_power_is_r_power_over_pi():
    # T(r, [1 : e^{z^k}]) = r^k / pi (Hayman, Meromorphic Functions, ch. 1)
    one = MeroFn.constant(1)
    for k in (2, 3):
        f = MeroFn.unit(z() ** k)
        for r in (0.5, 7.5, 60.0):
            want = r**k / math.pi
            assert characteristic_T((one, f), r) == pytest.approx(want, rel=1e-13)
            assert characteristic_T(f, r) == pytest.approx(want, rel=1e-13)
            value, err = nevanlinna.max_harmonic_average(
                [one.exp_harmonic, f.exp_harmonic], r)
            assert abs(value - want) <= err <= 1e-12 * want


def test_a_missed_breakpoint_raises(monkeypatch):
    # without breakpoints the one arc's midpoint winner, 1, is not maximal at
    # its ends, where e^{z^3} is
    terms = [f.exp_harmonic for f in (MeroFn.constant(1), MeroFn.unit(z() ** 3))]
    monkeypatch.setattr(nevanlinna, "_harmonic_breaks", lambda terms, r: set())
    with pytest.raises(QuadratureError, match="missed a breakpoint"):
        nevanlinna.max_harmonic_average(terms, 7.5)


def _draw_exp_harmonic(rng):
    """c exp(Q) with Gaussian-rational c and Q of degree 1 to 3."""
    def rat(k, den=1):
        return GaussRat(rng.randint(-k, k), rng.randint(-k, k)) / rng.randint(1, den)

    c = rat(6)
    while not c:
        c = rat(6)
    q = SparsePoly.constant(rat(2), 1)
    for k in range(1, rng.randint(1, 3) + 1):
        q = q + (z() ** k).scale(rat(3, 3))
    return MeroFn(scalar=c, exp_part=q)


def test_harmonic_kernel_is_within_its_bound_of_mpmath(rng):
    # the reference splits where a fine scan sees the maximal term change, so
    # a breakpoint that the kernel misses shows as a difference beyond err
    one = MeroFn.constant(1)
    cases = [((one, MeroFn.unit(z()), MeroFn.unit(z() ** 2)), r) for r in (3.0, 19.5, 60.0)]
    for _ in range(30):
        tup = tuple(_draw_exp_harmonic(rng) for _ in range(rng.randint(1, 3)))
        cases.append((tup + (one,), rng.choice((0.5, 3.0, 7.5, 20.0))))
    for tup, r in cases:
        terms = [f.exp_harmonic for f in tup]
        value, err = nevanlinna.max_harmonic_average(terms, r)
        want = _mp_logmax(tup, r, positive_part=False)
        assert abs(value - want) <= err <= 1e-11 * (1 + abs(want)), (tup, r, value - want, err)
        assert characteristic_T(tup, r) == value


def test_extreme_scalars_take_their_exact_logarithm():
    # log|c| from the integer triple of c: no float conversion of 10^400 or 10^-400
    big, tiny = GaussRat(10**400), GaussRat(1) / 10**400
    log_big = 400 * math.log(10)
    t = z()
    one = MeroFn.constant(1)
    # b = log|c| outside [-r, r]: no crossing, T = b and m = 0
    assert characteristic_T((one, MeroFn(scalar=big, exp_part=t)), 5.0) == pytest.approx(
        log_big, rel=1e-15)
    assert proximity_m(MeroFn(scalar=tiny, exp_part=t**2), 5.0) == 0.0
    # with a polynomial factor the trapezoid samples log|c| + log|z - 1|, and
    # the circle average of log|z - 1| is log 5 (Jensen)
    f = MeroFn(scalar=big, factors=[(t - 1, 1)])
    assert proximity_m(f, 5.0) == pytest.approx(log_big + math.log(5.0), rel=1e-12)
    assert proximity_m(MeroFn(scalar=tiny, factors=[(t - 1, 1)]), 5.0) == 0.0
    assert f.log_abs(np.array([2.0])) == pytest.approx([log_big], rel=1e-15)


@pytest.mark.parametrize("scenario", ["gcd_bound_units", "gcd_bound_shared_lattice",
                                      "gcd_bound_degenerate"])
def test_gcd_bound_scenarios_run_without_quadrature(monkeypatch, scenario):
    from workbench import harness

    calls = count_calls(monkeypatch, nevanlinna, "circle_average")
    harness.run_scenario(harness.load_scenario(harness.shipped_scenario_dir() / f"{scenario}.json"))
    assert calls == []


def test_non_harmonic_functions_keep_the_quadrature(monkeypatch):
    from workbench import harness
    from workbench.expsum import ExpSumFn

    calls = count_calls(monkeypatch, nevanlinna, "circle_average")
    t = z()
    one, square = MeroFn.constant(1), MeroFn.unit(t**2)
    proximity_m(MeroFn(scalar=1, factors=[(t - 1, 1)], exp_part=t), 4.0)
    characteristic_T((one, MeroFn.from_poly(t + 2)), 4.0)
    characteristic_T((ExpSumFn.of(one), ExpSumFn.of(MeroFn.from_poly(t + 2))), 4.0)
    log_derivative_T(log_derivative(square), 4.0)
    assert len(calls) == 4
    # smt_exp_units runs on [1 : e^z : e^{z^2}]: its characteristic rows are
    # exact, and only the Jensen counts of 1 + e^{2z} + e^{2z^2} sample
    s = harness.load_scenario(harness.shipped_scenario_dir() / "smt_exp_units.json")
    del calls[:]
    for r in s.params["grid"].points:
        characteristic_T(s.curve, r)
    assert calls == []
    harness.run_scenario(s)
    assert len(calls) == 9


def test_one_term_exp_sums_take_the_exact_route(monkeypatch):
    # c exp(P) as a one-term sum is routed by its class-function view, which
    # each sum resolves once: T(60, [1 : e^{z^2}]) = 3600/pi with no samples
    from workbench.expsum import ExpSumFn

    calls = count_calls(monkeypatch, nevanlinna, "circle_average")
    views = count_calls(monkeypatch, ExpSumFn, "as_mero")
    one, square = MeroFn.constant(1), MeroFn.unit(z() ** 2)
    sums = (ExpSumFn.of(one), ExpSumFn.of(square))
    for r in (4.0, 60.0):
        assert characteristic_T(sums, r) == characteristic_T((one, square), r)
    assert characteristic_T(sums, 60.0) == pytest.approx(3600 / math.pi, rel=1e-13)
    assert calls == []
    assert len(views) == 2


def test_each_radius_is_checked_once(monkeypatch):
    t = z()
    f = MeroFn(scalar=1, factors=[(t - 1, 2), (t + 3, -1)], exp_part=t)
    ld = log_derivative(f)
    checks = count_calls(monkeypatch, nevanlinna, "_check_radius")
    characteristic_T(f, 2.0)
    # the poles of f'/f are resolved once, not once per radius
    solves = count_calls(monkeypatch, nevanlinna, "roots_certified")
    log_derivative_T(ld, 2.0)
    log_derivative_T(ld, 4.0)
    assert (len(checks), len(solves)) == (1, 1)
    # the checks that remain still raise as before
    with pytest.raises(InvalidInput, match="on the circle"):
        characteristic_T(f, 3.0)
    with pytest.raises(InvalidInput, match="on the circle"):
        log_derivative_T(ld, 1.0)
    with pytest.raises(InvalidInput, match="zero function"):
        characteristic_T(MeroFn.constant(0), 2.0)


def test_functionals_take_exp_sums():
    from workbench.expsum import ExpSumFn

    one, ez = MeroFn.constant(1), MeroFn.unit(z())
    sums = (ExpSumFn.of(one), ExpSumFn.of(ez))
    assert ExpSumFn.of(sums[0]) is sums[0]
    # one-term exp-sums take the exact route of their class-function views
    assert characteristic_T(sums, 5.0) == pytest.approx(5.0 / math.pi, abs=1e-8)
    assert characteristic_T((one, ez), 5.0) == pytest.approx(5.0 / math.pi, rel=1e-14)
    with pytest.raises(InvalidInput, match="all components vanish"):
        characteristic_T((ExpSumFn.zero(), ExpSumFn.zero()), 5.0)
    # a one-term sum has a certified divisor; 1 + e^z (zeros at i pi) does not
    assert RadiusGrid((2.0,)).perturbed_for([ExpSumFn.of(MeroFn.from_poly(z() - 2))]).points != (2.0,)
    assert RadiusGrid((math.pi,)).perturbed_for([sums[0] + sums[1]]).points == (math.pi,)
    # gcd counting of exp-sums matches their zero lists: 1 + e^z has +-i pi in |z| <= 4
    s = sums[0] + sums[1]
    assert gcd_counting(s, s, 4.0) == pytest.approx(2 * math.log(4 / math.pi), rel=1e-12)
