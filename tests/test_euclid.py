import random
from fractions import Fraction

import pytest
import sympy

from workbench.algebra.euclid import (
    canonical_scale,
    content_in,
    gcd_poly,
    is_squarefree,
    monomial_variables,
    pseudo_rem,
    resultant,
)
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly, random_poly
from workbench.errors import InvalidInput

from conftest import to_sympy, variables


def test_resultant_quadratic_vs_linear():
    # Res_T(T^2 + (1 + L^2), 2T) = 4(1 + L^2), by the 3x3 Sylvester determinant
    L, T = variables(2)
    f = T**2 + (1 + L**2)
    g = 2 * T
    assert resultant(f, g, var=1) == 4 * (1 + L**2)


def test_resultant_two_linear_sign_convention():
    # Sylvester rows of the first argument first: Res_T(T - a, T - b) = a - b
    a, b, T = variables(3)
    assert resultant(T - a, T - b, var=2) == a - b


def test_resultant_discriminant_shape():
    # Res_T(T^4 + T^2 + L^2, 4T^3 + 2T) = 256 L^2 (L^2 - 1/4)^2
    L, T = variables(2)
    f = T**4 + T**2 + L**2
    r = resultant(f, f.partial_derivative(1), var=1)
    expected = (L**2 * (L**2 - Fraction(1, 4)) ** 2).scale(256)
    assert r == expected


def _sympy_sylvester_det(f, g, syms, var=1):
    """Independent oracle: the Sylvester determinant with f rows on top."""
    fc = [to_sympy(c, syms) for c in f.coeffs_in(var)]
    gc = [to_sympy(c, syms) for c in g.coeffs_in(var)]
    n, m = len(fc) - 1, len(gc) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + list(reversed(fc)) + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(reversed(gc)) + [0] * (size - m - 1 - i))
    return sympy.expand(sympy.Matrix(rows).det())


def test_resultant_against_sylvester_determinant_oracle(rng):
    Ls, Ts = sympy.symbols("L T")
    checked = 0
    for _ in range(25):
        f = random_poly(rng, 2, 3, max_terms=4, coeff_range=3)
        g = random_poly(rng, 2, 3, max_terms=4, coeff_range=3)
        if not f or not g or f.degree_in(1) < 1 or g.degree_in(1) < 1:
            continue
        ours = resultant(f, g, var=1)
        assert to_sympy(ours, (Ls, Ts)) == _sympy_sylvester_det(f, g, (Ls, Ts))
        # sympy's resultant agrees up to the orientation sign
        theirs = sympy.expand(
            sympy.resultant(to_sympy(f, (Ls, Ts)), to_sympy(g, (Ls, Ts)), Ts)
        )
        assert to_sympy(ours, (Ls, Ts)) in (theirs, sympy.expand(-theirs))
        checked += 1
    assert checked >= 10

    L, T = variables(2)
    # deg f < deg g, both odd: swapping the arguments contributes (-1)^(3*5)
    f, g = T**3 + L * T + 1, T**5 - L**2 * T**2 + 3
    assert resultant(f, g, 1) == -resultant(g, f, 1)
    # sparse pair whose PRS drops degree 5 -> 2 (a defective step) after a
    # non-monic step, so the scale h is not 1 when the step is taken
    f2, g2 = T**6 + T**2 + 1, L * T**5 + 1
    assert pseudo_rem(f2, g2, 1).degree_in(1) < g2.degree_in(1) - 1
    # a shared factor of positive degree in T
    c = T**2 + L * T - 2
    f3, g3 = (T + L) * c, (T**3 - 1) * c
    for f, g in ((f, g), (g, f), (f2, g2), (g2, f2), (f3, g3)):
        ours = resultant(f, g, var=1)
        assert to_sympy(ours, (Ls, Ts)) == _sympy_sylvester_det(f, g, (Ls, Ts))
    assert not resultant(f3, g3, var=1)

    # three variables: coefficients in T are polynomials in L and M
    syms = sympy.symbols("L M T")
    checked = 0
    for _ in range(12):
        f = random_poly(rng, 3, 2, max_terms=4, coeff_range=3)
        g = random_poly(rng, 3, 2, max_terms=4, coeff_range=3)
        if f.degree_in(2) < 1 or g.degree_in(2) < 1:
            continue
        ours = resultant(f, g, var=2)
        assert ours.degree_in(2) <= 0
        assert to_sympy(ours, syms) == _sympy_sylvester_det(f, g, syms, var=2)
        checked += 1
    assert checked >= 4


def test_resultant_degree_zero_convention():
    L, T = variables(2)
    c = L**2 + 1  # constant in T
    g = T**3 + L
    assert resultant(c, g, var=1) == c**3
    assert resultant(g, c, var=1) == c**3
    assert resultant(c, c, var=1) == SparsePoly.one(2)
    with pytest.raises(InvalidInput):
        resultant(SparsePoly.zero(2), SparsePoly.zero(2), var=1)


def test_resultant_vanishes_iff_common_factor(rng):
    # zero resultant exactly when the gcd is nonconstant
    for _ in range(40):
        a = random_poly(rng, 2, 2, max_terms=3, coeff_range=2)
        b = random_poly(rng, 2, 2, max_terms=3, coeff_range=2)
        c = random_poly(rng, 2, 2, max_terms=3, coeff_range=2)
        if not a or not b or not c:
            continue
        f, g = a * c, b * c
        if f.degree_in(1) == 0 or g.degree_in(1) == 0:
            continue
        res = resultant(f, g, var=1)
        gcd = gcd_poly(f, g, 1)
        # zero resultant exactly when the gcd has positive main-variable degree
        assert (not res) == (gcd.degree_in(1) > 0)
        if c.degree_in(1) > 0:
            assert not res


def test_gcd_examples():
    x0, x1, x2 = variables(3)
    assert gcd_poly(x0**2 - x1**2, x0 - x1, 0) == x0 - x1
    assert gcd_poly(x0**2 + x1, x0 - x1, 0).is_constant()
    # coprime pair over the w-field: gcd must be constant
    w1 = SparsePoly.variable(3, 5)
    w2 = SparsePoly.variable(4, 5)
    x0, x1, x2 = (SparsePoly.variable(i, 5) for i in range(3))
    f = x0**2 + x1**2 + x2**2
    g = 2 * w1 * x1**2 + 2 * w2 * x2**2
    assert gcd_poly(f, g, 0).is_constant()


def test_gcd_against_sympy(rng):
    xs = sympy.symbols("x0 x1")
    for _ in range(25):
        a = random_poly(rng, 2, 2, max_terms=3, coeff_range=3, gaussian=False)
        b = random_poly(rng, 2, 2, max_terms=3, coeff_range=3, gaussian=False)
        c = random_poly(rng, 2, 2, max_terms=3, coeff_range=3, gaussian=False)
        if not a or not b or not c:
            continue
        ours = gcd_poly(a * c, b * c, 0)
        theirs = sympy.gcd(to_sympy(a * c, xs), to_sympy(b * c, xs))
        # compare up to a constant: the quotient of the two gcds is constant
        q = sympy.simplify(to_sympy(ours, xs) / theirs)
        assert q.is_constant()


def test_content_and_canonical_scale():
    x0, x1 = variables(2)
    p = (x1**2 + x1) * x0**2 + (x1**3 + x1**2) * x0
    c = content_in(p, 0)
    assert c == x1**2 + x1
    q = canonical_scale(3 * x0 + 6 * x1)
    assert q.terms[max(q.terms)] == GaussRat(1)


def test_squarefree_and_monomial_checks():
    x0, x1, x2 = variables(3)
    assert is_squarefree(x0 * x1 + x2**2)
    assert not is_squarefree((x0 + x1) ** 2 * x2)
    assert monomial_variables(x0**2 * x1) == [0, 1]
    assert monomial_variables(x0 + x1) == []


def test_resultant_shared_root_vanishes():
    t = SparsePoly.variable(0, 1)
    r = resultant(t**2 - 1, t - 1, 0)
    assert not r  # shared root => zero resultant


def test_gaussian_integer_pair_builds_no_fraction(monkeypatch):
    # a dense pair of degree 6 with unit coefficients: the subresultant
    # sequence and the gcd stay in Z[i], where GaussRat needs no Fraction
    rng = random.Random(6)
    units = [GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)]
    f, g = (SparsePoly(1, {(e,): rng.choice(units) for e in range(7)}) for _ in range(2))
    built = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    res = resultant(f, g, 0)
    common = gcd_poly(f, g)
    monkeypatch.undo()
    assert built == []
    assert res.is_constant() and res and common == SparsePoly.one(1)
    x = sympy.Symbol("x")
    want = sympy.resultant(to_sympy(f, [x]), to_sympy(g, [x]), x)
    assert sympy.simplify(to_sympy(res, [x]) - want) == 0


def _pseudo_rem_reference(f, g, var):
    """Pseudo-remainder from the full products lc*rem - lead*x^k*g."""
    dg, df = g.degree_in(var), f.degree_in(var)
    lc = g.leading_coeff_in(var)
    x = SparsePoly.variable(var, f.num_vars)
    rem, e = f, 0
    while rem and rem.degree_in(var) >= dg:
        k = rem.degree_in(var) - dg
        rem = rem * lc - rem.leading_coeff_in(var) * x**k * g
        e += 1
    if df >= dg and e < df - dg + 1:
        rem = rem * lc ** (df - dg + 1 - e)
    return rem


def test_pseudo_rem_matches_the_full_product_reference(rng):
    for _ in range(60):
        n = rng.randrange(1, 4)
        var = rng.randrange(n)
        f = random_poly(rng, n, 5, max_terms=6, coeff_range=4)
        g = random_poly(rng, n, 3, max_terms=4, coeff_range=4)
        assert pseudo_rem(f, g, var) == _pseudo_rem_reference(f, g, var)
    # sparse cancellation skips degrees, so the exponent is topped up
    L, T = variables(2)
    f, g = T**6 + T**2 + 1, L * T**5 + 1
    assert pseudo_rem(f, g, 1) == _pseudo_rem_reference(f, g, 1)
