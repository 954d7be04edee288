import math
import sys

import numpy as np
import pytest
import sympy

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.errors import InvalidInput
from workbench.morphisms import (
    PowerMorphism,
    euler_identity_check,
    general_position_check,
    jacobian_det,
    pushforward_curve,
    share_a_zero,
)

from conftest import count_calls, random_poly, to_sympy, variables


def sphere():
    x0, x1, x2 = variables(3)
    return x0**2 + x1**2 + x2**2


def std_morphism():
    x0, x1, x2 = variables(3)
    return PowerMorphism.build(x0, x1, sphere())


def test_build_and_exponents():
    m = std_morphism()
    assert m.degrees == (1, 1, 2)
    assert m.exponents == (2, 2, 1)
    x0, x1, x2 = variables(3)
    with pytest.raises(InvalidInput):
        PowerMorphism.build(x0, x1, x0**2 + x1**2)  # common zero (0,0,1)


def test_jacobian_examples():
    m = std_morphism()
    x0, x1, x2 = variables(3)
    assert jacobian_det(m, reduced=True) == 2 * x2
    full = jacobian_det(m, reduced=False)
    assert full == 8 * x0 * x1 * x2
    # reduced divides full; the quotient is a monomial times a constant
    quotient = full.exact_div(jacobian_det(m, reduced=True))
    assert len(quotient.terms) == 1
    ident = PowerMorphism.build(x0, x1, x2)
    assert jacobian_det(ident, reduced=True) == SparsePoly.one(3)


def test_euler_identities_exact():
    assert euler_identity_check(std_morphism())
    x0, x1, x2 = variables(3)
    assert euler_identity_check(PowerMorphism.build(x0, x1, x2))


def test_euler_identities_randomized(rng):
    # the acceptance suite raises the count to >= 100
    count = 0
    while count < 25:
        comps = [
            random_poly(rng, 3, 0, max_terms=4, coeff_range=3,
                        homogeneous_degree=rng.randrange(1, 4))
            for _ in range(3)
        ]
        if any(not c or c.is_constant() for c in comps):
            continue
        m = PowerMorphism.build(*comps, check_finite=False)
        assert euler_identity_check(m)
        count += 1


def test_reduced_divides_full_randomized(rng):
    count = 0
    while count < 10:
        comps = [
            random_poly(rng, 3, 0, max_terms=3, coeff_range=2,
                        homogeneous_degree=rng.randrange(1, 3))
            for _ in range(3)
        ]
        if any(not c or c.is_constant() for c in comps):
            continue
        m = PowerMorphism.build(*comps, check_finite=False)
        red = jacobian_det(m, reduced=True)
        full = jacobian_det(m, reduced=False)
        if not red:
            count += 1
            continue
        assert red.divides(full)
        count += 1


def test_general_position_examples():
    x0, x1, x2 = variables(3)
    assert general_position_check([x0, x1, x2]) == ()
    assert general_position_check([x0, x1, x0 + x1]) == ((0, 1, 2),)
    assert general_position_check([sphere(), x0, x1, x2]) == ()
    # no point is computed, so no float point can be misjudged either way
    assert general_position_check([x0**2, x1**2, x2**2, x0 + 2 * x1 - 3 * x2]) == ()
    assert general_position_check([x0**3 + x1**3 + x2**3, x0 + x1, x0 + x2]) == ()
    # a shared component meets every other curve
    assert general_position_check([x0 * x1, x1 * x2, x0]) == ((0, 1, 2),)
    with pytest.raises(InvalidInput):
        general_position_check([x0, x1, x0 + x1**2])


def test_irrational_common_points_are_found():
    # q*x0 + x2^3, q*x1 + x2^3 and x2 all vanish at (1 : +-sqrt(2) : 0)
    x0, x1, x2 = variables(3)
    q = x1**2 - 2 * x0**2
    F = (q * x0 + x2**3, q * x1 + x2**3, x2)
    assert general_position_check(list(F)) == ((0, 1, 2),)
    with pytest.raises(InvalidInput):
        PowerMorphism.build(*F)


def _linear_form(c):
    return sum((ci * x for ci, x in zip(c, variables(3))), SparsePoly.zero(3))


def _cross(u, v):
    return tuple(u[(k + 1) % 3] * v[(k + 2) % 3] - u[(k + 2) % 3] * v[(k + 1) % 3] for k in range(3))


def _gaussian_vector(rng):
    while True:
        v = tuple(GaussRat(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(3))
        if any(v):
            return v


def test_share_a_zero_against_exact_intersections(rng):
    # F and G are products of lines, so F cap G is exactly the cross products
    # of their line pairs; H vanishes at one of them or is drawn at random
    outcomes = []
    while len(outcomes) < 40:
        ls = [_gaussian_vector(rng) for _ in range(rng.randrange(1, 4))]
        ms = [_gaussian_vector(rng) for _ in range(rng.randrange(1, 3))]
        points = [_cross(l, m) for l in ls for m in ms]
        if not all(any(p) for p in points):
            continue  # a common line
        F = math.prod((_linear_form(l) for l in ls), start=SparsePoly.one(3))
        G = math.prod((_linear_form(m) for m in ms), start=SparsePoly.one(3))
        H = random_poly(rng, 3, 0, max_terms=4, coeff_range=3,
                        homogeneous_degree=rng.randrange(0, 3))
        if rng.random() < 0.5:
            P = rng.choice(points)
            v = _gaussian_vector(rng)
            if not any(_cross(P, v)):
                continue
            H = H * _linear_form(_cross(P, v))
        truth = any(not H.compose(P, GaussRat.coerce) for P in points)
        for triple in ((F, G, H), (G, H, F), (H, F, G)):
            assert share_a_zero(*triple) == truth
        outcomes.append(truth)
    assert 10 <= sum(outcomes) <= 30


def test_share_a_zero_finds_planted_irrational_points(rng):
    # every H = A*F + B*G vanishes on F cap G, which is not empty in P^2
    count = 0
    while count < 20:
        dF, dG = rng.randrange(1, 4), rng.randrange(1, 3)
        e = max(dF, dG) + rng.randrange(0, 2)
        F, G, A, B = (random_poly(rng, 3, 0, max_terms=4, coeff_range=3, homogeneous_degree=d)
                      for d in (dF, dG, e - dF, e - dG))
        H = A * F + B * G
        if not H:
            continue
        assert share_a_zero(F, G, H) and share_a_zero(H, F, G)
        count += 1


def test_share_a_zero_agrees_with_groebner(rng):
    # by the Nullstellensatz the forms share a zero in P^2 exactly when the
    # ideal of some affine chart x_v = 1 is not the unit ideal
    X = sympy.symbols("x0 x1 x2")
    outcomes = []
    for _ in range(40):
        forms = [random_poly(rng, 3, 0, max_terms=3, coeff_range=2,
                             homogeneous_degree=rng.randrange(1, 4)) for _ in range(3)]
        exprs = [to_sympy(p, X) for p in forms]
        truth = any(sympy.groebner([e.subs(x, 1) for e in exprs], *(y for y in X if y != x),
                                   order="grevlex").exprs != [1] for x in X)
        assert share_a_zero(*forms) == truth
        outcomes.append(truth)
    assert 0 < sum(outcomes) < len(outcomes)


def test_share_a_zero_shears_past_the_coordinate_points():
    # F passes through (0 : 0 : 1), (0 : 1 : 0) and (1 : 0 : 0), and G(a, 0, 1)
    # vanishes for a = 0..3, so neither is monic in x2 before a shear
    x0, x1, x2 = variables(3)
    F = x0 * x1 + x1 * x2 + x0 * x2
    G = x0 * (x0 - x2) * (x0 - 2 * x2) * (x0 - 3 * x2)
    for first, second in ((F, G), (G, F)):
        assert share_a_zero(first, second, x1)  # (0 : 0 : 1)
        assert share_a_zero(first, second, x0 - x2)  # a line of G
        assert not share_a_zero(first, second, x1 + x2)  # only (1 : 0 : 0) on F
        assert not share_a_zero(first, second, x1 + 5 * x2)


def test_pushforward_example():
    m = std_morphism()
    x0, x1, x2 = variables(3)
    A = pushforward_curve(m, x2)
    # equality up to a constant: the image is the line y0 + y1 - y2 = 0
    assert A == x0 + x1 - x2 or A == -(x0 + x1 - x2)
    comp = m.apply_to_polys(m.powered_components(), A)
    # pullback vanishes on [x2 = 0] to order exactly 2
    assert comp == x2**2 or comp == -(x2**2)


def test_pushforward_identity():
    x0, x1, x2 = variables(3)
    ident = PowerMorphism.build(x0, x1, x2)
    Z = x0 + x1 + x2
    assert pushforward_curve(ident, Z) == Z
    Z2 = x0**2 + x1**2 + 3 * x2**2
    assert pushforward_curve(ident, Z2) == Z2


def test_pushforward_contracted_raises():
    x0, x1, x2 = variables(3)
    degenerate = PowerMorphism.build(x0, x1, x0 + x1, check_finite=False)
    with pytest.raises(InvalidInput):
        pushforward_curve(degenerate, x2)


def test_pushforward_soundness_random(rng):
    # (A o pi) reduces to zero modulo Z for every emitted A
    x0, x1, x2 = variables(3)
    m = std_morphism()
    for Z in (x2, x0 + x2, x0 + x1 + 2 * x2):
        A = pushforward_curve(m, Z)
        comp = m.apply_to_polys(m.powered_components(), A)
        assert Z.divides(comp)


UNITS = (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1))


def squaring_morphism():
    x0, x1, x2 = variables(3)
    return PowerMorphism.build(x0**2, x1**2, x2**2)


def seeded_conics(rng, count):
    """Nonsingular conics with coefficients drawn from the units of Z[i]."""
    x0, x1, x2 = variables(3)
    monos = (x0**2, x1**2, x2**2, x0 * x1, x0 * x2, x1 * x2)
    out = []
    while len(out) < count:
        Z = sum((mono.scale(rng.choice(UNITS)) for mono in monos), SparsePoly.zero(3))
        # the Jacobian of the gradient is the Hessian, zero exactly for a singular conic
        grad = PowerMorphism.build(*(Z.partial_derivative(v) for v in range(3)), check_finite=False)
        if jacobian_det(grad, reduced=True):
            out.append(Z)
    return out


def sign_flip_degree(Z, rng) -> int:
    """deg(Z -> A) for a map whose fibres are the sign flips [+-p0 : +-p1 : p2].

    Both the squaring map and [x0 : x1 : sphere] have these fibres.  The
    count is the number of distinct flips of a generic point p of Z that
    lie on Z.
    """
    p0, p1 = complex(rng.uniform(1, 2), rng.uniform(1, 2)), complex(rng.uniform(1, 2), -1)
    coeffs = [c.compose([p0, p1, 0], complex) for c in Z.coeffs_in(2)]
    p2 = np.roots(coeffs[::-1])[0] if len(coeffs) > 1 else 0j
    flips = []
    for s0 in (1, -1):
        for s1 in (1, -1):
            q = np.array([s0 * p0, s1 * p1, p2])
            q = q / q[np.argmax(np.abs(q))]
            if all(np.max(np.abs(q - f)) > 1e-9 for f in flips):
                flips.append(q)
    return sum(abs(Z.compose(list(q), complex)) < 1e-9 for q in flips)


def assert_image(m, Z, A, rng):
    assert Z.divides(m.apply_to_polys(m.powered_components(), A))
    assert A.total_degree() * sign_flip_degree(Z, rng) == math.lcm(*m.degrees) * Z.total_degree()


def test_pushforward_conics_have_image_degree_4(rng):
    x0, x1, x2 = variables(3)
    conics = [
        # the elimination route returned a degree-12 multiple of the image here
        x0**2 + x1 * x2 + 2 * x1**2 - 3 * x2**2 + x0 * x2,
        # no variable v has deg_v Z = deg Z, so no chart divides Z monically
        x0 * x1 + x1 * x2 + x0 * x2,
    ] + seeded_conics(rng, 3)
    for m in (squaring_morphism(), std_morphism()):
        for Z in conics:
            A = pushforward_curve(m, Z)
            assert A.total_degree() == 4
            assert_image(m, Z, A, rng)


def test_pushforward_lines_exact(rng):
    x0, x1, x2 = variables(3)
    m = squaring_morphism()
    A = pushforward_curve(m, x0 + x1 + 2 * x2)
    assert A == x0**2 - 2 * x0 * x1 - 8 * x0 * x2 + x1**2 - 8 * x1 * x2 + 16 * x2**2
    assert_image(m, x0 + x1 + 2 * x2, A, rng)
    # x2 maps 2:1 onto the line y2 = 0
    assert pushforward_curve(m, x2) == x2
    assert_image(m, x2, x2, rng)


def test_pushforward_runs_no_elimination(monkeypatch):
    m = squaring_morphism()  # its finiteness check runs one resultant
    calls = {name: [count_calls(monkeypatch, mod, name) for key, mod in list(sys.modules.items())
                    if key.startswith("workbench") and hasattr(mod, name)]
             for name in ("resultant", "squarefree_decompose")}
    x0, x1, x2 = variables(3)
    pushforward_curve(m, x0**2 + x1 * x2 + x0 * x2 - x2**2)
    assert {name: sum(map(len, lists)) for name, lists in calls.items()} == \
        {"resultant": 0, "squarefree_decompose": 0}
