import math
import sys

import numpy as np
import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.errors import InvalidInput, NonProperIntersection
from workbench.morphisms import (
    PowerMorphism,
    euler_identity_check,
    general_position_check,
    intersection_points,
    jacobian_det,
    pushforward_curve,
    transversality_check,
)

from conftest import count_calls, random_poly, variables


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


def test_intersection_points_exact_corner():
    x0, x1, x2 = variables(3)
    pts = intersection_points(x0, x1)
    assert len(pts) == 1
    assert pts[0].exact == (GaussRat(0), GaussRat(0), GaussRat(1))
    with pytest.raises(NonProperIntersection):
        intersection_points(x0 * x1, x1 * x2)


def test_general_position_examples():
    x0, x1, x2 = variables(3)
    assert general_position_check([x0, x1, x2])
    rep = general_position_check([x0, x1, x0 + x1])
    assert not rep
    assert rep.violations[0].point.coords[2] == 1
    assert general_position_check([sphere(), x0, x1, x2])


def test_transversality_examples():
    x0, x1, x2 = variables(3)
    recs = transversality_check(x0, x1)
    assert [r.verdict for r in recs] == ["transversal"]
    assert recs[0].minor == 1
    # tangency of a line with a conic at an exact point
    recs = transversality_check(x1, x1 * x2 - x0**2)
    assert [r.verdict for r in recs] == ["tangential"]
    recs = transversality_check(sphere(), x0)
    assert len(recs) == 2 and all(r.verdict == "transversal" for r in recs)


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
    coeffs = [complex(c.eval([p0, p1, 0])) for c in Z.coeffs_in(2)]
    p2 = np.roots(coeffs[::-1])[0] if len(coeffs) > 1 else 0j
    flips = []
    for s0 in (1, -1):
        for s1 in (1, -1):
            q = np.array([s0 * p0, s1 * p1, p2])
            q = q / q[np.argmax(np.abs(q))]
            if all(np.max(np.abs(q - f)) > 1e-9 for f in flips):
                flips.append(q)
    return sum(abs(complex(Z.eval(list(q)))) < 1e-9 for q in flips)


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
    calls = {name: [count_calls(monkeypatch, mod, name) for key, mod in list(sys.modules.items())
                    if key.startswith("workbench") and hasattr(mod, name)]
             for name in ("resultant", "squarefree_decompose")}
    x0, x1, x2 = variables(3)
    pushforward_curve(squaring_morphism(), x0**2 + x1 * x2 + x0 * x2 - x2**2)
    assert {name: sum(map(len, lists)) for name, lists in calls.items()} == \
        {"resultant": 0, "squarefree_decompose": 0}
