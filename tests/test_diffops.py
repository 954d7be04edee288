import random

import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.diffops import (
    DiffPoly,
    DiffSymbolRing,
    apply_Du,
    check_product_rule,
    coprime_with_Du,
    resultants_with_Du,
    verify_Du_numeric,
)
from workbench.errors import InvalidInput
from workbench.nevanlinna import MeroFn

from conftest import random_poly, variables


def sphere():
    x0, x1, x2 = variables(3)
    return x0**2 + x1**2 + x2**2


def test_operator_on_sum_of_squares():
    ring = DiffSymbolRing(2)
    D = apply_Du(DiffPoly.from_constant_poly(sphere(), ring))
    # the x0^2 term dies (first tuple entry is the constant 1)
    w1, w2 = ring.w(1), ring.w(2)
    expected = DiffPoly(ring, SparsePoly(3, {(0, 2, 0): w1 * 2, (0, 0, 2): w2 * 2}))
    assert D == expected


def test_operator_kills_constants():
    ring = DiffSymbolRing(2)
    c = DiffPoly.from_constant_poly(SparsePoly.constant(9, 3), ring)
    assert not apply_Du(c).base


def test_operator_with_lambda_coefficient():
    ring = DiffSymbolRing(2)
    F = DiffPoly(ring, SparsePoly(3, {(0, 1, 1): ring.lam()}))
    got = apply_Du(F)
    expected_coeff = ring.lam_prime() + ring.lam() * (ring.w(1) + ring.w(2))
    assert got == DiffPoly(ring, SparsePoly(3, {(0, 1, 1): expected_coeff}))


def test_degree_preservation_and_linearity(rng):
    ring = DiffSymbolRing(2)
    for _ in range(25):
        p = random_poly(rng, 3, 3, max_terms=4)
        if not p:
            continue
        P = DiffPoly.from_constant_poly(p, ring)
        assert apply_Du(P).base.total_degree() in (p.total_degree(), -1)
        q = random_poly(rng, 3, 3, max_terms=4)
        Q = DiffPoly.from_constant_poly(q, ring)
        two = DiffPoly.from_constant_poly(SparsePoly.constant(2, 3), ring)
        lhs = apply_Du(DiffPoly(ring, P.base + q.scale(2)))
        rhs = DiffPoly(ring, apply_Du(P).base + apply_Du(Q).base.scale(2))
        assert lhs == rhs


def test_nonzero_image_degree_exact(rng):
    ring = DiffSymbolRing(2)
    for _ in range(20):
        p = random_poly(rng, 3, 3, max_terms=4, homogeneous_degree=rng.randrange(1, 4))
        # a term with only x0 powers is annihilated; require some x1/x2 term
        if not any(e[1] or e[2] for e in p.terms):
            continue
        D = apply_Du(DiffPoly.from_constant_poly(p, ring))
        assert D.base.total_degree() == p.total_degree()


def test_product_rule_examples():
    ring = DiffSymbolRing(2)
    x0, x1, x2 = variables(3)
    F = DiffPoly.from_constant_poly(x1, ring)
    G = DiffPoly.from_constant_poly(x2, ring)
    assert check_product_rule(F, G)
    S = DiffPoly.from_constant_poly(sphere(), ring)
    assert check_product_rule(S, S)


def test_product_rule_randomized(rng):
    # the acceptance suite reruns this with >= 1000 cases
    ring = DiffSymbolRing(2)
    for _ in range(100):
        p = random_poly(rng, 3, 3, max_terms=3)
        q = random_poly(rng, 3, 3, max_terms=3)
        F = DiffPoly.from_constant_poly(p, ring)
        G = DiffPoly.from_constant_poly(q, ring)
        assert check_product_rule(F, G)


def test_image_coefficients_span_w(rng):
    # constant-coefficient input: every image coefficient is a Z-combination
    # of the w symbols (no lambda, lambda', or s parts)
    ring = DiffSymbolRing(2)
    for _ in range(20):
        p = random_poly(rng, 3, 3, max_terms=4, gaussian=False)
        D = apply_Du(DiffPoly.from_constant_poly(p, ring))
        for coeff in D.base.terms.values():
            for (w, kl, kp, ks) in coeff.terms:
                assert kl == 0 and kp == 0 and ks == 0
                assert sum(w) == 1


def test_derivative_rules():
    ring = DiffSymbolRing(1)
    lam = ring.lam()
    assert lam.derivative() == ring.lam_prime()
    inv = ring.lam(-1)
    got = inv.derivative()
    expected = ring.lam(-2) * ring.lam_prime() * GaussRat(-1)
    assert got == expected
    with pytest.raises(InvalidInput):
        ring.w(1).derivative()
    with pytest.raises(InvalidInput):
        ring.s().derivative()
    with pytest.raises(InvalidInput):
        ring.lam_prime().derivative()


def test_coprimality_reports():
    x0, x1, x2 = variables(3)
    assert coprime_with_Du(sphere()).coprime
    assert coprime_with_Du(x0 * x1 + x2**2).coprime
    with pytest.raises(InvalidInput):
        coprime_with_Du(x0**2 * x1)
    with pytest.raises(InvalidInput):
        coprime_with_Du((x0 + x1) ** 2 * (x0 + x2))
    with pytest.raises(InvalidInput):
        coprime_with_Du(x0**2 + x1)  # inhomogeneous


def test_coprime_implies_nonzero_resultants():
    F = sphere()
    assert coprime_with_Du(F).coprime
    for r in resultants_with_Du(F):
        assert r


def test_numeric_identity_simple():
    z = SparsePoly.variable(0, 1)
    one = MeroFn.constant(1)
    F = SparsePoly.variable(1, 2)
    assert verify_Du_numeric(F, (one, MeroFn.unit(z)), [0j, 0.7 - 0.2j]) < 1e-12


def test_numeric_identity_polynomial_tuple():
    z = SparsePoly.variable(0, 1)
    one = MeroFn.constant(1)
    u = (one, MeroFn.from_poly(z**2), MeroFn.from_poly((z - 1) ** 2))
    samples = [1.5 + 0.5j, -2 + 1j, 0.3 - 0.7j, 3 + 0j]
    assert verify_Du_numeric(sphere(), u, samples) < 1e-9


def test_numeric_identity_skips_bad_samples():
    z = SparsePoly.variable(0, 1)
    one = MeroFn.constant(1)
    u = (one, MeroFn.from_poly(z))
    with pytest.warns(UserWarning):
        res = verify_Du_numeric(SparsePoly.variable(1, 2), u, [0j, 1 + 1j])
    assert res < 1e-9


def test_numeric_identity_requires_unit_first():
    z = SparsePoly.variable(0, 1)
    with pytest.raises(InvalidInput):
        verify_Du_numeric(SparsePoly.variable(1, 2),
                          (MeroFn.from_poly(z), MeroFn.unit(z)), [1 + 1j])


def test_diffpoly_serialization_round_trip():
    import json

    from workbench.diffops import diffpoly_from_doc, diffpoly_to_doc

    ring = DiffSymbolRing(2)
    coeff = ring.lam(-2) * GaussRat(3) + ring.w(1) * ring.s() + ring.lam_prime()
    F = DiffPoly(ring, SparsePoly(3, {(0, 1, 1): coeff, (2, 0, 0): ring.one()}))
    doc = diffpoly_to_doc(F)
    assert doc["symbols"] == ["w1", "w2", "lambda", "lambdainv", "lambdap", "s"]
    back = diffpoly_from_doc(json.loads(json.dumps(doc)))
    assert back == F
