import random

import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.euclid import resultant
from workbench.diffops import (
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


def symbols(ring):
    """The variables of a DiffSymbolRing(2) polynomial, in layout order:
    x0, x1, x2, w1, w2, lambda', s, lambda, lambda^-1."""
    assert ring.n == 2
    return variables(ring.num_vars)


def x_degree(P):
    """The degree of P in x0, x1, x2; -1 for zero."""
    return max((sum(e[:3]) for e in P.terms), default=-1)


def test_operator_on_sum_of_squares():
    ring = DiffSymbolRing(2)
    D = apply_Du(ring, ring.embed(sphere()))
    # the x0^2 term dies (first tuple entry is the constant 1)
    x0, x1, x2, w1, w2, *_ = symbols(ring)
    assert D == w1 * x1**2 * 2 + w2 * x2**2 * 2


def test_operator_kills_constants():
    ring = DiffSymbolRing(2)
    c = ring.embed(SparsePoly.constant(9, 3))
    assert not apply_Du(ring, c)


def test_operator_with_lambda_coefficient():
    ring = DiffSymbolRing(2)
    x0, x1, x2, w1, w2, lam_p, s, lam, lam_inv = symbols(ring)
    got = apply_Du(ring, lam * x1 * x2)
    assert got == (lam_p + lam * (w1 + w2)) * x1 * x2


def test_degree_preservation_and_linearity(rng):
    ring = DiffSymbolRing(2)
    for _ in range(25):
        p = random_poly(rng, 3, 3, max_terms=4)
        if not p:
            continue
        P = ring.embed(p)
        assert x_degree(apply_Du(ring, P)) in (p.total_degree(), -1)
        q = random_poly(rng, 3, 3, max_terms=4)
        Q = ring.embed(q)
        lhs = apply_Du(ring, P + Q.scale(2))
        rhs = apply_Du(ring, P) + apply_Du(ring, Q).scale(2)
        assert lhs == rhs


def test_nonzero_image_degree_exact(rng):
    ring = DiffSymbolRing(2)
    for _ in range(20):
        p = random_poly(rng, 3, 3, max_terms=4, homogeneous_degree=rng.randrange(1, 4))
        # a term with only x0 powers is annihilated; require some x1/x2 term
        if not any(e[1] or e[2] for e in p.terms):
            continue
        D = apply_Du(ring, ring.embed(p))
        assert x_degree(D) == p.total_degree()


def test_product_rule_examples():
    ring = DiffSymbolRing(2)
    x0, x1, x2 = variables(3)
    assert check_product_rule(ring, ring.embed(x1), ring.embed(x2))
    S = ring.embed(sphere())
    assert check_product_rule(ring, S, S)


def test_product_rule_with_lambda_coefficients():
    # lambda and lambda^-1 sit in different factors, so F*G, D(F)*G and
    # F*D(G) all hold terms that only the reduction makes equal
    ring = DiffSymbolRing(2)
    x0, x1, x2, w1, w2, lam_p, s, lam, lam_inv = symbols(ring)
    F = lam * x1 + lam**2 * x2 * 3 + x0
    G = lam_inv * x1 * x0 + lam_inv**3 * x2**2 - x1 * 2
    assert check_product_rule(ring, F, G)
    FG = ring.reduce(F * G)
    assert all(not (e[ring.lam] and e[ring.lam_inv]) for e in FG.terms)
    assert FG.terms[(1, 2, 0, 0, 0, 0, 0, 0, 0)] == GaussRat(1)  # lam x1 * lam^-1 x1 x0
    assert FG.terms[(1, 1, 1, 0, 0, 0, 0, 1, 0)] == GaussRat(3)  # 3 lam^2 x2 * lam^-1 x1 x0
    assert apply_Du(ring, F * G) == apply_Du(ring, FG)


def test_product_rule_randomized(rng):
    # the acceptance suite reruns this with >= 1000 cases
    ring = DiffSymbolRing(2)
    for _ in range(100):
        p = random_poly(rng, 3, 3, max_terms=3)
        q = random_poly(rng, 3, 3, max_terms=3)
        assert check_product_rule(ring, ring.embed(p), ring.embed(q))


def test_image_coefficients_span_w(rng):
    # constant-coefficient input: every image coefficient is a Z-combination
    # of the w symbols (no lambda, lambda', or s parts)
    ring = DiffSymbolRing(2)
    for _ in range(20):
        p = random_poly(rng, 3, 3, max_terms=4, gaussian=False)
        D = apply_Du(ring, ring.embed(p))
        for expo in D.terms:
            assert not any(expo[ring.lam_prime :])
            assert sum(expo[ring.w(1) : ring.lam_prime]) == 1


def test_derivative_rules():
    ring = DiffSymbolRing(1)
    x0, x1, w1, lam_p, s, lam, lam_inv = variables(ring.num_vars)
    assert apply_Du(ring, lam) == lam_p
    assert apply_Du(ring, lam_inv) == lam_inv**2 * lam_p * GaussRat(-1)
    assert ring.lam_derivative(lam * lam_inv) == 0
    with pytest.raises(InvalidInput):
        apply_Du(ring, w1)
    with pytest.raises(InvalidInput):
        apply_Du(ring, s)
    with pytest.raises(InvalidInput):
        apply_Du(ring, lam_p)


def test_coprimality_reports():
    x0, x1, x2 = variables(3)
    assert coprime_with_Du(sphere()) is True
    assert coprime_with_Du(x0 * x1 + x2**2) is True
    with pytest.raises(InvalidInput):
        coprime_with_Du(x0**2 * x1)
    with pytest.raises(InvalidInput):
        coprime_with_Du((x0 + x1) ** 2 * (x0 + x2))
    with pytest.raises(InvalidInput):
        coprime_with_Du(x0**2 + x1)  # inhomogeneous


def test_every_valid_form_is_coprime_with_its_image():
    # a common factor of F and D_u(F) would be x0 (see coprime_with_Du), so
    # no valid draw, relation-shaped ones included, reaches the contradiction
    x0, x1, x2 = variables(3)
    forms = [x1 * x2 - x0**2, x1**2 * x2 - x0**3, x1 * x2**2 - x0 * x1**2 + x0**3]
    rng = random.Random(11)
    for _ in range(400):
        forms.append(random_poly(rng, 3, 4, max_terms=4, homogeneous_degree=rng.randrange(1, 5)))
    valid = 0
    for F in forms:
        try:
            assert coprime_with_Du(F) is True
        except InvalidInput:
            continue
        valid += 1
    assert valid > 150


def test_coprime_implies_nonzero_resultants():
    F = sphere()
    assert coprime_with_Du(F) is True
    for r in resultants_with_Du(F):
        assert r


def test_resultants_with_a_hand_written_image():
    # x0, x1, x2, w1, w2, lambda', s: the variables the resultants live in
    x0, x1, x2, w1, w2, lam_p, s = variables(7)
    F = x0**2 + x1**2 + x2**2
    D = w1 * x1**2 * 2 + w2 * x2**2 * 2
    assert resultants_with_Du(sphere()) == [resultant(F, D, v) for v in range(3)]


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


PINNED_DOC = (
    '{"schema": "diffpoly/1", "vars": 3, "symbols": ["w1", "w2", "lambda", "lambdainv", '
    '"lambdap", "s"], "terms": [{"exp": [0, 1, 1], "coeff": [{"exp": [0, 0, 0, 2, 0, 0], '
    '"re": "3", "im": "0"}, {"exp": [0, 0, 0, 0, 1, 0], "re": "1", "im": "0"}, '
    '{"exp": [1, 0, 0, 0, 0, 1], "re": "1", "im": "0"}]}, {"exp": [2, 0, 0], '
    '"coeff": [{"exp": [0, 0, 0, 0, 0, 0], "re": "1", "im": "0"}]}]}'
)


def test_diffpoly_serialization_round_trip():
    import json

    from workbench.diffops import diffpoly_from_doc, diffpoly_to_doc

    ring = DiffSymbolRing(2)
    x0, x1, x2, w1, w2, lam_p, s, lam, lam_inv = symbols(ring)
    F = (lam_inv**2 * GaussRat(3) + w1 * s + lam_p) * x1 * x2 + x0**2
    doc = diffpoly_to_doc(ring, F)
    assert json.dumps(doc) == PINNED_DOC
    back_ring, back = diffpoly_from_doc(json.loads(json.dumps(doc)))
    assert back_ring.n == ring.n and back == F
    # the layout fixes x0..xn for n symbols, so another x count is refused
    with pytest.raises(InvalidInput):
        diffpoly_from_doc({**doc, "vars": 4})


def test_diffpoly_document_numbers_are_json_integers():
    from workbench.diffops import diffpoly_from_doc, diffpoly_to_doc

    ring = DiffSymbolRing(2)
    x0, x1, x2, w1, w2, lam_p, s, lam, lam_inv = symbols(ring)
    doc = diffpoly_to_doc(ring, w1 * x1 + x0**2)
    term = doc["terms"][0]
    part = {**term["coeff"][0], "exp": [True, 0, 0, 0, 0, 0]}
    bad = [
        ({**doc, "vars": 3.0}, "'vars' must be an integer, not 3.0"),
        ({**doc, "terms": [{**term, "exp": [1.7, 0, 0]}]}, "'exp' must be an integer, not 1.7"),
        ({**doc, "terms": [{**term, "coeff": [part]}]}, "'exp' must be an integer, not True"),
        ({k: v for k, v in doc.items() if k != "terms"}, "no key 'terms'"),
    ]
    for bad_doc, problem in bad:
        with pytest.raises(InvalidInput, match=problem):
            diffpoly_from_doc(bad_doc)
