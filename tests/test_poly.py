import pytest
from hypothesis import given, settings, strategies as st

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly, random_poly

from conftest import variables


def small_poly(num_vars=2, max_degree=3):
    coeff = st.builds(
        GaussRat,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
    )
    expo = st.tuples(*([st.integers(min_value=0, max_value=max_degree)] * num_vars))
    return st.dictionaries(expo, coeff, max_size=5).map(
        lambda terms: SparsePoly(num_vars, terms)
    )


def test_difference_of_squares():
    x0, x1 = variables(2)
    assert (x0 + x1) * (x0 - x1) == x0**2 - x1**2


def test_multiplying_by_zero_empties_terms():
    x0, x1, x2 = variables(3)
    p = x0**2 + x1 * x2
    assert not (p * SparsePoly.zero(3)).terms


def test_square_of_sum_of_squares():
    # hand expansion: (a^2+b^2+c^2)^2 = a^4+b^4+c^4 + 2a^2b^2 + 2a^2c^2 + 2b^2c^2
    x0, x1, x2 = variables(3)
    sq = (x0**2 + x1**2 + x2**2) ** 2
    assert len(sq.terms) == 6
    assert sq.terms[(4, 0, 0)] == GaussRat(1)
    assert sq.terms[(2, 2, 0)] == GaussRat(2)
    assert sq.terms[(2, 0, 2)] == GaussRat(2)
    assert sq.terms[(0, 2, 2)] == GaussRat(2)


def test_partial_derivatives():
    x0, x1, x2 = variables(3)
    p = x0**2 + x1**2 + x2**2
    assert p.partial_derivative(0) == 2 * x0
    assert SparsePoly.constant(7, 3).partial_derivative(0) == SparsePoly.zero(3)
    assert (x0**3 * x1).partial_derivative(1) == x0**3


def test_pow_errors():
    x0, _ = variables(2)
    with pytest.raises(ValueError):
        x0 ** (-1)


def test_homogeneity_and_degrees():
    x0, x1, x2 = variables(3)
    p = x0 * x1 + x2**2
    assert p.is_homogeneous()
    assert p.total_degree() == 2
    q = p + x0
    assert not q.is_homogeneous()
    assert p.degree_in(2) == 2 and p.min_degree_in(2) == 0


def test_eval_exact_and_numeric():
    x0, x1 = variables(2)
    p = x0**2 + 3 * x1
    assert p.eval_exact([GaussRat(2), GaussRat(1, 1)]) == GaussRat(7, 3)
    assert p.eval([2.0, 1j]) == pytest.approx(4 + 3j)


def test_substitute_and_drop():
    x0, x1, x2 = variables(3)
    p = x0**2 + x1 * x2
    q = p.substitute_var(0, GaussRat(1))
    assert q == SparsePoly.constant(1, 3) + x1 * x2
    r = q.drop_var(0)
    assert r.num_vars == 2
    with pytest.raises(ValueError):
        p.drop_var(0)


def test_permute_vars():
    x0, x1, x2 = variables(3)
    p = x0**2 + 2 * x1**2 + 3 * x2**2
    # new variable i is old variable perm[i]
    assert p.permute_vars((1, 2, 0)) == 2 * x0**2 + 3 * x1**2 + x2**2


def test_coeff_views():
    x0, x1 = variables(2)
    p = x0**2 * x1 + x0 + 3
    coeffs = p.coeffs_in(0)
    assert [c.degree_in(1) for c in coeffs] == [0, 0, 1]
    assert SparsePoly.from_coeffs_in(0, coeffs, 2) == p
    assert p.leading_coeff_in(0) == x1


def test_exact_division():
    x0, x1 = variables(2)
    p = (x0 + x1) * (x0 - x1) * (x0 + 3)
    assert p.exact_div(x0 + x1) == (x0 - x1) * (x0 + 3)
    with pytest.raises(ValueError):
        (x0 + 1).exact_div(x1)
    assert (x0 + x1).divides(p)
    assert not x1.divides(p)


@given(small_poly(), small_poly(), small_poly())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p + q) - q == p  # all arithmetic exact, bit for bit


@given(small_poly())
@settings(max_examples=60, deadline=None)
def test_exact_division_round_trip(p):
    if p:
        q = p * p
        assert q.exact_div(p) == p


def test_random_poly_smoke(rng):
    p = random_poly(rng, 3, 4, homogeneous_degree=3)
    assert p.is_homogeneous() and p.total_degree() == 3


def test_ring_operators():
    x0, x1 = variables(2)
    assert (x0 + x1) * (x0 - x1) == x0**2 - x1**2
    assert x0 + x1 == x1 + x0
    assert (x0 + 1) ** 2 == x0**2 + 2 * x0 + 1
    with pytest.raises(ValueError):
        x0 ** -1
