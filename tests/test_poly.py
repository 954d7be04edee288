from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from workbench.algebra import poly
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly

from conftest import count_calls, random_poly, to_sympy, variables


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


def test_specialize(rng):
    xs = sympy.symbols("x0 x1 x2")
    x0, x1, x2 = variables(3)
    # terms cancel at x0 = 1 in the first extra case; the second vanishes at x0 = 0
    cases = [random_poly(rng, 3, 3) for _ in range(12)]
    cases += [(x0 - 1) * x1 + x2, x0 * x1 + x0**2 * x2]
    for p in cases:
        for var in range(3):
            rest = [s for i, s in enumerate(xs) if i != var]
            for c in (0, 1):
                q = p.specialize(var, c)
                assert q.num_vars == 2
                assert sympy.expand(to_sympy(q, rest) - to_sympy(p, xs).subs(xs[var], c)) == 0
    # drop_var only removes a variable that no longer occurs
    with pytest.raises(ValueError):
        (x0**2 + x1 * x2).drop_var(0)


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
    assert sum((c * x0**e for e, c in enumerate(coeffs)), SparsePoly.zero(2)) == p
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


def _exact_div_reference(p, q):
    """Long division that rebuilds the remainder polynomial on every step."""
    rem, quot = p, {}
    lead_e = max(q.terms)
    lead_c = q.terms[lead_e]
    while rem:
        e = max(rem.terms)
        diff = tuple(a - b for a, b in zip(e, lead_e))
        if min(diff) < 0:
            raise ValueError("not exactly divisible")
        qc = rem.terms[e] / lead_c
        quot[diff] = qc
        rem = rem - SparsePoly(p.num_vars, {diff: qc}) * q
    return SparsePoly(p.num_vars, quot)


def _poly_over_parameters(rng):
    """A polynomial in x of degree < 3 over Q(i)[y0, y1], as a SparsePoly in
    (x, y0, y1)."""
    terms = {}
    for e in range(rng.randrange(1, 4)):
        for k, c in random_poly(rng, 2, 2, max_terms=3).terms.items():
            terms[(e,) + k] = c
    return SparsePoly(3, terms)


@pytest.mark.parametrize("over_parameters", [False, True])
def test_exact_division_matches_the_reference(rng, over_parameters):
    for _ in range(60 if over_parameters else 150):
        if over_parameters:
            a, b = _poly_over_parameters(rng), _poly_over_parameters(rng)
        else:
            a = random_poly(rng, 2, 3)
            b = random_poly(rng, 2, 2).scale(GaussRat(Fraction(2, 3), Fraction(-1, 5)))
        for p in (a * b, a + b, b * b + a):
            try:
                want = _exact_div_reference(p, b)
            except ValueError:
                with pytest.raises(ValueError):
                    p.exact_div(b)
            else:
                assert p.exact_div(b) == want
        assert (a * b).exact_div(b) == a


def test_arithmetic_skips_the_validating_constructor(monkeypatch, rng):
    rational = GaussRat(Fraction(2, 3), Fraction(-1, 5))
    pairs = [(random_poly(rng, 3, 3), random_poly(rng, 3, 3)),
             (random_poly(rng, 3, 3).scale(rational), random_poly(rng, 3, 3).scale(Fraction(1, 6)))]
    calls = count_calls(monkeypatch, SparsePoly, "__init__")
    results = []
    for p, q in pairs:
        prod = p * q
        results += [p + q, p - q, -p, prod, prod.exact_div(q), *prod.coeffs_in(1),
                    p.scale(rational), p.scale(3), q.scale(GaussRat(0, 1)),
                    p.partial_derivative(0), prod.coeffs_in(1)[0].drop_var(1),
                    p.permute_vars((2, 0, 1))]
    assert calls == []
    monkeypatch.undo()
    for r in results:
        assert SparsePoly(r.num_vars, r.terms).terms == r.terms
    # the public constructor still checks and cleans its input
    assert SparsePoly(2, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): GaussRat(2)}
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SparsePoly(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        variables(2)[1].drop_var(1)


def test_coefficients_are_gaussian_rationals_only():
    # a float or a polynomial coefficient is refused where it enters, not
    # stored to fail later inside a product
    with pytest.raises(TypeError):
        SparsePoly(1, {(0,): 0.1})
    with pytest.raises(TypeError):
        SparsePoly(1, {(1,): SparsePoly.one(2)})
    with pytest.raises(TypeError):
        SparsePoly.one(1).scale(0.5)


def test_subtraction_matches_adding_the_negation(rng):
    cancelled = 0
    for _ in range(200):
        num_vars = rng.randint(1, 3)
        p, q = _gauss_poly(rng, num_vars), _gauss_poly(rng, num_vars)
        # p - (p + q) cancels every term of p
        for a, b in ((p, q), (q, p), (p, p + q), (p + q, p)):
            got, want = a - b, a + (-b)
            assert got == want and list(got.terms) == list(want.terms)
            cancelled += sum(e in b.terms and e not in got.terms for e in a.terms)
    assert cancelled > 100


def _gauss_coeff(rng, kind):
    """A nonzero Gaussian rational: Gaussian integer, with denominators,
    purely real or purely imaginary."""
    while True:
        den = rng.choice((1, 2, 3, 4, 6, 9, 10)) if kind == "rational" else 1
        re = Fraction(rng.randint(-3, 3), den if kind == "rational" else 1)
        im = Fraction(rng.randint(-3, 3), rng.choice((1, 5, 7)) if kind == "rational" else 1)
        if kind == "real":
            im = 0
        elif kind == "imaginary":
            re = 0
        if re or im:
            return GaussRat(re, im)


def _gauss_poly(rng, num_vars):
    """A random polynomial over Q(i); zero, constants and one-term ones included."""
    shape = rng.choice(("zero", "constant", "small", "small", "dense", "dense"))
    if shape == "zero":
        return SparsePoly.zero(num_vars)
    size = {"constant": 1, "small": rng.randint(1, 3), "dense": rng.randint(3, 8)}[shape]
    top = 0 if shape == "constant" else 3
    kind = rng.choice(("integer", "rational", "real", "imaginary", "mixed"))
    terms = {}
    for _ in range(size):
        expo = tuple(rng.randint(0, top) for _ in range(num_vars))
        terms[expo] = _gauss_coeff(
            rng, rng.choice(("integer", "rational", "real", "imaginary")) if kind == "mixed" else kind)
    return SparsePoly(num_vars, terms)


def _product_reference(p, q):
    """Term-by-term product in GaussRat arithmetic: a new exponent is appended,
    a sum that reaches zero is removed.  Also returns how many sums did."""
    terms, cancelled = {}, 0
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(expo, GaussRat(0)) + c1 * c2
            if s:
                terms[expo] = s
            else:
                del terms[expo]
                cancelled += 1
    return SparsePoly(p.num_vars, terms), cancelled


def test_product_and_division_kernels_match_the_reference(rng):
    cancelled = 0
    for _ in range(300):
        num_vars = rng.randint(1, 3)
        a, b = _gauss_poly(rng, num_vars), _gauss_poly(rng, num_vars)
        # a + b times a - b cancels the cross terms
        for p, q in ((a, b), (a + b, a - b)):
            want, k = _product_reference(p, q)
            cancelled += k
            got = p * q
            assert got == want and list(got.terms) == list(want.terms)
        if not b:
            continue
        for p in (a * b, a * b + a, a * b + SparsePoly.one(num_vars)):
            try:
                want = _exact_div_reference(p, b)
            except ValueError:
                with pytest.raises(ValueError):
                    p.exact_div(b)
            else:
                got = p.exact_div(b)
                assert got == want and list(got.terms) == list(want.terms)
        assert (a * b).exact_div(b) == a
    assert cancelled > 100


def test_division_raises_the_remainder_denominator_once(monkeypatch):
    x = SparsePoly.variable(0, 1)
    lcms = count_calls(monkeypatch, poly, "lcm")
    # the first quotient coefficient 1/(2 + i) = (2 - i)/5 brings in the 5
    q = (x**2 - 1).exact_div((x - 1).scale(GaussRat(2, 1)))
    assert q == (x + 1).scale(GaussRat(Fraction(2, 5), Fraction(-1, 5)))
    assert len(lcms) == 1
    # not divisible: the remainder 2 is left below the divisor's leading term
    with pytest.raises(ValueError):
        (x**2 + 1).exact_div((x - 1).scale(GaussRat(2, 1)))


def test_gaussian_integer_products_and_quotients_make_no_gaussrat_arithmetic(monkeypatch, rng):
    # a term of degree 5 makes sure neither factor is a single term
    x0, x1 = variables(2)
    p = random_poly(rng, 2, 4, max_terms=8) + x0**5
    q = random_poly(rng, 2, 4, max_terms=8) + x1**5
    calls = [count_calls(monkeypatch, GaussRat, name)
             for name in ("__mul__", "__add__", "__sub__", "__truediv__")]
    lcms = count_calls(monkeypatch, poly, "lcm")
    prod = p * q
    quot = prod.exact_div(q)
    assert calls == [[], [], [], []] and lcms == []
    monkeypatch.undo()
    assert quot == p and prod == _product_reference(p, q)[0]


def test_a_unit_imaginary_coefficient_prints_as_i():
    z = SparsePoly.variable(0, 1)
    i = GaussRat(0, 1)
    assert str(z.scale(i)) == "i*x0"
    assert (z.scale(-i) + i).to_string(["z"]) == "-i*z + i"
    assert (z.scale(i) - i).to_string(["z"]) == "i*z - i"
    # the sort key still reads GaussRat's own string, so orders do not move
    assert z.scale(i).sort_key() == (((1,), "1*i"),)
