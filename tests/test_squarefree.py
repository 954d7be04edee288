import sympy

from workbench.algebra.euclid import gcd_poly, is_squarefree
from workbench.algebra.poly import SparsePoly
from workbench.algebra.squarefree import squarefree_decompose, squarefree_part

from conftest import random_poly, to_sympy, variables


def _reconstruct(factors, num_vars):
    acc = SparsePoly.one(num_vars)
    for p, m in factors:
        acc = acc * p**m
    return acc


def _equal_up_to_unit(p, q):
    if not p or not q:
        return bool(p) == bool(q)
    lp, lq = max(p.terms), max(q.terms)
    if lp != lq:
        return False
    ratio = p.terms[lp] / q.terms[lq]
    return p == q.scale(ratio)


def test_simple_decomposition():
    t = SparsePoly.variable(0, 1)
    f = (t - 1) ** 2 * (t + 2)
    got = {(str(p), m) for p, m in squarefree_decompose(f)}
    assert got == {("x0 - 1", 2), ("x0 + 2", 1)}


def test_squarefree_input_single_factor():
    t = SparsePoly.variable(0, 1)
    f = t**3 + t + 1
    ((p, m),) = squarefree_decompose(f)
    assert m == 1 and _equal_up_to_unit(p, f)


def test_biquadratic():
    t = SparsePoly.variable(0, 1)
    f = t**4 + 2 * t**2 + 1
    ((p, m),) = squarefree_decompose(f)
    assert m == 2 and p == t**2 + 1


def test_reconstruction_property(rng):
    t = SparsePoly.variable(0, 1)
    for _ in range(30):
        f = SparsePoly.one(1)
        for _ in range(rng.randrange(1, 4)):
            g = random_poly(rng, 1, 2, max_terms=3, coeff_range=3)
            if g and not g.is_constant():
                f = f * g ** rng.randrange(1, 4)
        if f.is_constant():
            continue
        factors = squarefree_decompose(f)
        assert _equal_up_to_unit(_reconstruct(factors, 1), f)
        # factors pairwise coprime and squarefree
        for i, (p, _) in enumerate(factors):
            assert is_squarefree(p)
            for q, _ in factors[i + 1 :]:
                assert gcd_poly(p, q, 0).is_constant()


def test_bivariate_decomposition():
    L, T = variables(2)
    f = (T - L) ** 2 * (T + L) * (L**2 + 1)
    factors = squarefree_decompose(f)
    assert _equal_up_to_unit(_reconstruct(factors, 2), f)
    # parts are grouped by multiplicity: (T+L)(L^2+1) at 1, (T-L) at 2
    profile = sorted((m, p.total_degree()) for p, m in factors)
    assert profile == [(1, 3), (2, 1)]


def test_bivariate_against_sympy(rng):
    xs = sympy.symbols("x0 x1")
    checked = 0
    for _ in range(12):
        a = random_poly(rng, 2, 2, max_terms=3, coeff_range=2, gaussian=False)
        b = random_poly(rng, 2, 2, max_terms=3, coeff_range=2, gaussian=False)
        if not a or not b or a.is_constant() or b.is_constant():
            continue
        f = a**2 * b
        decomposition = squarefree_decompose(f)
        assert _equal_up_to_unit(_reconstruct(decomposition, 2), f)
        # degree-weighted multiplicity profile agrees with sympy
        _, sym_list = sympy.sqf_list(to_sympy(f, xs))
        total_ours = sum(p.total_degree() * m for p, m in decomposition)
        total_sym = sum(sympy.total_degree(q) * m for q, m in sym_list)
        assert total_ours == total_sym
        checked += 1
    assert checked >= 5


def test_squarefree_part():
    t = SparsePoly.variable(0, 1)
    f = (t - 1) ** 3 * (t + 1)
    assert squarefree_part(f) == (t - 1) * (t + 1)
