import itertools

import pytest
import sympy

from workbench.algebra.euclid import canonical_scale, gcd_poly, is_squarefree
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.squarefree import squarefree_decompose, squarefree_part

from conftest import count_calls, random_poly, to_sympy, variables


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



# ---------------------------------------------------------------------------
# squarefree parts and gcd-free bases against the routines they replaced
# ---------------------------------------------------------------------------

def _reference_squarefree_part(f):
    """The product of the parts of Yun's decomposition, canonically scaled."""
    parts = [(p, 1) for p, _ in squarefree_decompose(f)]
    return canonical_scale(_reconstruct(parts, f.num_vars))


def test_squarefree_part_is_f_over_its_repeated_part(rng, monkeypatch):
    from workbench.algebra import squarefree

    cases = []
    for n in (1, 2, 3):
        for _ in range(8):
            a = random_poly(rng, n, 2, max_terms=3, coeff_range=3)
            b = random_poly(rng, n, 2, max_terms=3, coeff_range=3)
            if a and b and not a.is_constant():
                cases.append(a ** rng.randrange(1, 4) * b)
    t = SparsePoly.variable(0, 1)
    y = SparsePoly.variable(1, 2)
    cases += [SparsePoly.constant(5, 1), t**4, (t - 1) ** 3 * (t + 1), (t**2 + 2) ** 2,
              (y**2 + 1) ** 2]
    want = [_reference_squarefree_part(f) for f in cases]
    decompositions = count_calls(monkeypatch, squarefree, "squarefree_decompose")
    for f, w in zip(cases, want):
        assert squarefree_part(f) == w, f
    assert decompositions == []
    with pytest.raises(ValueError):
        squarefree_part(SparsePoly.zero(2))


def _reference_coprime_refine(canon):
    """The restart loop that split factors until they were pairwise coprime."""
    work = [(p, m) for p, m in canon.items() if m]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                p, mp = work[i]
                q, mq = work[j]
                if p == q:
                    work[i] = (p, mp + mq)
                    del work[j]
                    changed = True
                    break
                g = gcd_poly(p, q, 0)
                if g.degree_in(0) > 0:
                    pg = canonical_scale(p.exact_div(g))
                    qg = canonical_scale(q.exact_div(g))
                    repl = [(g, mp + mq)]
                    if pg.degree_in(0) > 0:
                        repl.append((pg, mp))
                    if qg.degree_in(0) > 0:
                        repl.append((qg, mq))
                    work = [w for k, w in enumerate(work) if k not in (i, j)] + repl
                    changed = True
                    break
            if changed:
                break
    out = {}
    for p, m in work:
        out[p] = out.get(p, 0) + m
    return {p: m for p, m in out.items() if m}


def _reference_gcd_free_basis(factor_maps):
    """The restart loop over every factor, then the divisibility pass: the
    multiplicity of q in a map is the sum of those of the factors q divides."""
    basis = _reference_coprime_refine(dict.fromkeys(itertools.chain.from_iterable(factor_maps), 1))
    return {q: tuple(sum(k for p, k in fac.items() if q.divides(p)) for fac in factor_maps)
            for q in basis}


def _random_factor_maps(rng):
    """1-3 maps of squarefree monic factors, products of pairwise coprime
    atoms, drawn from a small pool so that maps repeat and share factors;
    multiplicities in -3..3, zero included."""
    t = SparsePoly.variable(0, 1)
    atoms = [t - GaussRat(a, b) for a, b in rng.sample([(a, b) for a in range(-3, 4)
                                                         for b in range(-2, 3)], 5)]
    atoms += [t**2 + 2, t**2 + t + 1]
    pool = []
    for _ in range(5):
        chosen = rng.sample(atoms, rng.randrange(1, 4))
        pool.append(canonical_scale(_reconstruct([(a, 1) for a in chosen], 1)))
    return [{p: rng.randrange(-3, 4) for p in rng.sample(pool, rng.randrange(1, 5))}
            for _ in range(rng.randrange(1, 4))]


def test_gcd_free_basis_matches_the_restart_loop_and_divisibility_pass(rng):
    from workbench.algebra.squarefree import gcd_free_basis

    for _ in range(60):
        maps = _random_factor_maps(rng)
        got = gcd_free_basis(maps)
        assert got == _reference_gcd_free_basis(maps), maps
        basis = list(got)
        assert all(gcd_poly(p, q).is_constant() for p, q in itertools.combinations(basis, 2))
        for i, fac in enumerate(maps):
            lhs = _reconstruct([(p, m) for p, m in fac.items() if m > 0], 1) * _reconstruct(
                [(q, -v[i]) for q, v in got.items() if v[i] < 0], 1)
            rhs = _reconstruct([(q, v[i]) for q, v in got.items() if v[i] > 0], 1) * _reconstruct(
                [(p, -m) for p, m in fac.items() if m < 0], 1)
            assert lhs == rhs


def test_gcd_free_basis_merges_equal_factors_without_a_gcd(monkeypatch):
    from workbench.algebra import squarefree

    t = SparsePoly.variable(0, 1)
    p, q = (t - 1) * (t + 2), t**2 + 2
    gcds = count_calls(monkeypatch, squarefree, "gcd_poly")
    got = squarefree.gcd_free_basis([{p: 2, q: 1}, {p: -1}, {q: 0}])
    assert got == {p: (2, -1, 0), q: (1, 0, 0)}
    # one gcd: q against p; p and q of the later maps merge by equality
    assert len(gcds) == 1
    assert squarefree.gcd_free_basis([]) == {}

