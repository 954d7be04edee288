import math
import re
from fractions import Fraction

import mpmath
import pytest

from workbench import exset
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.errors import InvalidInput
from workbench.exset import (
    BetaValue,
    beta_loci,
    build_W,
    delta_lines,
    enumerate_pairs,
    exceptional_set_to_doc,
    member_of_W,
    normalize_pair,
    pair_count,
    substitute,
)
from workbench.nevanlinna import MeroFn

from conftest import count_calls, two_close_roots, variables


def sphere():
    x0, x1, x2 = variables(3)
    return x0**2 + x1**2 + x2**2


def test_normalize_examples():
    p = normalize_pair(-3, 2)
    assert (p.n1, p.n2, p.a, p.b) == (-3, 2, 1, 2)
    p = normalize_pair(0, 5)
    assert (p.n1, p.n2, p.a, p.b, p.gcd_removed) == (0, 1, 0, 1, 5)
    p = normalize_pair(2, -4)
    assert (p.n1, p.n2) == (-2, 1)
    assert p.gcd_removed == 2 and (p.swap or p.flip)


def test_normalize_invariants_hold(rng):
    for _ in range(200):
        n1 = rng.randrange(-9, 10)
        n2 = rng.randrange(-9, 10)
        if (n1, n2) == (0, 0):
            continue
        p = normalize_pair(n1, n2)  # __post_init__ asserts all constraints
        assert math.gcd(p.n1, p.n2) == 1
        assert p.a < p.b
    with pytest.raises(InvalidInput):
        normalize_pair(0, 0)


def test_enumerate_pairs_bound_two():
    pairs = [(p.n1, p.n2) for p in enumerate_pairs(2)]
    assert pairs == [(0, 1), (-1, 1), (1, 1)]


def test_substitution_worked_examples():
    G = sphere()
    L, T = variables(2)
    s = substitute(G, normalize_pair(0, 1))
    assert (s.M1, s.M2) == (0, 0)
    assert s.B == 1 + L**2 + T**2
    s = substitute(G, normalize_pair(1, 1))
    assert (s.M1, s.M2) == (-2, 0)
    assert s.B == T**4 + T**2 + L**2
    s = substitute(G, normalize_pair(-1, 1))
    assert s.B == 1 + (1 + L**2) * T**2


def test_substitution_rejects_bad_curves():
    x0, x1, x2 = variables(3)
    with pytest.raises(InvalidInput):
        substitute(x0 * x1**2, normalize_pair(0, 1))  # monomial factor
    with pytest.raises(InvalidInput):
        substitute((x0 + x1) ** 2 * (x0 + x2), normalize_pair(0, 1))  # repeated
    with pytest.raises(InvalidInput):
        substitute(x0**2 + x1**2, normalize_pair(0, 1))  # through e_2
    with pytest.raises(InvalidInput):
        substitute(x0**2 + x1 * x2 + x1**2, normalize_pair(0, 1))


def test_beta_loci_worked_examples():
    G = sphere()
    L = SparsePoly.variable(0, 1)

    loci = beta_loci(substitute(G, normalize_pair(0, 1)))
    assert loci.alphas.defining_poly == L**2 + 1
    assert sorted(round(c.imag, 9) for c in loci.alphas.centers()) == [-1.0, 1.0]
    assert loci.gammas.defining_poly == L**2 + 1
    assert not loci.leading.roots

    loci = beta_loci(substitute(G, normalize_pair(1, 1)))
    assert loci.alphas.defining_poly == L**2 - Fraction(1, 4)
    assert sorted(round(c.real, 9) for c in loci.alphas.centers()) == [-0.5, 0.5]
    assert not loci.gammas.roots  # B(L, 0) = L^2: the zero root is dropped
    assert not loci.leading.roots

    loci = beta_loci(substitute(G, normalize_pair(-1, 1)))
    assert loci.alphas.defining_poly == L**2 + 1
    assert not loci.gammas.roots
    assert loci.leading.defining_poly == L**2 + 1


def test_roundtrip_many_combinations(rng):
    # >= 20 (curve, pair) combinations must satisfy the exact identity and
    # produce a squarefree core polynomial (asserted inside substitute)
    x0, x1, x2 = variables(3)
    curves = [
        sphere(),
        x0**3 + x1**3 + x2**3,
        x0**2 + x1**2 + 2 * x2**2,
        x0**3 + x1**3 + x2**3 + x0 * x1 * x2,
        x0**2 + 3 * x1**2 + x2**2 + x0 * x1,
    ]
    pairs = [(0, 1), (1, 1), (-1, 1), (1, 2), (-2, 1), (-1, 2), (2, 3)]
    combos = 0
    for G in curves:
        for n1, n2 in pairs:
            s = substitute(G, normalize_pair(n1, n2))
            assert s.roundtrip_holds()
            combos += 1
    assert combos >= 20


def test_delta_lines_sphere():
    lines = delta_lines(sphere())
    assert len(lines) == 6
    for c in lines:
        assert c.kind == "line"
        assert sum(c.exponents) == 0
        assert sorted(c.exponents) == [-1, 0, 1]
        assert abs(abs(c.beta.enclosure.center) - 1.0) < 1e-9  # slopes +-i


def test_delta_lines_cubic():
    x0, x1, x2 = variables(3)
    lines = delta_lines(x0**3 + x1**3 + x2**3)
    # three charts, three cube roots of -1 each
    assert len(lines) == 9
    for c in lines:
        assert abs(abs(c.beta.enclosure.center) - 1.0) < 1e-9


def test_delta_lines_linear_curve():
    x0, x1, x2 = variables(3)
    lines = delta_lines(x0 + x1 + x2)
    assert len(lines) == 3
    for c in lines:
        val = c.beta.enclosure.center
        assert val == pytest.approx(-1.0)


def test_build_W_sphere_exact_contents():
    W = build_W(sphere(), ell2=2)
    assert len(W) == 15
    kinds = {}
    for c in W.curves:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    assert kinds["coordinate-line"] == 3
    # six lines x_j = +-i x_k and six relations x_j x_k = +-1/2 x_l^2
    rel = [c for c in W.curves if c.kind == "monomial-relation"]
    lin = [c for c in W.curves if c.kind == "line"]
    assert len(rel) + len(lin) == 12
    quad = [c for c in rel if sorted(c.exponents) == [-2, 1, 1]]
    assert len(quad) == 6
    for c in quad:
        assert abs(abs(c.beta.enclosure.center) - 0.5) < 1e-9
    ones = [c for c in W.curves if c.kind in ("line", "monomial-relation")
            and sorted(c.exponents) == [-1, 0, 1]]
    assert len(ones) == 6
    for c in ones:
        assert abs(abs(c.beta.enclosure.center) - 1.0) < 1e-9


def test_build_W_floor_enumeration():
    x0, x1, x2 = variables(3)
    G = x0**2 + x1**2 + 2 * x2**2
    W = build_W(G, ell2=1)
    assert any(c.kind == "coordinate-line" for c in W.curves)
    assert any(c.kind != "coordinate-line" for c in W.curves)


def test_build_W_symmetry():
    # build_W(sigma G) = sigma build_W(G) as curve sets
    x0, x1, x2 = variables(3)
    G = x0**2 + x1**2 + 2 * x2**2
    W = build_W(G, ell2=2)
    perm = (1, 2, 0)
    Wp = build_W(G.permute_vars(perm), ell2=2)

    def keyset(W_, apply=None):
        out = set()
        for c in W_.curves:
            if c.kind == "coordinate-line":
                idx = c.coord_index
                if apply:
                    idx = apply.index(idx) if idx in apply else idx
                out.add(("coord", idx))
            else:
                e, b = c._oriented()
                out.add(("rel", e, round(b.enclosure.center.real, 6),
                         round(b.enclosure.center.imag, 6)))
        return out

    # permute W's curves into the sigma-world and compare
    mapped = set()
    for c in W.curves:
        if c.kind == "coordinate-line":
            mapped.add(("coord", perm.index(c.coord_index)))
        else:
            e = [0, 0, 0]
            for newpos in range(3):
                e[newpos] = c.exponents[perm[newpos]]
            from workbench.exset import CurveSpec

            moved = CurveSpec(kind=c.kind, exponents=tuple(e), beta=c.beta,
                              provenance=c.provenance)
            eo, bo = moved._oriented()
            mapped.add(("rel", eo, round(bo.enclosure.center.real, 6),
                        round(bo.enclosure.center.imag, 6)))
    assert mapped == keyset(Wp)


def test_member_of_W_examples():
    W = build_W(sphere(), ell2=2)
    z = SparsePoly.variable(0, 1)
    one = MeroFn.constant(1)
    t = MeroFn.from_poly(z)

    matched = member_of_W(W, (one, t, MeroFn.constant(GaussRat(0, 1))))
    assert len(matched) == 1
    e, b = matched[0]._oriented()
    assert sorted(e) == [-1, 0, 1]

    assert member_of_W(W, (one, t, MeroFn.from_poly(z + 1))) == []

    ez = MeroFn.unit(z)
    half_inv = MeroFn(scalar=GaussRat("1/2"), exp_part=-z)
    matched = member_of_W(W, (one, ez, half_inv))
    assert len(matched) == 1
    assert sorted(matched[0].exponents) == [-2, 1, 1]


def test_member_coordinate_line():
    W = build_W(sphere(), ell2=1)
    z = SparsePoly.variable(0, 1)
    matched = member_of_W(W, (MeroFn.constant(0), MeroFn.from_poly(z), MeroFn.constant(1)))
    assert any(c.kind == "coordinate-line" and c.coord_index == 0 for c in matched)


def test_gamma_zero_never_emitted():
    W = build_W(sphere(), ell2=2)
    for c in W.curves:
        if c.kind != "coordinate-line":
            assert abs(c.beta.enclosure.center) > 1e-9


def test_beta_reciprocal_is_exact():
    L = SparsePoly.variable(0, 1)
    from workbench.algebra.roots import roots_certified

    roots = roots_certified(L**2 - Fraction(1, 4))
    bv = BetaValue(L**2 - Fraction(1, 4), roots.roots[1])
    rec = bv.reciprocal()
    assert rec.defining_poly == L**2 - 4
    assert rec.enclosure.center == pytest.approx(2.0)


def test_beta_reciprocal_covers_rounding():
    # the propagated radius alone (4.8e-17) misses 1/sqrt(2), 6.3e-17 from the float 1/c
    L = SparsePoly.variable(0, 1)
    from workbench.algebra.roots import roots_certified

    for root in roots_certified(L**2 - 2).roots:
        rec = BetaValue(L**2 - 2, root).reciprocal().enclosure
        with mpmath.workdps(50):
            exact = mpmath.sign(root.center.real) / mpmath.sqrt(2)
            assert abs(exact - mpmath.mpc(rec.center)) <= mpmath.mpf(rec.radius)


def test_serialization_schema():
    W = build_W(sphere(), ell2=1)
    doc = exceptional_set_to_doc(W)
    assert doc["schema"].startswith("exceptional-set/")
    assert doc["bound"] == 1
    assert len(doc["curves"]) == len(W)
    kinds = {c["kind"] for c in doc["curves"]}
    assert "coordinate-line" in kinds


def test_build_W_needs_bound_or_eps():
    with pytest.raises(InvalidInput):
        build_W(sphere())


def test_substitution_result_invariants():
    s = substitute(sphere(), normalize_pair(1, 2))
    # B polynomial, nonvanishing along both axes, squarefree (asserted inside)
    assert s.B.coeffs_in(1)[0]
    assert s.B.coeffs_in(0)[0]


def test_dedup_merges_provenance_across_loci():
    # the chart top-form lines coincide with the (-1,1)-pair degeneration
    # loci; deduplication must merge them and keep both provenance records
    W = build_W(sphere(), ell2=2)
    line_like = [c for c in W.curves
                 if c.kind != "coordinate-line" and sorted(c.exponents) == [-1, 0, 1]]
    assert any(len(c.provenance) >= 2 for c in line_like)
    loci_names = {p.locus for c in line_like for p in c.provenance}
    assert "delta" in loci_names or "leading" in loci_names


def test_build_W_orients_each_raw_curve_at_most_once(monkeypatch):
    calls = count_calls(monkeypatch, exset, "_reverse_univar")
    W = build_W(sphere(), ell2=3)
    raw = sum(len(c.provenance) for c in W.curves)
    assert 0 < len(calls) <= raw


def quartic():
    x0, x1, x2 = variables(3)
    return x0**4 + x1**4 + x2**4 + x0 * x1 * x2**2


@pytest.mark.parametrize("curve, ell2, charts", [
    (sphere, 3, 1),   # all six charts of the sphere are one polynomial
    (quartic, 2, 3),  # the quartic has three distinct charts of six
])
def test_build_W_solves_each_distinct_chart_once_per_pair(monkeypatch, curve, ell2, charts):
    calls = count_calls(monkeypatch, exset, "beta_loci")
    build_W(curve(), ell2=ell2)
    assert len(calls) == charts * len(enumerate_pairs(ell2))


@pytest.mark.parametrize("curve", [sphere, quartic])
def test_build_W_validates_the_curve_once(monkeypatch, curve):
    calls = count_calls(monkeypatch, exset, "validate_curve")
    build_W(curve(), ell2=3)
    assert len(calls) == 1
    # the public steps still validate their input themselves
    x0, x1, _ = variables(3)
    with pytest.raises(InvalidInput):
        substitute(x0**2 + x1**2, normalize_pair(0, 1))
    with pytest.raises(InvalidInput):
        delta_lines(x0**2 + x1**2)
    assert len(calls) == 3


def test_pair_count_matches_the_enumeration():
    assert [pair_count(ell2) for ell2 in range(1, 41)] == \
        [len(enumerate_pairs(ell2)) for ell2 in range(1, 41)]


@pytest.mark.parametrize("curve, kwargs, message", [
    # eps = 1/2 gives ell2 = 252; the six charts of the sphere are one polynomial
    (sphere, {"eps": Fraction(1, 2)}, "19,347 chart solves (19,347 pairs x 1 distinct"),
    (quartic, {"ell2": 50}, "2,325 chart solves (775 pairs x 3 distinct"),
])
def test_build_W_refuses_an_enumeration_that_cannot_finish(monkeypatch, curve, kwargs, message):
    calls = count_calls(monkeypatch, exset, "_substitute")
    with pytest.raises(InvalidInput, match=re.escape(message)):
        build_W(curve(), **kwargs)
    assert calls == []
    assert pair_count(50) <= exset.MAX_CHART_SOLVES < 3 * pair_count(50)


def test_matches_constant_rejects_the_neighbouring_root():
    # both constants are roots of the defining polynomial; only 1 is in the disk
    f, gap, near_one, _ = two_close_roots()
    beta = BetaValue(f, near_one)
    assert beta.matches_constant(GaussRat(1))
    assert not beta.matches_constant(GaussRat(1) + gap)
