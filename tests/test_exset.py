import dataclasses
import functools
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
import sympy

from workbench import exset, nevanlinna
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import roots_certified
from workbench.errors import InternalContradiction, InvalidInput
from workbench.exset import (
    BetaValue,
    CurveSpec,
    NormalizedPair,
    Provenance,
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
from workbench.harness import witness_curves
from workbench.nevanlinna import MeroFn

from conftest import count_calls, to_sympy, two_close_roots, variables


def sphere():
    x0, x1, x2 = variables(3)
    return x0**2 + x1**2 + x2**2


def test_normalize_examples():
    p = normalize_pair(-3, 2)
    assert (p.n1, p.n2, p.a, p.b) == (-3, 2, 1, 2)
    p = normalize_pair(0, 5)
    assert (p.n1, p.n2, p.a, p.b) == (0, 1, 0, 1)
    p = normalize_pair(2, -4)
    assert (p.n1, p.n2, p.a, p.b) == (-2, 1, 0, 1)


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


def _normalize_pair_reference(n1, n2):
    """The search over four swap/flip candidates that normalize_pair ran
    before the sign rule."""
    g = math.gcd(n1, n2)
    m1, m2 = n1 // g, n2 // g
    for swap, flip in ((False, False), (True, False), (False, True), (True, True)):
        c1, c2 = (m2, m1) if swap else (m1, m2)
        if flip:
            c1, c2 = -c1, -c2
        if (c2 >= c1 >= 0) if c1 * c2 >= 0 else (0 < c2 <= -c1):
            return NormalizedPair(c1, c2, *exset._bezout_constrained(c1, c2))
    raise AssertionError(f"no normal form for ({n1}, {n2})")


def _enumerate_pairs_reference(ell2):
    """The box scan that enumerate_pairs ran before the closed form: every
    coprime point with |n1| + |n2| <= ell2, normalized and deduplicated."""
    seen = {}
    for n1 in range(-ell2, ell2 + 1):
        for n2 in range(-ell2, ell2 + 1):
            if 0 < abs(n1) + abs(n2) <= ell2 and math.gcd(n1, n2) == 1:
                p = _normalize_pair_reference(n1, n2)
                seen[(p.n1, p.n2)] = p
    return sorted(seen.values(), key=lambda p: (abs(p.n1) + abs(p.n2), p.n1, p.n2))


def test_normalize_pair_matches_the_candidate_search():
    for n1 in range(-40, 41):
        for n2 in range(-40, 41):
            if (n1, n2) != (0, 0):
                assert normalize_pair(n1, n2) == _normalize_pair_reference(n1, n2), (n1, n2)


def test_enumerate_pairs_matches_the_box_scan():
    for ell2 in range(1, 40):
        assert enumerate_pairs(ell2) == _enumerate_pairs_reference(ell2), ell2


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
    assert sorted(round(e.center.imag, 9) for e in loci.alphas.roots) == [-1.0, 1.0]
    assert loci.gammas.defining_poly == L**2 + 1
    assert not loci.leading.roots

    loci = beta_loci(substitute(G, normalize_pair(1, 1)))
    assert loci.alphas.defining_poly == L**2 - Fraction(1, 4)
    assert sorted(round(e.center.real, 9) for e in loci.alphas.roots) == [-0.5, 0.5]
    assert not loci.gammas.roots  # B(L, 0) = L^2: the zero root is dropped
    assert not loci.leading.roots

    loci = beta_loci(substitute(G, normalize_pair(-1, 1)))
    assert loci.alphas.defining_poly == L**2 + 1
    assert not loci.gammas.roots
    assert loci.leading.defining_poly == L**2 + 1


def _substitution_cases():
    x0, x1, x2 = variables(3)
    curves = [
        sphere(),
        x0**3 + x1**3 + x2**3,
        x0**2 + x1**2 + 2 * x2**2,
        x0**3 + x1**3 + x2**3 + x0 * x1 * x2,
        x0**2 + 3 * x1**2 + x2**2 + x0 * x1,
    ]
    pairs = [(0, 1), (1, 1), (-1, 1), (1, 2), (-2, 1), (-1, 2), (2, 3)]
    return [(G, normalize_pair(n1, n2)) for G in curves for n1, n2 in pairs]


def test_roundtrip_many_combinations():
    # >= 20 (curve, pair) combinations must satisfy the exact identity and
    # produce a squarefree core polynomial (asserted inside substitute)
    cases = _substitution_cases()
    for G, pair in cases:
        s = substitute(G, pair)
        assert s.roundtrip_holds()
        assert not dataclasses.replace(s, M1=s.M1 + 1).roundtrip_holds()
    assert len(cases) >= 20


def test_substitution_against_sympy():
    # the round trip inverts the same exponent map, so it cannot see a wrong
    # map; sympy expands G(1, L^a T^n2, L^b T^-n1) independently
    xs = sympy.symbols("x0 x1 x2")
    L, T = sympy.symbols("L T")
    for G, pair in _substitution_cases():
        s = substitute(G, pair)
        # (L T)^K clears every negative exponent of the image
        K = G.total_degree() * (abs(pair.a) + abs(pair.b) + abs(pair.n1) + abs(pair.n2))
        image = to_sympy(G, xs).subs(
            {xs[0]: 1, xs[1]: L**pair.a * T**pair.n2, xs[2]: L**pair.b * T**(-pair.n1)},
            simultaneous=True)
        monoms = sympy.Poly(sympy.expand(image * (L * T) ** K), L, T).monoms()
        M2 = min(m[0] for m in monoms) - K
        M1 = min(m[1] for m in monoms) - K
        assert (s.M1, s.M2) == (M1, M2)
        core = sympy.expand(image / (T**M1 * L**M2))
        assert sympy.expand(to_sympy(s.B, (L, T)) - core) == 0


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


def test_delta_lines_guard_a_top_form_with_a_coordinate_factor():
    # x1 x2 divides the chart form at x0 = 0, so it drops degree at x2 = 1;
    # validate_curve refuses this curve (it passes through e_1 and e_2)
    x0, x1, x2 = variables(3)
    G = x0**2 + x1 * x2
    with pytest.raises(InvalidInput):
        delta_lines(G)
    with pytest.raises(InternalContradiction, match="divisible by a coordinate"):
        exset._delta_lines(G)


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
                e, b = c._oriented({})
                out.add(("rel", e, round(b.center.real, 6), round(b.center.imag, 6)))
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
            eo, bo = moved._oriented({})
            mapped.add(("rel", eo, round(bo.center.real, 6), round(bo.center.imag, 6)))
    assert mapped == keyset(Wp)


def test_member_of_W_examples():
    W = build_W(sphere(), ell2=2)
    z = SparsePoly.variable(0, 1)
    one = MeroFn.constant(1)
    t = MeroFn.from_poly(z)

    matched = member_of_W(W, (one, t, MeroFn.constant(GaussRat(0, 1))))
    assert len(matched) == 1
    e, b = matched[0]._oriented({})
    assert sorted(e) == [-1, 0, 1]

    assert member_of_W(W, (one, t, MeroFn.from_poly(z + 1))) == []

    ez = MeroFn.unit(z)
    half_inv = MeroFn(scalar=GaussRat("1/2"), exp_part=-z)
    matched = member_of_W(W, (one, ez, half_inv))
    assert len(matched) == 1
    assert sorted(matched[0].exponents) == [-2, 1, 1]


def _membership_reference(W, curve):
    """``member_of_W`` by products and quotients: each relation g^e is one
    class function, which must be the constant beta (test oracle)."""
    matches = []
    for spec in W.curves:
        if spec.kind == "coordinate-line":
            if curve[spec.coord_index].is_zero():
                matches.append(spec)
            continue
        if any(e and g.is_zero() for e, g in zip(spec.exponents, curve)):
            continue
        lhs = rhs = MeroFn.constant(1)
        for g, e in zip(curve, spec.exponents):
            if e > 0:
                lhs = lhs * g**e
            elif e < 0:
                rhs = rhs * g ** (-e)
        ratio = lhs / rhs
        if (ratio.is_constant() and not ratio.exp_part
                and spec.beta.matches_constant(ratio.constant_value())):
            matches.append(spec)
    return matches


BENCH_BUILDS = (("sphere", 2), ("sphere", 3), ("sphere", 4), ("cubic", 2), ("cubic", 3),
                ("quartic", 2))


@functools.cache
def bench_set(name, bound):
    x0, x1, x2 = variables(3)
    G = {"sphere": sphere(), "cubic": x0**3 + x1**3 + x2**3 + x0 * x1 * x2,
         "quartic": quartic()}[name]
    return build_W(G, bound)


def _random_class_function(rng):
    """A scalar, up to two factors of multiplicity +-1..3 drawn from
    polynomials that share factors (z^2 - 1 = (z - 1)(z + 1), z^2 + z =
    z (z + 1)), and an exp part that is zero, constant or not."""
    z = SparsePoly.variable(0, 1)
    i = GaussRat(0, 1)
    polys = [z, z + 1, z - 1, z**2 - 1, z**2 + z, z**2 + 1, z - i, 2 * z + 1]
    scalars = [GaussRat(1), GaussRat(-1), GaussRat(2), GaussRat("1/2"), i, -i,
               GaussRat(1, 1), GaussRat("3/4")]
    exps = [SparsePoly.zero(1), SparsePoly.one(1), z, -z, 2 * z, z.scale(i), z**2]
    factors = [(rng.choice(polys), rng.choice([-3, -2, -1, 1, 2, 3]))
               for _ in range(rng.randrange(3))]
    return MeroFn(scalar=rng.choice(scalars), factors=factors, exp_part=rng.choice(exps))


def _queries(W, rng):
    """Witnesses of every curve that has one, the same witnesses times one
    random class function (g^e is unchanged, since e sums to zero), the
    witnesses with one component times another or times e (mostly misses),
    triples with a zero component in each place, random triples, and
    triples (p, exp(a z), q) that lie on no curve."""
    z = SparsePoly.variable(0, 1)
    zero = MeroFn.constant(0)
    out = []
    for spec in W.curves:
        for w in witness_curves(spec, count=1):
            f = _random_class_function(rng)
            out.append(w)
            out.append(tuple(f * c for c in w))
            k = rng.randrange(3)
            for bent in (_random_class_function(rng), MeroFn.unit(SparsePoly.one(1))):
                out.append(tuple(c * bent if j == k else c for j, c in enumerate(w)))
    for k in range(3):
        out.append(tuple(zero if j == k else MeroFn.from_poly(z + j) for j in range(3)))
        out.append(tuple(zero if j == k else _random_class_function(rng) for j in range(3)))
    out += [tuple(_random_class_function(rng) for _ in range(3)) for _ in range(6)]
    for a in (1, 2, GaussRat(1, -2)):
        p, q = z**2 + rng.randrange(1, 4) * z + 1, z**2 - GaussRat(0, rng.randrange(1, 4))
        out.append((MeroFn.from_poly(p), MeroFn.unit(z.scale(a)), MeroFn.from_poly(q)))
    return out


def test_member_of_W_agrees_with_products_and_quotients():
    rng = random.Random(29)
    hits = misses = 0
    for name, bound in BENCH_BUILDS:
        W = bench_set(name, bound)
        for curve in _queries(W, rng):
            got = member_of_W(W, curve)
            assert got == _membership_reference(W, curve), (name, bound, curve)
            hits += bool(got)
            misses += not got
    assert hits > 100 and misses > 100


def test_member_of_W_refines_once_and_multiplies_nothing(monkeypatch):
    W = bench_set("cubic", 3)
    spec = next(c for c in W.curves if c.kind == "monomial-relation" and witness_curves(c))
    f = _random_class_function(random.Random(3))
    curve = tuple(f * c for c in witness_curves(spec, count=1)[0])
    refinements = count_calls(monkeypatch, exset, "gcd_free_basis")
    products = [count_calls(monkeypatch, MeroFn, name)
                for name in ("__mul__", "__truediv__", "__pow__", "inverse")]
    assert spec in member_of_W(W, curve)
    assert len(refinements) == 1
    assert products == [[], [], [], []]


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
    roots = roots_certified(L**2 - Fraction(1, 4))
    rec = exset._reciprocal_enclosure(roots.roots[1])
    assert rec.center == pytest.approx(2.0)
    assert rec.exact == 2 and rec.radius == 0.0


def test_beta_reciprocal_covers_rounding():
    # the propagated radius alone (4.8e-17) misses 1/sqrt(2), 6.3e-17 from the float 1/c
    L = SparsePoly.variable(0, 1)
    for root in roots_certified(L**2 - 2).roots:
        rec = exset._reciprocal_enclosure(root)
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
    # a beta that many flipped curves share is inverted once: every call
    # inverts a distinct enclosure
    calls = count_calls(monkeypatch, exset, "_reciprocal_enclosure")
    W = build_W(sphere(), ell2=3)
    raw = sum(len(c.provenance) for c in W.curves)
    assert 0 < len(calls) == len(set(calls)) < raw


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
    # refused before counting the pairs, whose sieve is linear in ell2
    (sphere, {"ell2": 2**70}, "needs more than the limit of 2,000 chart solves"),
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


def test_dedup_keeps_exact_betas_apart_and_merges_equal_ones():
    # beta = 1 and beta = 1 + 10^-10 of one polynomial agree to 9 digits;
    # 1 + 10^-20 of another polynomial has the float centre 1.0 and a
    # radius-0 disk that touches the disk of 1; z^2 - 1 has the root 1 itself
    z = SparsePoly.variable(0, 1)
    f, gap, near_one, near_other = two_close_roots()
    big = GaussRat(10**20)
    g = big * z - (big + 1)
    h = z**2 - 1
    betas = [BetaValue(f, near_one), BetaValue(f, near_other),
             BetaValue(g, roots_certified(g).roots[0]),
             BetaValue(h, next(d for d in roots_certified(h).roots if d.exact == 1))]
    assert betas[2].enclosure.center == 1.0 and betas[2].enclosure.radius == 0.0
    curves = [CurveSpec(kind="monomial-relation", exponents=(-1, 1, 0), beta=beta,
                        provenance=(Provenance(pair=None, perm=None, locus="alphas",
                                               root_index=i),))
              for i, beta in enumerate(betas)]
    merged = exset._dedup(curves)
    assert len(merged) == 3
    assert {c.beta.enclosure.exact: len(c.provenance) for c in merged} == \
        {1: 2, 1 + gap: 1, 1 + GaussRat(Fraction(1, 10**20)): 1}


def test_dedup_keeps_irrational_betas_that_agree_to_nine_digits_apart():
    # the roots 1 -+ sqrt(2) 10^-11 of one polynomial round to 1.0 at 9 digits,
    # but their certified disks (radii about 4e-18 and 1e-16) are disjoint
    z = SparsePoly.variable(0, 1)
    f = z**2 - 2 * z + (1 - Fraction(2, 10**22))
    betas = [BetaValue(f, root) for root in roots_certified(f).roots]
    assert [round(b.enclosure.center.real, 9) for b in betas] == [1.0, 1.0]
    assert all(b.enclosure.exact is None for b in betas)
    curves = [CurveSpec(kind="monomial-relation", exponents=(-1, 1, 0), beta=beta,
                        provenance=(Provenance(pair=None, perm=None, locus="alphas",
                                               root_index=i),))
              for i, beta in enumerate(betas)]
    assert exset._dedup(curves) == tuple(curves)
