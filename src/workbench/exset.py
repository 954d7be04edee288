"""Explicit exceptional curve sets for plane curves in general position.

Pipeline: a coprime integer pair (n1, n2) is normalized (signs, index
order, constrained Bezout cofactors a, b with n1*a + n2*b = 1); the
dehomogenized curve G(1, X, Y) undergoes the monomial change of variables
X = L^a T^n2, Y = L^b T^(-n1), whose result is T^M1 * L^M2 * B(L, T) with
B a polynomial nonvanishing along both axes and squarefree.  The
degeneration loci in L (resultant of B with its T-derivative, the T = 0
slice, and the leading T-coefficient) produce the exceptional values beta;
each contributes a monomial-relation curve [x1^n1 x2^n2 = beta x0^(n1+n2)]
up to the recorded coordinate permutation.  Linear components come from the
top-degree forms of the three coordinate charts.  The union over all pairs
within the enumeration bound plus the coordinate lines is the exceptional
set: any curve of the class landing inside it defeats the truncated
counting inequalities, and membership is decidable exactly on the factored
function class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .algebra.euclid import canonical_scale, is_squarefree, monomial_variables, resultant
from .algebra.gaussrat import GaussRat
from .algebra.laurent import LaurentBivar
from .algebra.poly import SparsePoly
from .algebra.roots import AlgebraicRoots, RootEnclosure, factor_linear_forms, roots_certified
from .algebra.squarefree import squarefree_part
from .algebra import serialize
from .constants import choose_m
from .errors import InternalContradiction, InvalidInput
from .nevanlinna import MeroFn

# ---------------------------------------------------------------------------
# pair normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedPair:
    """A coprime exponent pair in normal form with constrained Bezout data.

    Invariants: gcd(n1, n2) = 1, n1*a + n2*b = 1, n2 >= n1 >= 0 when
    n1*n2 >= 0 and 0 < n2 <= -n1 otherwise; for n1 != 0 the cofactors
    satisfy 0 < b <= |n1| and |a| < n2; a < b always.  ``swap``/``flip``
    record the index exchange and simultaneous sign change applied to the
    input, ``gcd_removed`` the common factor divided out.
    """

    n1: int
    n2: int
    a: int
    b: int
    swap: bool = False
    flip: bool = False
    gcd_removed: int = 1

    def __post_init__(self):
        n1, n2, a, b = self.n1, self.n2, self.a, self.b
        assert math.gcd(n1, n2) == 1, "pair not coprime"
        assert n1 * a + n2 * b == 1, "Bezout identity fails"
        if n1 * n2 >= 0:
            assert n2 >= n1 >= 0, "sign normalization fails"
        else:
            assert 0 < n2 <= -n1, "mixed-sign normalization fails"
        if n1 != 0:
            assert 0 < b <= abs(n1) and abs(a) < n2, "cofactor constraints fail"
        else:
            assert (a, b) == (0, 1)
        assert a < b, "expected a < b"

    def ell1(self) -> int:
        return abs(self.n1) + abs(self.n2)


def _bezout_constrained(n1: int, n2: int) -> tuple[int, int]:
    if n1 == 0:
        return 0, 1
    mod = abs(n1)
    inv = pow(n2 % mod, -1, mod) if mod > 1 else 0
    b = (inv - 1) % mod + 1  # representative in (0, |n1|]
    a = (1 - n2 * b) // n1
    return a, b


def normalize_pair(n1: int, n2: int) -> NormalizedPair:
    """Normalize an integer pair (not both zero) to the canonical form."""
    if (n1, n2) == (0, 0):
        raise InvalidInput("pair (0, 0) is not admissible")
    g = math.gcd(n1, n2)
    m1, m2 = n1 // g, n2 // g
    for swap, flip in ((False, False), (True, False), (False, True), (True, True)):
        c1, c2 = (m2, m1) if swap else (m1, m2)
        if flip:
            c1, c2 = -c1, -c2
        if c1 * c2 >= 0:
            if not (c2 >= c1 >= 0):
                continue
        else:
            if not (0 < c2 <= -c1):
                continue
        a, b = _bezout_constrained(c1, c2)
        return NormalizedPair(c1, c2, a, b, swap=swap, flip=flip, gcd_removed=g)
    raise InternalContradiction(f"no normal form found for ({n1}, {n2})")


def enumerate_pairs(ell2: int) -> list[NormalizedPair]:
    """All normalized coprime pairs with |n1| + |n2| <= ell2, deterministic order."""
    if ell2 < 1:
        raise InvalidInput("enumeration bound must be >= 1")
    seen = {}
    for n1 in range(-ell2, ell2 + 1):
        for n2 in range(-ell2, ell2 + 1):
            if (n1, n2) == (0, 0) or abs(n1) + abs(n2) > ell2:
                continue
            if math.gcd(n1, n2) != 1:
                continue
            p = normalize_pair(n1, n2)
            seen[(p.n1, p.n2)] = NormalizedPair(p.n1, p.n2, p.a, p.b)
    return sorted(seen.values(), key=lambda p: (p.ell1(), p.n1, p.n2))


def pair_count(ell2: int) -> int:
    """``len(enumerate_pairs(ell2))`` for ell2 >= 1, without enumerating.

    The normalized pairs are the orbits of the coprime pairs under swap and
    sign flip.  There are 4 + 4 * S coprime pairs with |n1| + |n2| <= ell2,
    S the sum of phi(s) over 2 <= s <= ell2 (the pairs with n1, n2 >= 1 and
    n1 + n2 = s number phi(s)); the swap fixes +-(1, 1), the swap with the
    flip fixes +-(1, -1), so by Burnside's lemma there are 2 + S orbits
    when ell2 >= 2.
    """
    if ell2 < 2:
        return max(ell2, 0)
    phi = list(range(ell2 + 1))
    for p in range(2, ell2 + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, ell2 + 1, p):
                phi[k] -= phi[k] // p
    return 2 + sum(phi[2:])


# ---------------------------------------------------------------------------
# curve validation and substitution
# ---------------------------------------------------------------------------

def validate_curve(G: SparsePoly) -> None:
    """Hypotheses on the plane curve: homogeneous, reduced, no monomial
    factors, and in general position with the coordinate lines."""
    if G.num_vars != 3:
        raise InvalidInput("curve polynomial must have three variables")
    if not G or G.is_constant():
        raise InvalidInput("curve polynomial must be non-constant")
    if not G.is_homogeneous():
        raise InvalidInput("curve polynomial must be homogeneous")
    if monomial_variables(G):
        raise InvalidInput("curve has a monomial factor")
    if not is_squarefree(G):
        raise InvalidInput("curve has a repeated factor")
    for i in range(3):
        point = [GaussRat(0)] * 3
        point[i] = GaussRat(1)
        if not G.eval_exact(point):
            raise InvalidInput(
                f"curve passes through the coordinate point e_{i}; "
                "general position with the coordinate lines fails"
            )


@dataclass(frozen=True)
class SubstitutionResult:
    """Outcome of the monomial change of variables for one normalized pair."""

    pair: NormalizedPair
    G1: SparsePoly               # dehomogenized curve in (X, Y)
    M1: int
    M2: int
    B: SparsePoly                # polynomial in (L, T), axes-nonvanishing, squarefree

    def roundtrip_holds(self) -> bool:
        """Exact identity: substituting L = X^n1 Y^n2, T = X^b Y^-a back into
        T^M1 L^M2 B recovers G1."""
        back = LaurentBivar.from_poly(self.B).substitute_monomials(
            (self.pair.n1, self.pair.n2), (self.pair.b, -self.pair.a)
        )
        shift0 = self.pair.n1 * self.M2 + self.pair.b * self.M1
        shift1 = self.pair.n2 * self.M2 - self.pair.a * self.M1
        return back.shift(shift0, shift1) == LaurentBivar.from_poly(self.G1)


def dehomogenize(G: SparsePoly) -> SparsePoly:
    """G(1, X, Y) as a polynomial in two variables."""
    return G.substitute_var(0, GaussRat(1)).drop_var(0)


def substitute(G: SparsePoly, pair: NormalizedPair) -> SubstitutionResult:
    """Run the monomial change of variables X = L^a T^n2, Y = L^b T^(-n1).

    Validates the curve hypotheses, normalizes away the monomial content
    (powers M1 of T and M2 of L), checks the exact round-trip identity and
    asserts squarefreeness of the core polynomial B.
    """
    validate_curve(G)
    return _substitute(G, pair)


def _substitute(G: SparsePoly, pair: NormalizedPair) -> SubstitutionResult:
    """``substitute`` for a curve that already passed ``validate_curve``."""
    G1 = dehomogenize(G)
    image = LaurentBivar.from_poly(G1).substitute_monomials(
        (pair.a, pair.n2), (pair.b, -pair.n1)
    )
    M1 = image.min_exp(1)
    b_lambda = image.shift(0, -M1)
    M2 = b_lambda.min_exp(0)
    B = b_lambda.shift(-M2, 0).to_poly()
    if not B.coeffs_in(1)[0]:
        raise InternalContradiction("T = 0 slice vanished after normalization")
    if B.is_constant():
        raise InternalContradiction("core polynomial is constant; monomial factor slipped through")
    result = SubstitutionResult(pair, G1, M1, M2, B)
    if not result.roundtrip_holds():
        raise InternalContradiction("monomial substitution round-trip failed")
    if not is_squarefree(B):
        raise InternalContradiction(
            "core polynomial B is not squarefree; curve hypothesis violated"
        )
    return result


# ---------------------------------------------------------------------------
# beta loci
# ---------------------------------------------------------------------------

def _as_univar(p: SparsePoly, var: int) -> SparsePoly:
    """Collapse a polynomial that only involves ``var`` to one variable."""
    other = [v for v in range(p.num_vars) if v != var]
    if any(p.degree_in(v) > 0 for v in other):
        raise ValueError("polynomial involves more than the selected variable")
    return SparsePoly(1, {(e[var],): c for e, c in p.terms.items()})


def _strip_monic_squarefree(p: SparsePoly) -> SparsePoly:
    """Strip monomial content, take the squarefree part, scale monic."""
    if not p:
        return p
    shift = p.min_degree_in(0)
    if shift:
        p = SparsePoly(1, {(e[0] - shift,): c for e, c in p.terms.items()})
    if p.is_constant():
        return SparsePoly.one(1)
    return canonical_scale(squarefree_part(p))


def _roots_of(p: SparsePoly) -> AlgebraicRoots:
    canon = _strip_monic_squarefree(p)
    if not canon or canon.is_constant():
        return AlgebraicRoots(canon, ())
    return roots_certified(canon)


@dataclass(frozen=True)
class BetaLoci:
    """The three sources of exceptional values for one substitution."""

    alphas: AlgebraicRoots   # zeros of Res_T(B, dB/dT), monomial factors stripped
    gammas: AlgebraicRoots   # zeros of B(L, 0), zero roots dropped
    leading: AlgebraicRoots  # zeros of the leading T-coefficient (degeneration guard)

    def all_values(self):
        for name in ("alphas", "gammas", "leading"):
            locus: AlgebraicRoots = getattr(self, name)
            for idx, root in enumerate(locus.roots):
                yield name, idx, locus.defining_poly, root


def beta_loci(sub: SubstitutionResult) -> BetaLoci:
    """Compute the exceptional values attached to one substitution.

    The resultant is taken formally in L; the values L = 0 are never
    admissible and are stripped with the monomial content.  The roots of
    the T = 0 slice and of the leading T-coefficient are included as a
    conservative superset (the latter guards degree drops of the
    specialized polynomial).
    """
    B = sub.B
    res = resultant(B, B.partial_derivative(1), var=1)
    res_u = _as_univar(res, 0)
    if not res_u:
        raise InternalContradiction("resultant vanished identically; B not squarefree")
    alphas = _roots_of(res_u)
    gammas = _roots_of(_as_univar(B.coeffs_in(1)[0], 0))
    lead = B.leading_coeff_in(1)
    leading = _roots_of(_as_univar(lead, 0)) if not lead.is_constant() \
        else AlgebraicRoots(SparsePoly.one(1), ())
    return BetaLoci(alphas, gammas, leading)


# ---------------------------------------------------------------------------
# curve records
# ---------------------------------------------------------------------------

def _reverse_univar(p: SparsePoly) -> SparsePoly:
    """x^deg * p(1/x), canonically scaled; requires nonzero constant term."""
    deg = p.degree_in(0)
    if not p.terms.get((0,)):
        raise ValueError("reversal needs a nonzero constant term")
    return canonical_scale(SparsePoly(1, {(deg - e[0],): c for e, c in p.terms.items()}))


def _reciprocal_enclosure(r: RootEnclosure) -> RootEnclosure:
    c = r.center
    rho = abs(c)
    if rho <= 2 * r.radius:
        raise InvalidInput("cannot invert an enclosure that may contain zero")
    inv = 1 / c
    with mpmath.workdps(50):
        # |1/z - 1/c| <= radius / (|c| (|c| - radius)), plus the rounding of 1/c
        cm = mpmath.mpc(c)
        rad = mpmath.mpf(r.radius) / (abs(cm) * (abs(cm) - r.radius)) + abs(1 / cm - inv)
    exact = (GaussRat(1) / r.exact) if r.exact is not None and r.exact else None
    return RootEnclosure(inv, math.nextafter(float(rad), math.inf) if r.radius else 0.0,
                         r.multiplicity, exact=exact)


@dataclass(frozen=True)
class BetaValue:
    """An exceptional value beta: a certified root of an exact polynomial."""

    defining_poly: SparsePoly
    enclosure: RootEnclosure

    def reciprocal(self) -> "BetaValue":
        return BetaValue(_reverse_univar(self.defining_poly),
                         _reciprocal_enclosure(self.enclosure))

    def matches_constant(self, c: GaussRat) -> bool:
        """Exact vanishing test plus enclosure containment."""
        if not c:
            return False
        if self.defining_poly.eval_exact([c]):
            return False
        return self.enclosure.contains_exact(c)


@dataclass(frozen=True)
class Provenance:
    pair: tuple[int, int] | None
    perm: tuple[int, int, int] | None
    locus: str          # alpha | gamma | leading | delta | coordinate
    root_index: int = 0

    def describe(self) -> str:
        if self.locus == "coordinate":
            return "coordinate line"
        core = f"{self.locus}[{self.root_index}]"
        if self.pair is not None:
            core += f" of pair {self.pair}"
        if self.perm is not None and self.perm != (0, 1, 2):
            core += f" via chart {self.perm}"
        return core


_LOCUS_ORDER = {"coordinate": 0, "alpha": 1, "gamma": 2, "leading": 3, "delta": 4}


@dataclass(frozen=True)
class CurveSpec:
    """One closed curve of the exceptional set.

    ``kind`` is one of coordinate-line / line / monomial-relation.  For the
    latter two the curve is [prod x_i^max(e_i,0) = beta * prod
    x_i^max(-e_i,0)] with the exponent vector summing to zero.
    """

    kind: str
    exponents: tuple[int, int, int] | None
    beta: BetaValue | None
    coord_index: int | None = None
    provenance: tuple[Provenance, ...] = ()

    def canonical_key(self):
        return _exact_key(self, self._oriented())

    def _oriented(self) -> tuple[tuple[int, int, int], BetaValue] | None:
        """Exponents with first nonzero entry negative, and the matching beta;
        None for a coordinate line."""
        if self.kind == "coordinate-line":
            return None
        e = self.exponents
        first = next(v for v in e if v)
        if first > 0:
            return tuple(-v for v in e), self.beta.reciprocal()
        return e, self.beta

    def sort_key(self):
        prov = self.provenance[0]
        pair = prov.pair if prov.pair is not None else (0, 0)
        return (
            abs(pair[0]) + abs(pair[1]), pair[0], pair[1],
            _LOCUS_ORDER.get(prov.locus, 9), prov.root_index,
            self.exponents or (0, 0, 0),
            self.coord_index or 0,
        )

    def render(self) -> str:
        if self.kind == "coordinate-line":
            return f"[x{self.coord_index} = 0]"
        e = self.exponents
        lhs = "*".join(f"x{i}^{v}" if v > 1 else f"x{i}"
                       for i, v in enumerate(e) if v > 0) or "1"
        rhs = "*".join(f"x{i}^{-v}" if v < -1 else f"x{i}"
                       for i, v in enumerate(e) if v < 0) or "1"
        c = self.beta.enclosure.center
        return f"[{lhs} = beta*{rhs}], beta ~ {c:.6g}, root of {self.beta.defining_poly}"


@dataclass(frozen=True)
class ExceptionalSet:
    curves: tuple[CurveSpec, ...]
    source_poly: SparsePoly
    bound: int
    eps: Fraction | None = None

    def __len__(self):
        return len(self.curves)

    def describe(self) -> str:
        return "\n".join(c.render() for c in self.curves)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def delta_lines(G: SparsePoly) -> list[CurveSpec]:
    """Linear curves from the top-degree forms of all three coordinate charts.

    For the chart that drops x_i, the binary form G|_{x_i = 0} factors into
    linear forms x_j - delta x_k; general position makes every delta finite
    and nonzero.
    """
    validate_curve(G)
    return _delta_lines(G)


def _delta_lines(G: SparsePoly) -> list[CurveSpec]:
    """``delta_lines`` for a curve that already passed ``validate_curve``."""
    out = []
    for i in range(3):
        j, k = [v for v in range(3) if v != i]
        form = G.substitute_var(i, GaussRat(0)).drop_var(i)
        fact = factor_linear_forms(form)
        if fact.y_multiplicity:
            raise InternalContradiction(
                "top form divisible by a coordinate; general position violated"
            )
        slope_poly = canonical_scale(squarefree_part(fact.slopes.defining_poly))
        e = [0, 0, 0]
        e[j], e[k] = 1, -1
        for idx, root in enumerate(fact.slopes.roots):
            out.append(CurveSpec(
                kind="line", exponents=tuple(e), beta=BetaValue(slope_poly, root),
                provenance=(Provenance(pair=(-1, 1), perm=(i, j, k), locus="delta",
                                       root_index=idx),),
            ))
    return out


def _coordinate_lines() -> list[CurveSpec]:
    return [
        CurveSpec(kind="coordinate-line", exponents=None, beta=None, coord_index=i,
                  provenance=(Provenance(pair=None, perm=None, locus="coordinate",
                                         root_index=i),))
        for i in range(3)
    ]


_ALL_PERMS = tuple(itertools.permutations((0, 1, 2)))

# One chart solve (substitution and beta loci for one pair and one distinct
# chart polynomial) took 4 to 7 ms for the sphere at ell2 <= 45 and 0.05 to
# 0.1 s for the quartic x0^4+x1^4+x2^4+x0*x1*x2^2 at ell2 <= 12 (Python
# 3.11, 2-vCPU host), and the cost grows with ell2.  At 0.1 s per solve
# this limit is a few minutes of work; the shipped scenarios, the tests and
# the benchmark need at most 15 solves.
MAX_CHART_SOLVES = 2000


def build_W(G: SparsePoly, ell2: int | None = None,
            eps: Fraction | None = None) -> ExceptionalSet:
    """Assemble the exceptional set for a valid plane curve.

    Enumerates every normalized coprime pair with |n1| + |n2| <= ell2 and
    every assignment of coordinates to the chart roles (base coordinate and
    the ordered pair), collects monomial-relation curves for each
    exceptional value, adds the chart top-form lines and the coordinate
    lines, and deduplicates; dedup keys are exact (defining polynomial plus
    root) with an enclosure-overlap merge pass across distinct polynomials.
    When ``ell2`` is omitted it defaults to twice the working degree chosen
    for ``eps``.  G is validated once; a permutation of the variables keeps
    every hypothesis, so the charts are not validated again.
    """
    validate_curve(G)
    if ell2 is None:
        if eps is None:
            raise InvalidInput("need an enumeration bound or an epsilon")
        ell2 = 2 * choose_m(Fraction(eps), 2, G.total_degree())
    charts = [(perm, G.permute_vars(perm)) for perm in _ALL_PERMS]
    distinct = len({chart_G for _, chart_G in charts})
    pairs = pair_count(ell2)
    if pairs * distinct > MAX_CHART_SOLVES:
        raise InvalidInput(
            f"ell2 = {ell2} needs {pairs * distinct:,} chart solves ({pairs:,} pairs x "
            f"{distinct} distinct charts), above the limit of {MAX_CHART_SOLVES:,}; "
            "use a smaller ell2 or a larger eps")
    curves: list[CurveSpec] = list(_coordinate_lines())
    for pair in enumerate_pairs(ell2):
        # substitute and beta_loci depend only on (chart polynomial, pair),
        # so charts with an equal polynomial are solved once
        solved: dict[SparsePoly, BetaLoci] = {}
        for perm, chart_G in charts:
            loci = solved.get(chart_G)
            if loci is None:
                loci = solved[chart_G] = beta_loci(_substitute(chart_G, pair))
            base = (-(pair.n1 + pair.n2), pair.n1, pair.n2)
            exps = [0, 0, 0]
            for chart_pos, e in enumerate(base):
                exps[perm[chart_pos]] = e
            for locus_name, idx, poly, root in loci.all_values():
                beta = BetaValue(poly, root)
                curves.append(CurveSpec(
                    kind="monomial-relation", exponents=tuple(exps), beta=beta,
                    provenance=(Provenance(pair=(pair.n1, pair.n2), perm=perm,
                                           locus=locus_name, root_index=idx),),
                ))
    curves.extend(_delta_lines(G))
    return ExceptionalSet(_dedup(curves), G, ell2, Fraction(eps) if eps is not None else None)


def _exact_key(c: CurveSpec, oriented) -> tuple:
    if oriented is None:
        return ("coord", c.coord_index)
    e, beta = oriented
    return ("rel", e, beta.defining_poly,
            (round(beta.enclosure.center.real, 9), round(beta.enclosure.center.imag, 9)))


def _dedup(curves: list[CurveSpec]) -> tuple[CurveSpec, ...]:
    # each curve is oriented once; a merge keeps the first curve's exponents
    # and beta, so the first curve's orientation stays valid for the merge
    by_exact: dict = {}
    for c in sorted(curves, key=lambda c: c.sort_key()):
        oriented = c._oriented()
        key = _exact_key(c, oriented)
        prev = by_exact.get(key)
        by_exact[key] = (c, oriented) if prev is None else (_merge(prev[0], c), prev[1])
    # second pass: merge enclosure-overlapping relations with the same
    # oriented exponents but different defining polynomials; only curves in
    # one exponent group can merge, and each group keeps the pass order
    result: list[CurveSpec] = []
    groups: dict[tuple[int, int, int], list[tuple[int, RootEnclosure]]] = {}
    for c, oriented in by_exact.values():
        if oriented is None:
            result.append(c)
            continue
        e, beta = oriented
        rb = beta.enclosure
        group = groups.setdefault(e, [])
        for i, ra in group:
            if abs(ra.center - rb.center) <= ra.radius + rb.radius:
                result[i] = _merge(result[i], c)
                break
        else:
            group.append((len(result), rb))
            result.append(c)
    return tuple(sorted(result, key=lambda c: c.sort_key()))


def _merge(a: CurveSpec, b: CurveSpec) -> CurveSpec:
    prov = a.provenance + tuple(p for p in b.provenance if p not in a.provenance)
    return CurveSpec(kind=a.kind, exponents=a.exponents, beta=a.beta,
                     coord_index=a.coord_index, provenance=prov)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def member_of_W(W: ExceptionalSet, curve: tuple[MeroFn, MeroFn, MeroFn]) -> list[CurveSpec]:
    """Exactly decide which exceptional curves contain the image of the map.

    Components live in the factored meromorphic class, so each monomial
    relation g^e reduces to a single class element whose constancy and
    exact value are decidable; coordinate lines match identically-zero
    components.  An empty list means the image is not contained in any
    listed curve.
    """
    g = tuple(curve)
    if len(g) != 3:
        raise InvalidInput("expected a triple of class functions")
    if all(c.is_zero() for c in g):
        raise InvalidInput("all components vanish")
    matches = []
    for spec in W.curves:
        if spec.kind == "coordinate-line":
            if g[spec.coord_index].is_zero():
                matches.append(spec)
            continue
        if _relation_holds(spec, g):
            matches.append(spec)
    return matches


def _relation_holds(spec: CurveSpec, g) -> bool:
    lhs = MeroFn.constant(1)
    rhs = MeroFn.constant(1)
    for gi, e in zip(g, spec.exponents):
        if e > 0:
            if gi.is_zero():
                return False
            lhs = lhs * gi**e
        elif e < 0:
            if gi.is_zero():
                return False
            rhs = rhs * gi ** (-e)
    ratio = lhs / rhs
    if not ratio.is_constant() or ratio.exp_part:
        return False
    return spec.beta.matches_constant(ratio.constant_value())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

SCHEMA = "exceptional-set/1"


def exceptional_set_to_doc(W: ExceptionalSet) -> dict:
    curves = []
    for c in W.curves:
        entry = {"kind": c.kind}
        if c.kind == "coordinate-line":
            entry["index"] = c.coord_index
        else:
            entry["exponents"] = list(c.exponents)
            entry["beta_poly"] = serialize.poly_to_doc(c.beta.defining_poly)
            entry["beta_center"] = [c.beta.enclosure.center.real, c.beta.enclosure.center.imag]
            entry["beta_radius"] = c.beta.enclosure.radius
        entry["provenance"] = [p.describe() for p in c.provenance]
        curves.append(entry)
    doc = {
        "schema": SCHEMA,
        "bound": W.bound,
        "poly": serialize.poly_to_doc(W.source_poly),
        "curves": curves,
    }
    if W.eps is not None:
        doc["eps"] = str(W.eps)
    return doc
