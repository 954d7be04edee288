"""Power-monomial plane morphisms: ramification, position checks, pushforward.

A power morphism sends a plane point P to [F1^a1(P) : F2^a2(P) : F3^a3(P)]
with a_i = lcm(d1, d2, d3)/d_i, so all three components share the common
degree lcm(d1, d2, d3); it is a finite morphism exactly when the F_i have
no common zero.  The toolkit computes Jacobian determinants (full and
reduced), verifies the Euler-relation determinant identities, decides
general position and transversality at certified intersection points, and
pushes an irreducible curve forward to its image curve, the lowest-degree
form whose pullback Z divides, found by exact linear algebra modulo Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .algebra.euclid import canonical_scale, gcd_poly, resultant
from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .algebra.roots import factor_linear_forms, roots_certified
from .errors import InvalidInput, NonProperIntersection


# ---------------------------------------------------------------------------
# projective intersection points
# ---------------------------------------------------------------------------

# normalized points closer than this in every coordinate are one point
_SAME_POINT_TOL = 1e-8


@dataclass(frozen=True)
class ProjectivePoint:
    """An intersection point, normalized so the largest coordinate is 1.

    ``radius`` bounds the coordinate error (0 for exact points);
    ``exact`` carries Gaussian-rational coordinates when available.
    """

    coords: tuple[complex, complex, complex]
    radius: float
    exact: tuple[GaussRat, GaussRat, GaussRat] | None = None

    def close_to(self, other: "ProjectivePoint") -> bool:
        return max(abs(a - b) for a, b in zip(self.coords, other.coords)) <= _SAME_POINT_TOL


def _normalize_point(coords, radius, exact=None) -> ProjectivePoint:
    mags = [abs(c) for c in coords]
    k = mags.index(max(mags))
    scale = coords[k]
    out = tuple(c / scale for c in coords)
    ex = None
    if exact is not None:
        es = exact[k]
        ex = tuple(e / es for e in exact)
    return ProjectivePoint(out, radius, ex)


def _newton_polish_pair(f: SparsePoly, g: SparsePoly, x0: complex, y0: complex,
                        dps: int = 50):
    """Joint Newton refinement for the affine system f = g = 0."""
    fx, fy = f.partial_derivative(0), f.partial_derivative(1)
    gx, gy = g.partial_derivative(0), g.partial_derivative(1)
    with mpmath.workdps(dps):
        x, y = mpmath.mpc(x0), mpmath.mpc(y0)
        step_norm = mpmath.mpf(1)
        for _ in range(60):
            fv = _mp_eval(f, x, y)
            gv = _mp_eval(g, x, y)
            j11, j12 = _mp_eval(fx, x, y), _mp_eval(fy, x, y)
            j21, j22 = _mp_eval(gx, x, y), _mp_eval(gy, x, y)
            det = j11 * j22 - j12 * j21
            if det == 0:
                break
            dx = (fv * j22 - gv * j12) / det
            dy = (gv * j11 - fv * j21) / det
            x, y = x - dx, y - dy
            step_norm = mpmath.sqrt(abs(dx) ** 2 + abs(dy) ** 2)
            if step_norm < mpmath.mpf(10) ** (-(dps - 10)):
                break
        return complex(x), complex(y), float(2 * step_norm)


def _mp_eval(p: SparsePoly, x, y):
    acc = mpmath.mpc(0)
    for (e0, e1), c in p.terms.items():
        term = mpmath.mpc(complex(c))
        if e0:
            term *= x**e0
        if e1:
            term *= y**e1
        acc += term
    return acc


def intersection_points(F: SparsePoly, G: SparsePoly) -> list[ProjectivePoint]:
    """Certified-enclosure intersection points of two plane curves.

    Raises NonProperIntersection when the curves share a component.  Points
    are collected chart by chart: the line-at-infinity chart x0 = 0 via the
    gcd of binary forms (exact), the affine chart x0 = 1 via a resultant
    elimination, root pairing and joint Newton refinement.
    """
    for p, name in ((F, "first"), (G, "second")):
        if p.num_vars != 3 or not p or not p.is_homogeneous():
            raise InvalidInput(f"{name} curve must be a nonzero homogeneous form")
    if not gcd_poly(F, G, 0).is_constant():
        raise NonProperIntersection("curves share a common component")

    points: list[ProjectivePoint] = []

    # chart x0 = 0: common roots of two binary forms (exact via gcd); when a
    # curve contains the line itself, the intersections there are the other
    # form's zeros
    f0 = F.specialize(0, 0)
    g0 = G.specialize(0, 0)
    if not f0 and not g0:
        raise NonProperIntersection("both curves contain the line x0 = 0")
    if not f0:
        h = g0
    elif not g0:
        h = f0
    else:
        h = gcd_poly(f0, g0, 0)
    if not h.is_constant():
        fact = factor_linear_forms(h)
        for root in fact.slopes.roots:
            exact = None
            if root.exact is not None:
                exact = (GaussRat(0), root.exact, GaussRat(1))
            points.append(_normalize_point(
                (0j, root.center, 1.0 + 0j), root.radius, exact))
        if fact.y_multiplicity:
            points.append(_normalize_point(
                (0j, 1.0 + 0j, 0j), 0.0,
                (GaussRat(0), GaussRat(1), GaussRat(0))))

    # affine chart x0 = 1
    f = F.specialize(0, 1)
    g = G.specialize(0, 1)
    points.extend(_affine_intersections(f, g))
    return points


def _affine_intersections(f: SparsePoly, g: SparsePoly) -> list[ProjectivePoint]:
    if f.is_constant() or g.is_constant():
        return []
    if f.degree_in(1) == 0 and g.degree_in(1) == 0:
        # both y-free: the curves are unions of lines through the point at
        # infinity of the y-axis; a common affine point would force a common
        # line, already excluded, and the infinity point belongs to the
        # other chart
        return []
    if f.degree_in(1) == 0:
        f, g = g, f
    # a y-free second argument has the same x-root set as the resultant
    res = resultant(f, g, var=1) if g.degree_in(1) > 0 else g
    res_x = res.drop_var(1)
    if not res_x:
        raise NonProperIntersection("resultant vanished identically in the affine chart")
    if res_x.is_constant():
        return []
    points = []
    for root in roots_certified(res_x).roots:
        x0 = root.center
        fy = np.array([complex(c.eval([x0, 0])) for c in f.coeffs_in(1)][::-1])
        fy = np.trim_zeros(fy, "f")
        if fy.size <= 1:
            candidates = []
        else:
            candidates = list(np.roots(fy))
        for y0 in candidates:
            gval = abs(complex(g.eval([x0, y0])))
            scale = 1.0 + abs(x0) + abs(y0)
            if gval > 1e-5 * scale ** max(1, g.total_degree()):
                continue
            x1, y1, rad = _newton_polish_pair(f, g, x0, y0)
            resid = max(abs(complex(f.eval([x1, y1]))), abs(complex(g.eval([x1, y1]))))
            if resid > 1e-20 * scale ** max(f.total_degree(), g.total_degree()):
                continue
            pt = _normalize_point((1 + 0j, x1, y1), max(rad, root.radius))
            if not any(pt.close_to(q) for q in points):
                points.append(pt)
    return points


# ---------------------------------------------------------------------------
# power morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerMorphism:
    """The plane self-map [F1^a1 : F2^a2 : F3^a3], a_i = lcm(d_i)/d_i."""

    F: tuple[SparsePoly, SparsePoly, SparsePoly]
    degrees: tuple[int, int, int]
    exponents: tuple[int, int, int]

    @staticmethod
    def build(F1: SparsePoly, F2: SparsePoly, F3: SparsePoly,
              check_finite: bool = True) -> "PowerMorphism":
        F = (F1, F2, F3)
        for p in F:
            if p.num_vars != 3 or not p or not p.is_homogeneous() or p.is_constant():
                raise InvalidInput("components must be non-constant homogeneous forms")
        d = tuple(p.total_degree() for p in F)
        lcm = math.lcm(*d)
        a = tuple(lcm // di for di in d)
        m = PowerMorphism(F, d, a)
        if check_finite and m.common_zeros():
            raise InvalidInput("components share a zero; the morphism is not finite")
        return m

    def common_zeros(self) -> list[ProjectivePoint]:
        """Common zeros of all three components (empty for a finite morphism)."""
        pts = intersection_points(self.F[0], self.F[1])
        out = []
        for p in pts:
            val = self.F[2].eval(list(p.coords))
            bound = _poly_lipschitz(self.F[2], p.coords, p.radius)
            if abs(val) <= bound + 1e-12:
                out.append(p)
        return out

    def powered_components(self) -> tuple[SparsePoly, SparsePoly, SparsePoly]:
        return tuple(p**a for p, a in zip(self.F, self.exponents))

    def apply_to_polys(self, polys: tuple[SparsePoly, SparsePoly, SparsePoly],
                       A: SparsePoly) -> SparsePoly:
        """Composition A(F1^a1, F2^a2, F3^a3)."""
        P = polys
        acc = SparsePoly.zero(3)
        for expo, c in A.terms.items():
            term = SparsePoly.constant(c, 3)
            for p, e in zip(P, expo):
                if e:
                    term = term * p**e
            acc = acc + term
        return acc


def _poly_lipschitz(p: SparsePoly, center, radius: float) -> float:
    """Crude bound for |p(x) - p(center)| on the polydisk of the given radius."""
    if radius == 0:
        return 0.0
    grad_bound = 0.0
    for v in range(p.num_vars):
        d = p.partial_derivative(v)
        s = 0.0
        for expo, c in d.terms.items():
            term = abs(complex(c))
            for cv, e in zip(center, expo):
                term *= (abs(cv) + radius) ** e
            s += term
        grad_bound = max(grad_bound, s)
    return math.sqrt(p.num_vars) * grad_bound * radius


def jacobian_det(m: PowerMorphism, reduced: bool) -> SparsePoly:
    """Determinant of the Jacobian matrix of the morphism.

    reduced=True uses the bare components (rows grad F_i); reduced=False
    uses the powered components F_i^{a_i}.
    """
    comps = m.F if reduced else m.powered_components()
    rows = [[p.partial_derivative(j) for j in range(3)] for p in comps]
    return _det3(rows)


def _det3(rows) -> SparsePoly:
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def euler_identity_check(m: PowerMorphism) -> bool:
    """Exact Euler-relation identities for the morphism components.

    Checks sum_j dF_i/dx_j x_j = d_i F_i for each component and the
    column-replacement identity x0 * det(grad F) = det(d_i F_i | dF/dx1 |
    dF/dx2).
    """
    xs = [SparsePoly.variable(j, 3) for j in range(3)]
    for p, d in zip(m.F, m.degrees):
        lhs = SparsePoly.zero(3)
        for j in range(3):
            lhs = lhs + p.partial_derivative(j) * xs[j]
        if lhs != p.scale(d):
            return False
    G = jacobian_det(m, reduced=True)
    rows = [
        [p.scale(d), p.partial_derivative(1), p.partial_derivative(2)]
        for p, d in zip(m.F, m.degrees)
    ]
    return xs[0] * G == _det3(rows)


# ---------------------------------------------------------------------------
# general position / transversality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositionViolation:
    pair: tuple[int, int]
    other: int
    point: ProjectivePoint
    certified: bool  # False when the enclosure was too coarse to decide


@dataclass(frozen=True)
class GeneralPositionReport:
    in_general_position: bool
    violations: tuple[PositionViolation, ...]

    def __bool__(self):
        return self.in_general_position


def general_position_check(curves: list[SparsePoly]) -> GeneralPositionReport:
    """No point may lie on three of the listed curves.

    For every pair the intersection points are enclosed and every other
    curve is evaluated there; a value smaller than the enclosure-induced
    bound is reported as a violation (certified for exact points).
    """
    violations = []
    for (i, F), (j, G) in itertools.combinations(enumerate(curves), 2):
        pts = intersection_points(F, G)
        for k, H in enumerate(curves):
            if k in (i, j):
                continue
            for p in pts:
                if p.exact is not None:
                    if not H.eval_exact(list(p.exact)):
                        violations.append(PositionViolation((i, j), k, p, True))
                    continue
                val = abs(H.eval(list(p.coords)))
                bound = _poly_lipschitz(H, p.coords, max(p.radius, 1e-30))
                if val <= bound:
                    violations.append(PositionViolation((i, j), k, p, False))
                elif val <= 1e-9:
                    # numerically tiny but not certified either way
                    violations.append(PositionViolation((i, j), k, p, False))
    return GeneralPositionReport(not violations, tuple(violations))


@dataclass(frozen=True)
class TransversalityRecord:
    point: ProjectivePoint
    minor: complex
    verdict: str  # transversal | tangential | undecided


def transversality_check(F1: SparsePoly, F2: SparsePoly) -> list[TransversalityRecord]:
    """Decide transversality of two curves at each intersection point.

    The 2x2 Jacobian minor is evaluated in an affine chart containing the
    point.  Exact points yield exact verdicts (tangential on exact zero);
    numeric enclosures certify only nonvanishing, so a minor that cannot be
    bounded away from zero reports undecided.
    """
    records = []
    for p in intersection_points(F1, F2):
        chart = max(range(3), key=lambda k: abs(p.coords[k]))
        rest = [v for v in range(3) if v != chart]
        f = F1.specialize(chart, 1)
        g = F2.specialize(chart, 1)
        minor_poly = (f.partial_derivative(0) * g.partial_derivative(1)
                      - f.partial_derivative(1) * g.partial_derivative(0))
        if p.exact is not None:
            coords = [p.exact[rest[0]] / p.exact[chart], p.exact[rest[1]] / p.exact[chart]]
            val = minor_poly.eval_exact(coords)
            verdict = "transversal" if val else "tangential"
            records.append(TransversalityRecord(p, complex(val), verdict))
            continue
        coords = (p.coords[rest[0]] / p.coords[chart], p.coords[rest[1]] / p.coords[chart])
        val = complex(minor_poly.eval(list(coords)))
        bound = _poly_lipschitz(minor_poly, coords, max(p.radius, 1e-30))
        if abs(val) > bound:
            records.append(TransversalityRecord(p, val, "transversal"))
        else:
            records.append(TransversalityRecord(p, val, "undecided"))
    return records


# ---------------------------------------------------------------------------
# pushforward by the lowest-degree kernel
# ---------------------------------------------------------------------------

def _normal_form(terms: dict, lead, tail) -> dict:
    """Remainder of a polynomial (exponent -> coefficient) modulo Z.

    Z, scaled to be monic at its lex-leading exponent ``lead``, is x^lead
    minus the terms in ``tail``.  Each step cancels the largest term that
    ``lead`` divides; a single polynomial is a Groebner basis of its ideal,
    so the remainder is unique and linear in the input.
    """
    rem, pending = {}, dict(terms)
    while pending:
        e = max(pending)
        c = pending.pop(e)
        if not c:
            continue
        shift = tuple(a - b for a, b in zip(e, lead))
        if min(shift) < 0:
            rem[e] = c
            continue
        for t, tc in tail:
            k = tuple(a + b for a, b in zip(shift, t))
            pending[k] = pending[k] + c * tc if k in pending else c * tc
    return rem


def _kernel(columns: list[dict]) -> list[list[GaussRat]]:
    """A basis of the kernel of the matrix with these sparse columns (Gauss-Jordan)."""
    M = [[col.get(k, GaussRat(0)) for col in columns]
         for k in {k for col in columns for k in col}]
    pivots: list[int] = []
    for j in range(len(columns)):
        r = len(pivots)
        p = next((i for i in range(r, len(M)) if M[i][j]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        M[r] = [v / M[r][j] for v in M[r]]
        M = [row if i == r or not row[j] else [a - row[j] * b for a, b in zip(row, M[r])]
             for i, row in enumerate(M)]
        pivots.append(j)
    basis = []
    for j in sorted(set(range(len(columns))) - set(pivots)):
        v = [GaussRat(int(i == j)) for i in range(len(columns))]
        for r, pj in enumerate(pivots):
            v[pj] = -M[r][j]
        basis.append(v)
    return basis


def pushforward_curve(m: PowerMorphism, Z: SparsePoly) -> SparsePoly:
    """The image curve A of Z under the morphism, by the lowest-degree kernel.

    The forms B with Z | B(F1^a1, F2^a2, F3^a3) make up the ideal of the
    image of Z, generated by A when Z is irreducible (a user assertion).
    So A spans the kernel of B -> (B o m mod Z) on the forms of the lowest
    degree e <= deg(m) * deg Z where that kernel is nonzero; it is scaled
    so its lex-leading coefficient is 1.  A non-dominant morphism (zero
    Jacobian determinant) and a curve contracted to a point (a kernel of
    dimension >= 2) raise InvalidInput.
    """
    if Z.num_vars != 3 or not Z or not Z.is_homogeneous() or Z.is_constant():
        raise InvalidInput("curve must be a non-constant homogeneous form")
    if not jacobian_det(m, reduced=True):
        raise InvalidInput("the morphism components are algebraically dependent")
    P = m.powered_components()
    lead = max(Z.terms)
    tail = [(e, -c / Z.terms[lead]) for e, c in Z.terms.items() if e != lead]
    # normal forms of P_i1 * ... * P_ie, i1 <= ... <= ie, each from its prefix
    forms = {(): {(0, 0, 0): GaussRat(1)}}
    for e in range(1, P[0].total_degree() * Z.total_degree() + 1):
        forms = {c: _normal_form((SparsePoly(3, forms[c[:-1]]) * P[c[-1]]).terms, lead, tail)
                 for c in itertools.combinations_with_replacement(range(3), e)}
        basis = _kernel(list(forms.values()))
        if len(basis) > 1:
            raise InvalidInput("the curve is contracted to a point by the morphism")
        if basis:
            return canonical_scale(SparsePoly(3, {
                (c.count(0), c.count(1), c.count(2)): v for c, v in zip(forms, basis[0])}))
    raise InvalidInput("no image curve of degree <= deg(m) * deg Z")
