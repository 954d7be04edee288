"""Power-monomial plane morphisms: ramification, position checks, pushforward.

A power morphism sends a plane point P to [F1^a1(P) : F2^a2(P) : F3^a3(P)]
with a_i = lcm(d1, d2, d3)/d_i, so all three components share the common
degree lcm(d1, d2, d3); it is a finite morphism exactly when the F_i have
no common zero.  The toolkit computes Jacobian determinants (full and
reduced), verifies the Euler-relation determinant identities, and decides
finiteness and general position with one exact incidence test,
``share_a_zero``: a resultant and its content, with no intersection point
computed.  It pushes an irreducible curve forward to its image
curve, the lowest-degree form whose pullback Z divides, found by exact
linear algebra modulo Z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .algebra.euclid import canonical_scale, content_in, resultant
from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .errors import InvalidInput


# ---------------------------------------------------------------------------
# the exact incidence test
# ---------------------------------------------------------------------------

def _require_forms(*forms: SparsePoly):
    for p in forms:
        if p.num_vars != 3 or not p or not p.is_homogeneous():
            raise InvalidInput("curves must be nonzero homogeneous forms in three variables")


def share_a_zero(F: SparsePoly, G: SparsePoly, H: SparsePoly) -> bool:
    """Whether three plane forms have a common zero in P^2, decided exactly.

    The shear x0 -> x0 + a x2, x1 -> x1 + b x2 with F(a, b, 1) != 0 (a
    nonzero form of degree d cannot vanish on all of {0..d}^2) makes F
    monic in x2 up to a constant, so R = Res_x2(F, G + tH) is c times the
    product of (G + tH)(p_i) over the points p_i of F above (x0 : x1).  R
    vanishes for every t exactly above the projections of the common zeros,
    a finite set of lines through (0 : 0 : 1) unless there are infinitely
    many; each t-coefficient of R is a binary form, so the forms share a
    zero exactly when R = 0 or the content of R in t is non-constant (Cox,
    Little & O'Shea, Using Algebraic Geometry, GTM 185, ch. 3).
    """
    _require_forms(F, G, H)
    d = F.total_degree()
    a, b = next(ab for ab in itertools.product(range(d + 1), repeat=2)
                if F.compose([*ab, 1], GaussRat.coerce))
    x0, x1, x2, t = (SparsePoly.variable(v, 4) for v in range(4))
    shear = (x0 + a * x2, x1 + b * x2, x2)
    F, G, H = (p.compose(shear, partial(SparsePoly.constant, num_vars=4)) for p in (F, G, H))
    R = resultant(F, G + t * H, 2)
    return not R or not content_in(R, 3).is_constant()


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
        if check_finite and share_a_zero(*F):
            raise InvalidInput("components share a zero; the morphism is not finite")
        return PowerMorphism(F, d, a)

    def powered_components(self) -> tuple[SparsePoly, SparsePoly, SparsePoly]:
        return tuple(p**a for p, a in zip(self.F, self.exponents))

    def apply_to_polys(self, polys: tuple[SparsePoly, SparsePoly, SparsePoly],
                       A: SparsePoly) -> SparsePoly:
        """Composition A(F1^a1, F2^a2, F3^a3)."""
        return A.compose(polys, partial(SparsePoly.constant, num_vars=polys[0].num_vars))


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
# general position
# ---------------------------------------------------------------------------

def general_position_check(curves: list[SparsePoly]) -> tuple[tuple[int, int, int], ...]:
    """The index triples (i, j, k) of curves that share a point.

    The curves are in general position, no point lying on three of them,
    exactly when the result is empty.
    """
    _require_forms(*curves)
    return tuple(ijk for ijk in itertools.combinations(range(len(curves)), 3)
                 if share_a_zero(*(curves[i] for i in ijk)))


# ---------------------------------------------------------------------------
# pushforward by the lowest-degree kernel
# ---------------------------------------------------------------------------

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
    # normal forms modulo Z of P_i1 * ... * P_ie, i1 <= ... <= ie, each from its prefix
    forms = {(): SparsePoly.one(3)}
    for e in range(1, P[0].total_degree() * Z.total_degree() + 1):
        forms = {c: divmod(forms[c[:-1]] * P[c[-1]], Z)[1]
                 for c in itertools.combinations_with_replacement(range(3), e)}
        basis = _kernel([f.terms for f in forms.values()])
        if len(basis) > 1:
            raise InvalidInput("the curve is contracted to a point by the morphism")
        if basis:
            return canonical_scale(SparsePoly(3, {
                (c.count(0), c.count(1), c.count(2)): v for c, v in zip(forms, basis[0])}))
    raise InvalidInput("no image curve of degree <= deg(m) * deg Z")
