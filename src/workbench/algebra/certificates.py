"""Effective Nullstellensatz certificates for coprime binary forms.

Given homogeneous F, G in two variables (Z, U) over a commutative ring A,
produce an exponent s, a nonzero R in A, and cofactors with

    Z^s * R = P1*F + P2*G        and        U^s * R = Q1*F + Q2*G.

Both identities come from the cofactor run of the one subresultant PRS
(``euclid._subresultant_prs``), taken directly on the binary forms, so no
division leaves the coefficient ring.  The PRS keeps forms homogeneous:
eliminating U ends in R_z * Z^s_z with homogeneous cofactors, and
eliminating Z ends in R_u * U^s_u.  The two are glued with R = R_z * R_u.
Every certificate is re-verified by exact expansion before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CoprimalityError, InternalContradiction
from .euclid import _subresultant_prs
from .poly import SparsePoly


@dataclass(frozen=True)
class NullstellensatzCertificate:
    s: int
    R: object  # element of A
    P1: SparsePoly
    P2: SparsePoly
    Q1: SparsePoly
    Q2: SparsePoly

    def verify(self, F: SparsePoly, G: SparsePoly) -> bool:
        Z = SparsePoly.variable(0, 2)
        U = SparsePoly.variable(1, 2)
        lhs_z = (Z**self.s).scale(self.R)
        lhs_u = (U**self.s).scale(self.R)
        return (
            lhs_z == self.P1 * F + self.P2 * G
            and lhs_u == self.Q1 * F + self.Q2 * G
        )


def _eliminate(F: SparsePoly, G: SparsePoly, var: int):
    """(s, R, a, b) with R * X^s = a*F + b*G, X the binary variable other than ``var``."""
    if F.degree_in(var) < G.degree_in(var):
        s, R, b, a = _eliminate(G, F, var)
        return s, R, a, b
    if G.degree_in(var) == 0:
        last, a, b = G, SparsePoly.zero(2), SparsePoly.one(2)
    else:
        last, a, b = _subresultant_prs(F, G, var, cofactors=True)
    if last.degree_in(var) > 0:
        raise CoprimalityError("forms share a nonconstant factor")
    # homogeneous and free of var, so a single term R * X^s
    (expo, R), = last.terms.items()
    return expo[1 - var], R, a, b


def nullstellensatz_certificate(F: SparsePoly, G: SparsePoly) -> NullstellensatzCertificate:
    """Certifying data for coprime homogeneous binary forms.

    Raises CoprimalityError when F and G share a factor (including a common
    coordinate factor Z or U).  The returned identities are checked by exact
    expansion; failure there raises InternalContradiction.
    """
    if F.num_vars != 2 or G.num_vars != 2:
        raise ValueError("expected binary forms")
    if not F.is_homogeneous() or not G.is_homogeneous():
        raise ValueError("expected homogeneous forms")
    if not F or not G:
        raise CoprimalityError("zero form")
    if F.min_degree_in(0) >= 1 and G.min_degree_in(0) >= 1:
        raise CoprimalityError("common factor: first variable divides both forms")
    if F.min_degree_in(1) >= 1 and G.min_degree_in(1) >= 1:
        raise CoprimalityError("common factor: second variable divides both forms")

    sz, Rz, P1, P2 = _eliminate(F, G, var=1)
    su, Ru, Q1, Q2 = _eliminate(F, G, var=0)
    s = max(sz, su)
    Z = SparsePoly.variable(0, 2)
    U = SparsePoly.variable(1, 2)
    # glue to a single R: scale each identity by the other elimination's R
    # and top up the coordinate powers to the common exponent s
    R = Rz * Ru
    P1g = P1.scale(Ru) * Z ** (s - sz)
    P2g = P2.scale(Ru) * Z ** (s - sz)
    Q1g = Q1.scale(Rz) * U ** (s - su)
    Q2g = Q2.scale(Rz) * U ** (s - su)
    cert = NullstellensatzCertificate(s, R, P1g, P2g, Q1g, Q2g)
    if not cert.verify(F, G):
        raise InternalContradiction("certificate identities failed exact expansion")
    return cert
