"""Effective Nullstellensatz certificates for coprime binary forms.

Given F, G in n >= 2 variables, homogeneous in the first two (Z, U), with
the further variables making up the coefficient ring A = Q(i)[y1,...,yk],
produce an exponent s, a nonzero R in A, and cofactors with

    Z^s * R = P1*F + P2*G        and        U^s * R = Q1*F + Q2*G.

R is a SparsePoly free of Z and U (a constant one when n = 2).  Both
identities come from the cofactor run of the one subresultant PRS
(``euclid._subresultant_prs``), taken directly on the forms, so no division
leaves A[Z, U].  The PRS keeps forms homogeneous in (Z, U): eliminating U
ends in R_z * Z^s_z with homogeneous cofactors, and eliminating Z in
R_u * U^s_u.  The two are glued with R = R_z * R_u.  Every certificate is
re-verified by exact expansion before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CoprimalityError, InternalContradiction
from .euclid import _subresultant_prs
from .poly import SparsePoly


@dataclass(frozen=True)
class NullstellensatzCertificate:
    s: int
    R: SparsePoly  # element of A: free of Z and U
    P1: SparsePoly
    P2: SparsePoly
    Q1: SparsePoly
    Q2: SparsePoly

    def verify(self, F: SparsePoly, G: SparsePoly) -> bool:
        Z = SparsePoly.variable(0, F.num_vars)
        U = SparsePoly.variable(1, F.num_vars)
        return (
            Z**self.s * self.R == self.P1 * F + self.P2 * G
            and U**self.s * self.R == self.Q1 * F + self.Q2 * G
        )


def _eliminate(F: SparsePoly, G: SparsePoly, var: int):
    """(s, R, a, b) with R * X^s = a*F + b*G, X the one of Z, U other than ``var``."""
    if F.degree_in(var) < G.degree_in(var):
        s, R, b, a = _eliminate(G, F, var)
        return s, R, a, b
    if G.degree_in(var) == 0:
        last, a, b = G, SparsePoly.zero(G.num_vars), SparsePoly.one(G.num_vars)
    else:
        last, a, b = _subresultant_prs(F, G, var, cofactors=True)
    if last.degree_in(var) > 0:
        raise CoprimalityError("forms share a nonconstant factor")
    # homogeneous in (Z, U) and free of var, so R * X^s
    R = SparsePoly._clean(last.num_vars, {(0, 0) + e[2:]: c for e, c in last.terms.items()})
    return last.degree_in(1 - var), R, a, b


def nullstellensatz_certificate(F: SparsePoly, G: SparsePoly) -> NullstellensatzCertificate:
    """Certifying data for coprime forms, homogeneous in Z and U, over A.

    Raises CoprimalityError when F and G share a factor (including a common
    coordinate factor Z or U).  The returned identities are checked by exact
    expansion; failure there raises InternalContradiction.
    """
    if F.num_vars < 2 or G.num_vars != F.num_vars:
        raise ValueError("expected forms in the same variables, Z and U first")
    if any(len({e[0] + e[1] for e in H.terms}) > 1 for H in (F, G)):
        raise ValueError("expected forms homogeneous in Z and U")
    if not F or not G:
        raise CoprimalityError("zero form")
    if F.min_degree_in(0) >= 1 and G.min_degree_in(0) >= 1:
        raise CoprimalityError("common factor: first variable divides both forms")
    if F.min_degree_in(1) >= 1 and G.min_degree_in(1) >= 1:
        raise CoprimalityError("common factor: second variable divides both forms")

    sz, Rz, P1, P2 = _eliminate(F, G, var=1)
    su, Ru, Q1, Q2 = _eliminate(F, G, var=0)
    s = max(sz, su)
    Z = SparsePoly.variable(0, F.num_vars)
    U = SparsePoly.variable(1, F.num_vars)
    # glue to a single R: multiply each identity by the other elimination's R
    # and top up the coordinate powers to the common exponent s
    R = Rz * Ru
    P1g = P1 * Ru * Z ** (s - sz)
    P2g = P2 * Ru * Z ** (s - sz)
    Q1g = Q1 * Rz * U ** (s - su)
    Q2g = Q2 * Rz * U ** (s - su)
    cert = NullstellensatzCertificate(s, R, P1g, P2g, Q1g, Q2g)
    if not cert.verify(F, G):
        raise InternalContradiction("certificate identities failed exact expansion")
    return cert
