"""Certified complex root enclosures for exact univariate polynomials.

Multiplicities are assigned structurally (from the squarefree
decomposition), never numerically.  Each squarefree factor is solved with a
simultaneous iteration at high working precision and every approximate root
x gets the classical enclosure radius deg(p) * |p(x)/p'(x)|, which always
contains at least one true root; pairwise disjointness of the disks then
pins exactly one root per disk.  The stored radius also covers the rounding
of x to its float centre.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath

from ..errors import EnclosureError, InternalContradiction
from .gaussrat import GaussRat
from .poly import SparsePoly
from .squarefree import squarefree_decompose

# stored float radii never claim more than honest float exactness
_MIN_NUMERIC_RADIUS = 1e-250
# every numeric enclosure radius is at most this
ENCLOSURE_RADIUS = 1e-12


@dataclass(frozen=True)
class RootEnclosure:
    center: complex
    radius: float
    multiplicity: int
    exact: GaussRat | None = None  # set when the root is known exactly

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + slack


@dataclass(frozen=True)
class AlgebraicRoots:
    """All complex roots of ``defining_poly`` as certified enclosures."""

    defining_poly: SparsePoly
    roots: tuple[RootEnclosure, ...]

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def nonzero(self) -> "AlgebraicRoots":
        """Drop enclosures centered at an exact zero root."""
        kept = tuple(r for r in self.roots if not (r.exact is not None and not r.exact))
        return AlgebraicRoots(self.defining_poly, kept)

    def centers(self) -> list[complex]:
        return [r.center for r in self.roots]


def _univar_coeffs(f: SparsePoly) -> list[GaussRat]:
    """Ascending GaussRat coefficient list of an (effectively) univariate polynomial."""
    occ = [v for v in range(f.num_vars) if f.degree_in(v) > 0]
    if len(occ) > 1:
        raise ValueError("polynomial is not univariate")
    var = occ[0] if occ else 0
    deg = f.degree_in(var)
    coeffs = [GaussRat(0)] * (deg + 1)
    for expo, c in f.terms.items():
        coeffs[expo[var]] = c
    return coeffs


def _to_mpc(c: GaussRat) -> mpmath.mpc:
    re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
    im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
    return mpmath.mpc(re, im)


def _horner(coeffs_mpc, z):
    acc = mpmath.mpc(0)
    for c in reversed(coeffs_mpc):
        acc = acc * z + c
    return acc


def cauchy_root_bound(f: SparsePoly) -> float:
    """Cauchy bound: every root has modulus <= 1 + max |a_i / a_n|."""
    coeffs = _univar_coeffs(f)
    lead = abs(complex(coeffs[-1]))
    if lead == 0:
        raise ValueError("zero leading coefficient")
    return 1.0 + max(abs(complex(c)) for c in coeffs[:-1]) / lead if len(coeffs) > 1 else 1.0


def _solve_squarefree(coeffs: list[GaussRat], dps: int):
    """Roots of a squarefree polynomial at given precision.

    Returns (centre, radius, stored radius) per root: the float centre, the
    enclosure radius about the high-precision root and that radius widened
    by the distance to the centre, rounded up, so the disk about the centre
    contains the root.
    """
    deg = len(coeffs) - 1
    with mpmath.workdps(dps):
        cm = [_to_mpc(c) for c in coeffs]
        dm = [cm[i] * i for i in range(1, len(cm))]
        try:
            approx = mpmath.polyroots(list(reversed(cm)), maxsteps=200, extraprec=80)
        except mpmath.libmp.libhyper.NoConvergence as exc:  # pragma: no cover
            raise EnclosureError(f"root iteration failed to converge: {exc}") from exc
        out = []
        for r in approx:
            z = mpmath.mpc(r)
            for _ in range(80):
                pv = _horner(cm, z)
                dv = _horner(dm, z)
                if dv == 0:
                    break
                step = pv / dv
                z = z - step
                if abs(step) < mpmath.mpf(10) ** (-(dps - 8)):
                    break
            pv = _horner(cm, z)
            dv = _horner(dm, z)
            if dv == 0:
                raise EnclosureError("derivative vanished at an approximate root")
            rad = deg * abs(pv / dv)
            center = complex(z)
            honest = float(rad + abs(z - mpmath.mpc(center)))
            out.append((center, float(rad), math.nextafter(honest, math.inf)))
        return out


@functools.lru_cache(maxsize=1024)
def roots_certified(f: SparsePoly) -> AlgebraicRoots:
    """All complex roots of a nonzero univariate polynomial, with multiplicity.

    The polynomial is squarefree-decomposed first; each squarefree factor is
    solved numerically and every root is returned as a disk certified to
    contain exactly one root of that factor: the root is within
    ``ENCLOSURE_RADIUS`` of its high-precision approximation, and the
    stored radius adds the rounding of that approximation to the float
    centre.  Linear factors produce exact enclosures of radius
    zero.  Raises EnclosureError (carrying the best enclosures) if that
    radius or disk disjointness cannot be reached.  Results are cached per
    polynomial, so all callers share one solve; an error is never cached.
    """
    if not f:
        raise ValueError("cannot isolate roots of the zero polynomial")
    original = f
    enclosures: list[RootEnclosure] = []
    # peel the origin structurally so a zero root is always exact
    coeffs0 = _univar_coeffs(f)
    v = next(i for i, c in enumerate(coeffs0) if c)
    if v:
        enclosures.append(RootEnclosure(0j, 0.0, v, exact=GaussRat(0)))
        f = SparsePoly(1, {(i - v,): c for i, c in enumerate(coeffs0) if c})
    if f.is_constant():
        return AlgebraicRoots(original, tuple(enclosures))
    factors = squarefree_decompose(f)
    pending: list[tuple[list[GaussRat], int]] = []
    for p, mult in factors:
        coeffs = _univar_coeffs(p)
        if len(coeffs) == 2:
            root = -coeffs[0] / coeffs[1]
            enclosures.append(RootEnclosure(complex(root), 0.0, mult, exact=root))
        elif len(coeffs) > 2:
            pending.append((coeffs, mult))

    dps = 40
    best: list[RootEnclosure] | None = None
    for attempt in range(5):
        numeric: list[RootEnclosure] = []
        ok = True
        for coeffs, mult in pending:
            got = _solve_squarefree(coeffs, dps)
            for center, rad, stored in got:
                if rad > ENCLOSURE_RADIUS:
                    ok = False
                numeric.append(
                    RootEnclosure(center, max(stored, _MIN_NUMERIC_RADIUS), mult)
                )
        candidate = enclosures + numeric
        if ok and _pairwise_disjoint(candidate):
            total = sum(r.multiplicity for r in candidate)
            expected = sum((len(c) - 1) * m for c, m in pending) + sum(
                r.multiplicity for r in enclosures
            )
            if total != expected:
                raise InternalContradiction("root count does not match degree")
            ordered = tuple(
                sorted(candidate, key=lambda r: (round(r.center.real, 10),
                                                 round(r.center.imag, 10)))
            )
            return AlgebraicRoots(original, ordered)
        best = candidate
        dps *= 2
    raise EnclosureError(
        f"could not certify enclosures at tol={ENCLOSURE_RADIUS}", best=best
    )


def _pairwise_disjoint(roots: list[RootEnclosure]) -> bool:
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            a, b = roots[i], roots[j]
            if abs(a.center - b.center) <= a.radius + b.radius:
                return False
    return True


@dataclass(frozen=True)
class LinearFormFactorization:
    """Factorization data of a homogeneous binary form h(X, Y).

    ``slopes`` encloses the ratios delta with h = c * Y^y_multiplicity *
    prod (X - delta_j Y); the slopes are the roots of h(delta, 1).
    """

    slopes: AlgebraicRoots
    y_multiplicity: int


def factor_linear_forms(h: SparsePoly) -> LinearFormFactorization:
    """Split a homogeneous binary form into linear factors.

    Returns the enclosed slopes delta_j (roots of h(delta, 1)) together with
    the multiplicity of the factor Y.
    """
    if not h:
        raise ValueError("zero form")
    if h.num_vars != 2 or not h.is_homogeneous():
        raise ValueError("expected a homogeneous form in two variables")
    d = h.total_degree()
    dehom = h.substitute_var(1, GaussRat(1)).drop_var(1)  # univariate in X
    x_deg = dehom.degree_in(0)
    y_mult = d - x_deg
    if x_deg == 0:
        empty = AlgebraicRoots(dehom, ())
        return LinearFormFactorization(empty, y_mult)
    return LinearFormFactorization(roots_certified(dehom), y_mult)
