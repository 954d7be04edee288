"""Certified complex root enclosures for exact univariate polynomials.

Multiplicities are assigned structurally (from the squarefree
decomposition), never numerically.  When a squarefree factor has degree
``_MIN_SEEDED_DEGREE`` or more, the factors are first solved from float
seeds: the eigenvalue roots of ``np.roots`` are refined by Newton's method at
high working precision.  Every approximate root x gets the
classical enclosure radius deg(p) * |p(x)/p'(x)|, which always contains at
least one true root; pairwise disjointness of the disks then pins exactly one
root per disk.  So a bad seed can only make the attempt fail, never give a
wrong disk; when it fails, or is not made, the simultaneous iteration
``mpmath.polyroots`` solves the factors at doubling precision instead.  The
stored radius also covers the rounding of x to its float centre.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from ..errors import EnclosureError, InternalContradiction
from .gaussrat import GaussRat
from .poly import SparsePoly
from .squarefree import squarefree_decompose

# stored float radii never claim more than honest float exactness
_MIN_NUMERIC_RADIUS = 1e-250
# every numeric enclosure radius is at most this
ENCLOSURE_RADIUS = 1e-12
# (working dps, float-seeded) per attempt: float seeds first, then the
# polyroots ladder at doubling precision
_ATTEMPTS = ((40, True), (40, False), (80, False), (160, False), (320, False), (640, False))
# the float-seeded attempt runs only when a factor has at least this degree.
# Seeding pays at every degree; the limit is there only because the benchmark
# cannot yet time an exset pass that short (ROADMAP item 3, "seed every
# degree").  Lower it to 0 once it can.
_MIN_SEEDED_DEGREE = 17


@dataclass(frozen=True)
class RootEnclosure:
    center: complex
    radius: float
    multiplicity: int
    exact: GaussRat | None = None  # set when the root is known exactly

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return abs(z - self.center) <= self.radius + slack

    def contains_exact(self, c: GaussRat) -> bool:
        """Whether the disk holds the exact value c: its float is tested with
        the radius widened by the rounding |c - complex(c)|, rounded up."""
        z = complex(c)
        err = abs(c.re - Fraction(z.real)) + abs(c.im - Fraction(z.imag))
        return self.contains(z, slack=math.nextafter(float(err), math.inf) if err else 0.0)


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


def _newton(cm, dm, z, dps: int):
    """Newton steps on the polynomial ``cm`` from z until a step is below
    10^-(dps-8) or the derivative vanishes; at most 80 steps."""
    small = mpmath.mpf(10) ** (-(dps - 8))
    for _ in range(80):
        dv = _horner(dm, z)
        if dv == 0:
            break
        step = _horner(cm, z) / dv
        z = z - step
        if abs(step) < small:
            break
    return z


def _seeded_roots(coeffs: list[GaussRat], cm, dm, dps: int):
    """Approximate roots from ``np.roots`` seeds refined by Newton.

    Called at the working precision ``dps``.  As in ``mpmath.polyroots``,
    the iteration runs 80 bits past it, parts below its epsilon are zeroed
    (so a real root of a real polynomial comes out real) and the roots are
    rounded to it.  Raises EnclosureError when the float seeds are unusable:
    coefficients or seeds that are not finite floats, or fewer seeds than
    the degree.
    """
    deg = len(coeffs) - 1
    try:
        floats = [complex(c) for c in reversed(coeffs)]
        with np.errstate(all="ignore"):
            seeds = np.roots(floats)
    except (OverflowError, np.linalg.LinAlgError) as exc:
        raise EnclosureError(f"no float seeds: {exc}") from exc
    if len(seeds) != deg or not np.all(np.isfinite(seeds)):
        raise EnclosureError("no float seeds: non-finite or missing seeds")
    tol = +mpmath.mp.eps  # unary plus fixes it at the working precision
    out = []
    with mpmath.workdps(dps + 24):  # 80 bits
        for s in seeds:
            z = _newton(cm, dm, mpmath.mpc(s.real, s.imag), dps + 24)
            if abs(z) < tol:
                z = mpmath.mpc(0)
            elif abs(z.imag) < tol:
                z = mpmath.mpc(z.real)
            elif abs(z.real) < tol:
                z = mpmath.mpc(0, z.imag)
            out.append(z)
    out.sort(key=lambda z: (abs(z.imag), z.real))  # polyroots' order
    return [+z for z in out]


def _solve_squarefree(coeffs: list[GaussRat], dps: int, seeded: bool):
    """Roots of a squarefree polynomial at given precision.

    The approximate roots come from float seeds (``seeded``) or from
    ``mpmath.polyroots``; either way a final Newton step gives the
    high-precision root.  Returns (centre, radius, stored radius) per root:
    the float centre, the enclosure radius about the high-precision root and
    that radius widened by the distance to the centre, rounded up, so the
    disk about the centre contains the root.
    """
    deg = len(coeffs) - 1
    with mpmath.workdps(dps):
        cm = [_to_mpc(c) for c in coeffs]
        dm = [cm[i] * i for i in range(1, len(cm))]
        if seeded:
            approx = _seeded_roots(coeffs, cm, dm, dps)
        else:
            try:
                approx = mpmath.polyroots(list(reversed(cm)), maxsteps=200, extraprec=80)
            except mpmath.libmp.libhyper.NoConvergence as exc:  # pragma: no cover
                raise EnclosureError(f"root iteration failed to converge: {exc}") from exc
        out = []
        for r in approx:
            z = _newton(cm, dm, mpmath.mpc(r), dps)
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

    top = max((len(c) - 1 for c, _ in pending), default=0)
    best: list[RootEnclosure] | None = None
    for dps, seeded in _ATTEMPTS:
        if seeded and top < _MIN_SEEDED_DEGREE:
            continue
        numeric: list[RootEnclosure] = []
        ok = True
        try:
            for coeffs, mult in pending:
                for center, rad, stored in _solve_squarefree(coeffs, dps, seeded):
                    if rad > ENCLOSURE_RADIUS:
                        ok = False
                    numeric.append(
                        RootEnclosure(center, max(stored, _MIN_NUMERIC_RADIUS), mult)
                    )
        except EnclosureError:
            if not seeded:
                raise
            continue
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
