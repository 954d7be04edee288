"""Certified complex root enclosures for exact univariate polynomials.

Multiplicities are assigned structurally (from the squarefree
decomposition), never numerically.  Each squarefree factor is solved to
approximate roots, and a last Newton step on mpmath at the working precision
turns each into its high-precision root x.  When a factor has degree
``_MIN_SEEDED_DEGREE`` or more, the approximate roots first come from float
seeds: the eigenvalue roots of ``np.roots``, refined by Newton's method in
fixed point on Python integers, 80 bits past the working precision, on the
working-precision coefficients converted exactly.  That refinement needs no
certificate of its own, because the certificate is taken of x: every x gets
one radius (``_radius``), which covers the rounding of the coefficients and
of Horner's rule and holds at least one true root.  An attempt passes when
every radius is at most ``ENCLOSURE_RADIUS`` max(1, |x|) and the disks are
pairwise disjoint, which pins exactly one root per disk.  So a bad seed can only make
the attempt fail, never give a wrong disk; when it fails, or is not made,
``mpmath.polyroots`` solves the factors at doubling precision instead.  The
stored radius adds the rounding of x to its float centre, and the
enclosure keeps x as its certified root.

Every root in Q(i) carries its exact value.  With denominators cleared a
factor has a leading coefficient L in Z[i], and by Gauss's lemma over Z[i]
its roots in Q(i) are g/L for Gaussian integers g.  Once the radii pass, an
x whose radius times |L| is 1/2 or more is refined at the last attempt's
precision; then g = round(L x) is the only candidate, and one exact
evaluation decides it.  The disjointness test compares two exact roots by
value, so two roots given one exact value leave the attempt uncertified.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath.libmp import mpc_add, mpc_mul

from ..errors import EnclosureError, InternalContradiction, InvalidInput
from .gaussrat import GaussRat, int_pairs
from .poly import SparsePoly
from .squarefree import squarefree_decompose

# every enclosure radius is at most this times max(1, |root|)
ENCLOSURE_RADIUS = 1e-12
# (working dps, float-seeded) per attempt: float seeds first, then the
# polyroots ladder at doubling precision
_ATTEMPTS = ((40, True), (40, False), (80, False), (160, False), (320, False), (640, False))
# the float-seeded attempt runs only when a factor has at least this degree.
# Seeding pays at every degree; the limit stays only because an exset pass that
# short fires no calibration slice, and perfbench/worker.py then divides by zero
# (ROADMAP item 1a).  Delete it once that is mended (ROADMAP item 1b).
_MIN_SEEDED_DEGREE = 17


@dataclass(frozen=True)
class RootEnclosure:
    center: complex
    radius: float
    multiplicity: int
    exact: GaussRat | None = None  # the root when it is in Q(i), else None
    # the certified high-precision root of a solved factor; None for a root
    # that is exact by structure (zero, or a linear factor's)
    root: mpmath.mpc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class AlgebraicRoots:
    """All complex roots of ``defining_poly`` as certified enclosures."""

    defining_poly: SparsePoly
    roots: tuple[RootEnclosure, ...]


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
    """p(z) by Horner's rule on mpmath's raw tuples: each step rounds at the
    working precision exactly as ``acc * z + c`` on mpc values does, without
    building an mpc per operation (the hot loop of every solve)."""
    prec, rnd = mpmath.mp._prec_rounding
    w, acc = z._mpc_, (+coeffs_mpc[-1])._mpc_
    for c in reversed(coeffs_mpc[:-1]):
        acc = mpc_add(mpc_mul(acc, w, prec, rnd), c._mpc_, prec, rnd)
    return mpmath.mp.make_mpc(acc)


def _newton(cm, dm, z, dps: int):
    """Newton steps on the polynomial ``cm`` from z until a step is below
    10^-(dps-8) max(1, |z|) or the derivative vanishes; at most 80 steps."""
    small = mpmath.mpf(10) ** (-(dps - 8))
    for _ in range(80):
        dv = _horner(dm, z)
        if dv == 0:
            break
        step = _horner(cm, z) / dv
        z = z - step
        if abs(step) < small * max(1, abs(z)):
            break
    return z


def _dyadic_pairs(cm):
    """The coefficients ``cm`` exactly as Gaussian integer pairs over one
    power of two 2^q: ([(a_k, b_k)], q), q the least that holds them all."""
    parts = [[(-man if sign else man, exp) for sign, man, exp, _ in c._mpc_] for c in cm]
    q = max((-exp for c in parts for man, exp in c if man), default=0)
    return [tuple(int(man) << (exp + q) for man, exp in c) for c in parts], q


def _fixed_newton(pairs, q: int, seed: complex, dps: int):
    """Newton steps from the float ``seed`` on the polynomial with the
    coefficients (a_k + b_k i) / 2^q (``_dyadic_pairs``), in fixed point on
    Python integers; the stop test and the cap of 80 steps are ``_newton``'s.

    Every value is an integer pair over 2^s, s the bits of ``dps`` digits
    plus a guard of 32 and the bits that |seed| < 1 needs, and at least q,
    so the coefficients are exact.  One Horner pass per step gives p and p',
    each product rounded down to 2^-s, and one complex division the step.
    Returns the last iterate as an mpc at the working precision.
    """
    s = max(q, mpmath.libmp.dps_to_prec(dps) + 32 + max(0, -math.frexp(abs(seed))[1]))
    cs = [(a << (s - q), b << (s - q)) for a, b in pairs]
    zr, zi = (x * 2**s // y for x, y in (seed.real.as_integer_ratio(),
                                         seed.imag.as_integer_ratio()))
    scale, one = 10 ** (2 * (dps - 8)), 1 << (2 * s)
    for _ in range(80):
        (pr, pi), dr, di = cs[-1], 0, 0
        for cr, ci in reversed(cs[:-1]):
            dr, di = ((dr * zr - di * zi) >> s) + pr, ((dr * zi + di * zr) >> s) + pi
            pr, pi = ((pr * zr - pi * zi) >> s) + cr, ((pr * zi + pi * zr) >> s) + ci
        size = dr * dr + di * di
        if not size:
            break
        sr, si = ((pr * dr + pi * di) << s) // size, ((pi * dr - pr * di) << s) // size
        zr, zi = zr - sr, zi - si
        # |step| < 10^-(dps-8) max(1, |z|), squared and times 10^(2(dps-8)) 2^(2s)
        if scale * (sr * sr + si * si) < max(one, zr * zr + zi * zi):
            break
    return mpmath.mpc(mpmath.mpf((zr, -s)), mpmath.mpf((zi, -s)))


def _level(coeffs: list[GaussRat]):
    """p and p' at the working precision, and the coefficients u |c_k|,
    u = 16 (deg + 1) eps, of their rounding bound, each as ``mpmath.frexp``
    gives it but with a float mantissa."""
    cm = [_to_mpc(c) for c in coeffs]
    dm = [cm[i] * i for i in range(1, len(cm))]
    u = 16 * len(cm) * mpmath.mp.eps
    em = (mpmath.frexp(u * (abs(c.real) + abs(c.imag))) for c in cm)
    return cm, dm, [(float(m), x) for m, x in em]


def _radius(cm, dm, em, z):
    """n (|p(z)| + e_p) / (|p'(z)| - e_p'), infinite when p'(z) may vanish.

    A disk of radius n |p(z)/p'(z)| about z holds a root of p when p(z) and
    p'(z) are exact.  Horner's running error bounds e_p = u sum |c_k| |z|^k
    and e_p' = u sum k |c_k| |z|^(k-1) (``_level``) cover their rounding.
    They are summed in floats, each term scaled by one power of two so that
    nothing overflows; that rounding is far inside the factor 16 of u.
    """
    m, x = mpmath.frexp(abs(z))  # |z| = m 2^x
    m = float(m)
    top = max(xk + k * x for k, (mk, xk) in enumerate(em) if mk)
    e = ed = 0.0
    for k in range(len(em) - 1, -1, -1):
        ed = ed * m + e
        e = e * m + math.ldexp(em[k][0], em[k][1] + k * x - top)
    slope = abs(_horner(dm, z)) - mpmath.ldexp(ed, top - x)
    if slope <= 0:
        return mpmath.inf
    return (len(cm) - 1) * (abs(_horner(cm, z)) + mpmath.ldexp(e, top)) / slope


def _seeded_roots(coeffs: list[GaussRat], cm, dps: int):
    """Approximate roots from ``np.roots`` seeds refined by Newton.

    Called at the working precision ``dps``.  The refinement runs on Python
    integers (``_fixed_newton``), on the coefficients ``cm`` that
    ``_level`` rounded to that precision, converted exactly
    (``_dyadic_pairs``); it needs no certificate, since the radius of each
    root is taken after the final Newton step on mpmath.  As in
    ``mpmath.polyroots``, the iteration runs 80 bits past the working
    precision, parts below its epsilon are zeroed
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
    pairs, q = _dyadic_pairs(cm)
    out = []
    with mpmath.workdps(dps + 24):  # 80 bits
        for s in seeds:
            z = _fixed_newton(pairs, q, complex(s), dps + 24)
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
    high-precision root.  Returns (root, radius) per root, the radius from
    ``_radius``.
    """
    with mpmath.workdps(dps):
        cm, dm, em = _level(coeffs)
        if seeded:
            approx = _seeded_roots(coeffs, cm, dps)
        else:
            try:
                approx = mpmath.polyroots(list(reversed(cm)), maxsteps=200, extraprec=80)
            except mpmath.libmp.libhyper.NoConvergence as exc:  # pragma: no cover
                raise EnclosureError(f"root iteration failed to converge: {exc}") from exc
        out = []
        for r in approx:
            z = _newton(cm, dm, mpmath.mpc(r), dps)
            out.append((z, _radius(cm, dm, em, z)))
        return out


def _gaussian_rational(p: SparsePoly, coeffs: list[GaussRat], lead: tuple[int, int], z,
                       rad) -> GaussRat | None:
    """The root of the squarefree ``p`` within the radius ``rad`` of its
    high-precision root z if it is in Q(i), else None; ``lead`` is L = a + bi
    as (a, b).  When |L| rad >= 1/2, z is first refined by Newton at the
    ladder's last precision, and the refined disk must lie inside the first.
    Then g = round(L z) is the only candidate, and the root is g/L if that
    lies in the disk and p(g/L) = 0."""
    a, b = lead
    size2 = a * a + b * b  # |L|^2
    if size2 * rad**2 >= 0.25:
        top = _ATTEMPTS[-1][0]
        with mpmath.workdps(top):
            cm, dm, em = _level(coeffs)
            fine = _newton(cm, dm, z, top)
            fine_rad = _radius(cm, dm, em, fine)
            if abs(fine - z) + fine_rad > rad or size2 * fine_rad**2 >= 0.25:
                raise EnclosureError(f"an exactness test needs more than {top} digits")
        return _gaussian_rational(p, coeffs, lead, fine, fine_rad)
    # z and rad as integers x, y, m over one power of two 2^s, so that the
    # disk test is exact
    parts = (z.real, z.imag, rad)
    s = max(0, -min(v.exp for v in parts))
    x, y, m = (int(mpmath.ldexp(v, s)) for v in parts)
    wr, wi = a * x - b * y, a * y + b * x  # L z times 2^s
    gr, gi = ((2 * w + (1 << s)) >> (s + 1) for w in (wr, wi))  # g = round(L z)
    dr, di = wr - (gr << s), wi - (gi << s)
    if dr * dr + di * di > size2 * m * m:  # g/L is outside the disk
        return None
    root = GaussRat(gr, gi) / GaussRat(a, b)
    return None if p.eval_exact([root]) else root


@functools.lru_cache(maxsize=1024)
def roots_certified(f: SparsePoly) -> AlgebraicRoots:
    """All complex roots of a nonzero univariate polynomial, with multiplicity.

    The polynomial is squarefree-decomposed first; each squarefree factor is
    solved numerically and every root is returned as a disk certified to
    contain exactly one root of that factor: the root is within
    ``ENCLOSURE_RADIUS`` max(1, |x|) of its high-precision approximation x,
    and the stored radius adds the rounding of x to the float centre.  Every
    root in Q(i) is an exact enclosure of radius zero, so ``exact`` is None
    only for a root outside Q(i).  A centre is 0 exactly when its root is 0,
    the one root that is peeled structurally; a nonzero root whose centre
    underflows to 0 raises InvalidInput.  Raises EnclosureError if that
    radius, the exactness test's or disk disjointness cannot be reached.
    Results are cached per polynomial, so all callers share one solve; an
    error is never cached.
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
    # (factor, coefficients, multiplicity, leading coefficient in Z[i] as a pair)
    pending: list[tuple[SparsePoly, list[GaussRat], int, tuple[int, int]]] = []
    for p, mult in factors:
        coeffs = _univar_coeffs(p)
        if len(coeffs) == 2:
            root = -coeffs[0] / coeffs[1]
            enclosures.append(RootEnclosure(complex(root), 0.0, mult, exact=root))
        elif len(coeffs) > 2:
            pending.append((p, coeffs, mult, int_pairs(coeffs)[1][-1]))

    top = max((len(c) - 1 for _, c, _, _ in pending), default=0)
    for dps, seeded in _ATTEMPTS:
        if seeded and top < _MIN_SEEDED_DEGREE:
            continue
        try:
            # (factor, coefficients, multiplicity, L, high-precision root, radius)
            solved = [(p, coeffs, mult, lead, z, rad) for p, coeffs, mult, lead in pending
                      for z, rad in _solve_squarefree(coeffs, dps, seeded)]
        except EnclosureError:
            if not seeded:
                raise
            continue
        if any(rad > ENCLOSURE_RADIUS * max(1, abs(z)) for *_, z, rad in solved):
            continue
        with mpmath.workdps(dps):
            candidate = enclosures + [
                _enclosure(z, rad, mult, _gaussian_rational(p, coeffs, lead, z, rad))
                for p, coeffs, mult, lead, z, rad in solved]
        if _pairwise_disjoint(candidate):
            total = sum(r.multiplicity for r in candidate)
            expected = sum((len(c) - 1) * m for _, c, m, _ in pending) + sum(
                r.multiplicity for r in enclosures
            )
            if total != expected:
                raise InternalContradiction("root count does not match degree")
            if any(r.center == 0 and r.exact != 0 for r in candidate):
                raise InvalidInput("a nonzero root's float centre underflows to 0")
            ordered = tuple(
                sorted(candidate, key=lambda r: (round(r.center.real, 10),
                                                 round(r.center.imag, 10)))
            )
            return AlgebraicRoots(original, ordered)
    raise EnclosureError(f"could not certify enclosures at relative tol={ENCLOSURE_RADIUS}")


def _enclosure(z, rad, mult: int, exact: GaussRat | None) -> RootEnclosure:
    """The point ``exact`` when the root is in Q(i); else the disk about the
    float centre of z that holds the disk of radius ``rad`` about z, its
    radius rounded up.  Either keeps z as the certified root."""
    if exact is not None:
        return RootEnclosure(complex(exact), 0.0, mult, exact, z)
    center = complex(z)
    stored = float(rad + abs(z - mpmath.mpc(center)))
    return RootEnclosure(center, math.nextafter(stored, math.inf), mult, None, z)


def _pairwise_disjoint(roots: list[RootEnclosure]) -> bool:
    """No two enclosures can hold one root: two exact roots differ in value,
    and any other two disks lie apart."""
    for a, b in itertools.combinations(roots, 2):
        if a.exact is not None and b.exact is not None:
            if a.exact == b.exact:
                return False
        elif abs(a.center - b.center) <= a.radius + b.radius:
            return False
    return True

