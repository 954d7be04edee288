"""Certified complex root enclosures for exact univariate polynomials.

Multiplicities are assigned structurally (from the squarefree
decomposition), never numerically.  A squarefree factor with its
denominators cleared has coefficients in Z[i], and one integer arithmetic
serves every step on them.  Approximate roots come from ``mpmath.polyroots``
at doubling precision or, when the factor has degree ``_MIN_SEEDED_DEGREE``
or more, first from the float seeds of ``np.roots``, refined 80 bits past
the working precision.  A last Newton step in fixed point (``_newton``)
turns each into its high-precision root z, a dyadic Gaussian rational.  The
certificate is taken of z alone: p and p' are evaluated exactly there, and
the disk of radius n |p(z)/p'(z)| about z holds a root (``_radius``), with
no rounding term.  An attempt passes when every radius is at most
``ENCLOSURE_RADIUS`` max(1, |z|) and the disks are pairwise disjoint, which
pins exactly one root per disk.  So a bad seed can only make the attempt
fail, never give a wrong disk.  The stored radius adds the distance from z
to its float centre, and the enclosure keeps z as its certified root.

Every root in Q(i) carries its exact value.  A factor's leading coefficient
L is in Z[i], and by Gauss's lemma over Z[i] its roots in Q(i) are g/L for
Gaussian integers g.  Once the radii pass, a z whose radius times |L| is
1/2 or more is refined at the last attempt's precision; then g = round(L z)
is the only candidate, and one exact evaluation decides it.  The
disjointness test compares two exact roots by value, so two roots given one
exact value leave the attempt uncertified.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

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
# (ROADMAP item 1).  Delete it once that is mended (ROADMAP item 2).
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


def _dyadic(z):
    """z, a complex or an mpc, exactly as (x, y, t): z = (x + iy) / 2^t."""
    (xs, xm, xe, _), (ys, ym, ye, _) = (mpmath.mpmathify(v)._mpf_ for v in (z.real, z.imag))
    t = max(0, -xe, -ye)
    return (-xm if xs else xm) << (xe + t), (-ym if ys else ym) << (ye + t), t


def _mpc(z):
    """The dyadic z = (x, y, s) as an mpc at the working precision."""
    x, y, s = z
    return mpmath.mpc(mpmath.mpf((x, -s)), mpmath.mpf((y, -s)))


def _gap(z, w):
    """|z - w|^2 of two dyadics, exactly, as (g, u) for g / 4^u."""
    (x, y, s), (a, b, t) = z, w
    u = max(s, t)
    return ((x << u - s) - (a << u - t)) ** 2 + ((y << u - s) - (b << u - t)) ** 2, u


def _root_up(num: int, den: int, t: int) -> int:
    """sqrt(num / den) 2^t rounded up, for t >= 0."""
    q = -(-(num << 2 * t) // den)
    r = math.isqrt(q)
    return r + (r * r < q)


def _fixed_point_values(cs, zr, zi, s: int):
    """p(z) and p'(z) by one Horner pass on integers over 2^s, rounded down."""
    (pr, pi), dr, di = cs[-1], 0, 0
    for cr, ci in reversed(cs[:-1]):
        dr, di = ((dr * zr - di * zi) >> s) + pr, ((dr * zi + di * zr) >> s) + pi
        pr, pi = ((pr * zr - pi * zi) >> s) + cr, ((pr * zi + pi * zr) >> s) + ci
    return pr, pi, dr, di


def _newton(pairs, seed, dps: int):
    """Newton steps from the dyadic ``seed`` on the polynomial with the
    Gaussian integer coefficients ``pairs``, in fixed point, until a step is
    below 10^-(dps-8) max(1, |z|) or the derivative vanishes; at most 80
    steps.  Every value is an integer over 2^s, s the bits of ``dps``
    digits plus a guard of 32 and the bits that |seed| < 1 needs.  Returns
    the last iterate as (x, y, s)."""
    x, y, t = seed
    s = mpmath.libmp.dps_to_prec(dps) + 32 + max(0, t - max(x.bit_length(), y.bit_length()))
    zr, zi = (v << (s - t) if s >= t else v >> (t - s) for v in (x, y))
    cs = [(a << s, b << s) for a, b in pairs]
    scale, one = 10 ** (2 * (dps - 8)), 1 << (2 * s)
    for _ in range(80):
        pr, pi, dr, di = _fixed_point_values(cs, zr, zi, s)
        size = dr * dr + di * di
        if not size:
            break
        sr, si = ((pr * dr + pi * di) << s) // size, ((pi * dr - pr * di) << s) // size
        zr, zi = zr - sr, zi - si
        # |step| < 10^-(dps-8) max(1, |z|), squared and times 10^(2(dps-8)) 2^(2s)
        if scale * (sr * sr + si * si) < max(one, zr * zr + zi * zi):
            break
    return zr, zi, s


def _radius(pairs, z):
    """n^2 |p(z)|^2 / |p'(z)|^2 as an integer pair (num, den); None when
    p'(z) = 0.  The disk of radius n |p(z)/p'(z)| about z holds a root of p,
    since p'/p = sum 1/(z - zeta_k) (Henrici, Applied and Computational
    Complex Analysis I, ch. 6).  Horner's rule runs exactly on the Gaussian
    integers ``pairs`` at the dyadic z = (x, y, s): after j steps p carries
    the scale 2^(js) and p' 2^((j-1)s), so the radius has no rounding term."""
    x, y, s = z
    (pr, pi), dr, di = pairs[-1], 0, 0
    for j, (cr, ci) in enumerate(reversed(pairs[:-1]), 1):
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi
        pr, pi = pr * x - pi * y + (cr << j * s), pr * y + pi * x + (ci << j * s)
    size = dr * dr + di * di
    n = len(pairs) - 1
    return (n * n * (pr * pr + pi * pi), size << 2 * s) if size else None


def _seeded_roots(coeffs: list[GaussRat], pairs, dps: int):
    """Approximate roots from ``np.roots`` seeds refined by ``_newton``.

    Called at the working precision ``dps``.  The refinement needs no
    certificate, since the radius of each root is taken after the final
    Newton step.  As in ``mpmath.polyroots``, it runs 80 bits past the
    working precision, parts below its epsilon are zeroed (so a real root
    of a real polynomial comes out real) and the roots are rounded to it.
    Raises EnclosureError when the float seeds are unusable: coefficients or
    seeds that are not finite floats, or fewer seeds than the degree.
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
        for seed in seeds:
            z = _mpc(_newton(pairs, _dyadic(complex(seed)), dps + 24))
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
    ``mpmath.polyroots``; either way a final ``_newton`` step gives the
    dyadic high-precision root z.  Returns (z, squared radius) per root, the
    radius from ``_radius``.
    """
    pairs = int_pairs(coeffs)[1]
    with mpmath.workdps(dps):
        if seeded:
            approx = _seeded_roots(coeffs, pairs, dps)
        else:
            try:
                approx = mpmath.polyroots([_to_mpc(c) for c in reversed(coeffs)],
                                          maxsteps=200, extraprec=80)
            except mpmath.libmp.libhyper.NoConvergence as exc:  # pragma: no cover
                raise EnclosureError(f"root iteration failed to converge: {exc}") from exc
    zs = [_newton(pairs, _dyadic(r), dps) for r in approx]
    return [(z, _radius(pairs, z)) for z in zs]


def _inside(z, rad2, fine, fine_rad2) -> bool:
    """The disk of squared radius ``fine_rad2`` about ``fine`` lies inside
    the one of ``rad2`` about z: (|fine - z| + r_fine)^2 <= r^2, exactly
    but for the cross term 2 |fine - z| r_fine, rounded up."""
    (gap, u), (a, b), (c, d) = _gap(fine, z), fine_rad2, rad2
    cross = _root_up(gap * a * b, 1, 0)  # 2^u b |fine - z| r_fine
    return d * (gap * b + (cross << u + 1) + (a << 2 * u)) <= c * b << 2 * u


def _gaussian_rational(p: SparsePoly, pairs, z, rad2) -> GaussRat | None:
    """The root of the squarefree ``p`` within the radius of squared value
    ``rad2`` of its high-precision root z if it is in Q(i), else None;
    ``pairs`` are p's coefficients over Z[i], the last, L = a + bi, its
    leading one.  When |L| r >= 1/2, z is first refined by Newton at the
    ladder's last precision, and the refined disk must lie inside the first.
    Then g = round(L z) is the only candidate, and the root is g/L if that
    lies in the disk and p(g/L) = 0."""
    a, b = pairs[-1]
    size2 = a * a + b * b  # |L|^2
    if 4 * size2 * rad2[0] >= rad2[1]:
        top = _ATTEMPTS[-1][0]
        fine = _newton(pairs, z, top)
        fine_rad2 = _radius(pairs, fine)
        if (fine_rad2 is None or not _inside(z, rad2, fine, fine_rad2)
                or 4 * size2 * fine_rad2[0] >= fine_rad2[1]):
            raise EnclosureError(f"an exactness test needs more than {top} digits")
        return _gaussian_rational(p, pairs, fine, fine_rad2)
    (x, y, s), (num, den) = z, rad2
    wr, wi = a * x - b * y, a * y + b * x  # L z times 2^s
    gr, gi = ((2 * w + (1 << s)) >> (s + 1) for w in (wr, wi))  # g = round(L z)
    dr, di = wr - (gr << s), wi - (gi << s)
    if den * (dr * dr + di * di) > size2 * num << 2 * s:  # g/L is outside the disk
        return None
    root = GaussRat(gr, gi) / GaussRat(a, b)
    return None if p.compose([root], GaussRat.coerce) else root


def _small(z, rad2) -> bool:
    """The radius is at most ``ENCLOSURE_RADIUS`` max(1, |z|), compared squared."""
    (x, y, s), (num, den) = z, rad2
    tn, td = ENCLOSURE_RADIUS.as_integer_ratio()
    return num * td * td << 2 * s <= den * tn * tn * max(1 << 2 * s, x * x + y * y)


@functools.lru_cache(maxsize=1024)
def roots_certified(f: SparsePoly) -> AlgebraicRoots:
    """All complex roots of a nonzero univariate polynomial, with multiplicity.

    The polynomial is squarefree-decomposed first; each squarefree factor is
    solved numerically and every root is returned as a disk certified to
    contain exactly one root of that factor: the root is within
    ``ENCLOSURE_RADIUS`` max(1, |z|) of its high-precision approximation z,
    and the stored radius adds the distance from z to the float centre.  Every
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
    # and solve the univariate view, whichever variable occurs in f
    coeffs0 = _univar_coeffs(f)
    v = next(i for i, c in enumerate(coeffs0) if c)
    if v:
        enclosures.append(RootEnclosure(0j, 0.0, v, exact=GaussRat(0)))
    f = SparsePoly(1, {(i - v,): c for i, c in enumerate(coeffs0) if c})
    if f.is_constant():
        return AlgebraicRoots(original, tuple(enclosures))
    factors = squarefree_decompose(f)
    # (factor, coefficients, multiplicity, coefficients over Z[i] as pairs)
    pending: list[tuple[SparsePoly, list[GaussRat], int, list[tuple[int, int]]]] = []
    for p, mult in factors:
        coeffs = _univar_coeffs(p)
        if len(coeffs) == 2:
            root = -coeffs[0] / coeffs[1]
            enclosures.append(RootEnclosure(complex(root), 0.0, mult, exact=root))
        elif len(coeffs) > 2:
            pending.append((p, coeffs, mult, int_pairs(coeffs)[1]))

    top = max((len(c) - 1 for _, c, _, _ in pending), default=0)
    for dps, seeded in _ATTEMPTS:
        if seeded and top < _MIN_SEEDED_DEGREE:
            continue
        try:
            # (factor, pairs, multiplicity, high-precision root, squared radius)
            solved = [(p, pairs, mult, z, rad2) for p, coeffs, mult, pairs in pending
                      for z, rad2 in _solve_squarefree(coeffs, dps, seeded)]
        except EnclosureError:
            if not seeded:
                raise
            continue
        if any(rad2 is None or not _small(z, rad2) for *_, z, rad2 in solved):
            continue
        with mpmath.workdps(dps):
            candidate = enclosures + [
                _enclosure(z, rad2, mult, _gaussian_rational(p, pairs, z, rad2))
                for p, pairs, mult, z, rad2 in solved]
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


def _enclosure(z, rad2, mult: int, exact: GaussRat | None) -> RootEnclosure:
    """The point ``exact`` when the root is in Q(i); else the disk about the
    float centre of z that holds the disk of squared radius ``rad2`` about
    z: r + |z - centre|, each rounded up 80 bits below the larger, summed
    exactly, rounded to a float and up.  Either keeps z as the root."""
    root = _mpc(z)
    if exact is not None:
        return RootEnclosure(complex(exact), 0.0, mult, exact, root)
    center = complex(root)
    (num, den), (gap, u) = rad2, _gap(z, _dyadic(center))
    t = max(0, 80 - max(num.bit_length() - den.bit_length(), gap.bit_length() - 2 * u) // 2)
    stored = (_root_up(num, den, t) + _root_up(gap, 1 << 2 * u, t)) / (1 << t)
    return RootEnclosure(center, math.nextafter(stored, math.inf), mult, None, root)


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

