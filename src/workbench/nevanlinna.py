"""Nevanlinna functionals on a concrete closed class of meromorphic functions.

The class is scalar * prod_k p_k(z)^{m_k} * exp(Q(z)) with exact Gaussian
rational data: polynomial factors with integer (possibly negative)
multiplicities and a polynomial exponent.  It is closed under product,
quotient and integer powers, and the zero/pole divisor is fully determined
by the factored form, which makes counting functions exact.

Every circle functional here is one log-max average: the mean of
log max_i |f_i| over |z| = r.  The Cartan characteristic of a tuple is that
average, and the proximity function is the average for the pair (f, 1),
since log+|f| = log max(|f|, 1).  When every component is a class function
c exp(P(z)), so that each log|f_i| is b_i + Re of a polynomial in z, the
average is exact, arc by arc between the angles where two terms cross
(``max_harmonic_average``).  Anything else (polynomial factors, exp-sums,
log-derivatives) goes through adaptive trapezoid quadrature
(``circle_average``; spectrally accurate away from the kink set of the
maximum).

Tuples and counting take ``MeroFn`` and ``expsum.ExpSumFn`` (which imports
this module) duck-typed, through ``log_abs``, ``is_zero``, ``eval``,
``as_mero`` and ``exp_harmonic``; the zero-counting route is chosen in
``counting_of``.  Shared zeros have one exact route, ``shared_zeros``: a
gcd-free basis over Q(i) of the squarefree factors of both sides, in z or in
a common unit e^D, with no float matching.  The proximity of a
``LogDerivative`` is the log-max average of (f'/f, 1).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import mpmath
import numpy as np

from .algebra.euclid import gcd_poly
from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .algebra.roots import RootEnclosure, _to_mpc, roots_certified
from .algebra.squarefree import gcd_free_basis, squarefree_decompose
from .errors import InvalidInput, QuadratureError

INFINITY = float("inf")


def _univar(p) -> SparsePoly:
    if not isinstance(p, SparsePoly) or p.num_vars != 1:
        raise InvalidInput(f"expected a univariate polynomial, not {p!r}")
    return p


def _complex_coeffs_desc(p: SparsePoly) -> np.ndarray:
    deg = max(p.degree_in(0), 0)
    out = np.zeros(deg + 1, dtype=complex)
    for expo, c in p.terms.items():
        out[deg - expo[0]] = complex(c)
    return out


class MeroFn:
    """A meromorphic function scalar * prod_k P_k^k * exp(Q).

    Canonical form, by order: one monic squarefree P_k for each nonzero
    order k, whose roots are the points of order k; the scalar absorbs all
    constants.  It is the squarefree decomposition of the numerator and the
    denominator (Yun, SYMSAC 1976), unique, so ``==`` and ``hash`` compare
    values.  The zero scalar represents the zero function.

    The public constructor canonicalises its input: one squarefree
    decomposition per factor (whose parts are monic, so the unit moved into
    the scalar is the factor's leading coefficient), then a gcd-free
    refinement across all parts, regrouped by order (``_by_order``).
    Operands of ``*``, ``/``, ``inverse`` and ``**`` are already canonical,
    so products only refine the two factor lists against each other and
    regroup, and inverses and powers map the orders, which stay distinct;
    none of them decomposes again.
    """

    __slots__ = ("scalar", "factors", "exp_part", "_divisor")

    def __init__(self, scalar=1, factors: Iterable[tuple[SparsePoly, int]] = (),
                 exp_part: SparsePoly | None = None):
        scalar = GaussRat.coerce(scalar)
        exp_part = exp_part if exp_part is not None else SparsePoly.zero(1)
        _univar(exp_part)
        canon: dict[SparsePoly, int] = {}
        if scalar:
            for poly, mult in factors:
                poly = _univar(poly)
                if not isinstance(mult, int) or isinstance(mult, bool):
                    raise InvalidInput(f"a factor's multiplicity must be an integer, not {mult!r}")
                if mult == 0:
                    continue
                if not poly:
                    raise InvalidInput("zero polynomial factor with nonzero multiplicity")
                if poly.is_constant():
                    scalar = scalar * poly.constant_value() ** mult
                    continue
                for sq, k in squarefree_decompose(poly):
                    canon[sq] = canon.get(sq, 0) + k * mult
                # the parts are monic, so the unit they drop is the leading coefficient
                scalar = scalar * poly.terms[max(poly.terms)] ** mult
        self._set(scalar, _by_order(canon), exp_part)

    def _set(self, scalar: GaussRat, factors, exp_part: SparsePoly) -> None:
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(
            self, "factors",
            tuple(sorted(factors, key=lambda kv: (kv[0].degree_in(0), kv[0].sort_key())))
        )
        object.__setattr__(self, "exp_part", exp_part if scalar else SparsePoly.zero(1))
        object.__setattr__(self, "_divisor", None)

    @classmethod
    def _canonical(cls, scalar: GaussRat, factors, exp_part: SparsePoly) -> "MeroFn":
        """Wrap data that is already in canonical form, without decomposing it."""
        f = object.__new__(cls)
        f._set(scalar, factors, exp_part)
        return f

    def __setattr__(self, *a):
        raise AttributeError("MeroFn is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "MeroFn":
        return MeroFn(scalar=c)

    @staticmethod
    def from_poly(p: SparsePoly) -> "MeroFn":
        if not p:
            return MeroFn(scalar=0)
        return MeroFn(scalar=1, factors=[(p, 1)])

    @staticmethod
    def unit(exp_poly: SparsePoly) -> "MeroFn":
        """The zero-free function exp(Q)."""
        return MeroFn(scalar=1, exp_part=exp_poly)

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.scalar

    def as_mero(self) -> "MeroFn":
        """The class-function view; ``ExpSumFn.as_mero`` is the other one."""
        return self

    def is_constant(self) -> bool:
        return not self.factors and self.exp_part.degree_in(0) <= 0

    def constant_value(self) -> GaussRat:
        """Exact value of a constant function; requires a constant exp part too.

        exp(c) for c != 0 is transcendental, so only exp part 0 yields an
        exact Gaussian rational.
        """
        if not self.is_constant():
            raise InvalidInput("function is not constant")
        if self.exp_part:
            raise InvalidInput("constant has a transcendental exp factor")
        return self.scalar

    def __eq__(self, other):
        if not isinstance(other, MeroFn):
            return NotImplemented
        return (self.scalar == other.scalar and self.factors == other.factors
                and self.exp_part == other.exp_part)

    def __hash__(self):
        return hash((self.scalar, self.factors, self.exp_part))

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "MeroFn") -> "MeroFn":
        if self.is_zero() or other.is_zero():
            return MeroFn(scalar=0)
        canon = dict(self.factors)
        for p, m in other.factors:
            canon[p] = canon.get(p, 0) + m
        return MeroFn._canonical(self.scalar * other.scalar, _by_order(canon),
                                 self.exp_part + other.exp_part)

    def __truediv__(self, other: "MeroFn") -> "MeroFn":
        return self * other.inverse()

    def inverse(self) -> "MeroFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return MeroFn._canonical(GaussRat(1) / self.scalar,
                                 [(p, -m) for p, m in self.factors], -self.exp_part)

    def __pow__(self, k: int) -> "MeroFn":
        if not isinstance(k, int):
            raise InvalidInput("powers of class functions must be integers")
        if k == 0:
            return MeroFn(scalar=1)
        if k < 0:
            return self.inverse() ** (-k)
        return MeroFn._canonical(self.scalar**k, [(p, m * k) for p, m in self.factors],
                                 self.exp_part.scale(k))

    # -- divisor / evaluation -----------------------------------------------------

    def divisor(self) -> list[tuple[RootEnclosure, int]]:
        """Zero/pole divisor: (enclosure, signed multiplicity) per point."""
        if self._divisor is None:
            out = []
            for poly, mult in self.factors:
                for root in roots_certified(poly).roots:
                    out.append((root, mult))
            object.__setattr__(self, "_divisor", out)
        return self._divisor

    @property
    def exp_harmonic(self) -> tuple[float, list[complex]] | None:
        """(b, [a_1, ..., a_K]) with log|f(z)| = b + Re sum_k a_k z^k when
        f = c exp(Q) has no polynomial factors, else None.

        b = log|c| + Re Q(0) and a_k is the z^k coefficient of Q; ``f`` must be
        nonzero.
        """
        if self.factors:
            return None
        q = self.exp_part.terms
        b = self.scalar.log_abs() + float(q.get((0,), GaussRat(0)).re)
        return b, [complex(q.get((k,), GaussRat(0)))
                   for k in range(1, self.exp_part.degree_in(0) + 1)]

    def zero_multiplicities(self) -> list[int]:
        return [m for _, m in self.divisor() if m > 0]

    def eval(self, z: complex) -> complex:
        if self.is_zero():
            return 0j
        acc = complex(self.scalar)
        for poly, mult in self.factors:
            acc *= poly.compose([z], complex) ** mult
        if self.exp_part:
            acc *= np.exp(self.exp_part.compose([z], complex))
        return acc

    def log_abs(self, zs: np.ndarray) -> np.ndarray:
        """log |f| on an array of sample points (vectorized, -inf at zeros)."""
        if self.is_zero():
            return np.full(np.shape(zs), -INFINITY)
        acc = np.full(np.shape(zs), self.scalar.log_abs())
        with np.errstate(divide="ignore"):
            for poly, mult in self.factors:
                vals = np.polyval(_complex_coeffs_desc(poly), zs)
                acc = acc + mult * np.log(np.abs(vals))
            if self.exp_part:
                acc = acc + np.real(np.polyval(_complex_coeffs_desc(self.exp_part), zs))
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = [str(self.scalar)]
        for p, m in self.factors:
            parts.append(f"({p})^{m}" if m != 1 else f"({p})")
        if self.exp_part:
            parts.append(f"exp({self.exp_part})")
        return " * ".join(parts)

    __repr__ = __str__


def _by_order(canon: dict[SparsePoly, int]) -> list[tuple[SparsePoly, int]]:
    """(P_k, k) for each nonzero order k of prod p^m over ``canon``: P_k is the
    product of the elements of one gcd-free basis of the factors on which the
    multiplicity is k."""
    orders: dict[int, SparsePoly] = {}
    for q, (m,) in gcd_free_basis([{p: m for p, m in canon.items() if m}]).items():
        if m:
            orders[m] = orders[m] * q if m in orders else q
    return [(p, m) for m, p in orders.items()]


# ---------------------------------------------------------------------------
# logarithmic derivative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDerivative:
    """f'/f as an exact rational function num/den (den = product of factors)."""

    num: SparsePoly
    den: SparsePoly

    exp_harmonic = None  # no class-function view, so no exact circle average

    def eval(self, z: complex) -> complex:
        return self.num.compose([z], complex) / self.den.compose([z], complex)

    def is_zero(self) -> bool:
        return not self.num

    def log_abs(self, zs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            nv = np.polyval(_complex_coeffs_desc(self.num), zs)
            dv = np.polyval(_complex_coeffs_desc(self.den), zs)
            return np.log(np.abs(nv)) - np.log(np.abs(dv))

    @functools.cached_property
    def poles(self) -> tuple[RootEnclosure, ...]:
        """Poles are exactly the distinct roots of the (monic) factor product
        (all simple); resolved once per object."""
        if self.den.is_constant():
            return ()
        return roots_certified(self.den).roots


def log_derivative(f: MeroFn) -> LogDerivative:
    """Exact f'/f = sum m_k p_k'/p_k + Q' for a nonzero class function."""
    if f.is_zero():
        raise InvalidInput("logarithmic derivative of the zero function")
    den = SparsePoly.one(1)
    for p, _ in f.factors:
        den = den * p
    num = SparsePoly.zero(1)
    for p, m in f.factors:
        other = den.exact_div(p)
        num = num + (p.partial_derivative(0) * other).scale(m)
    num = num + f.exp_part.partial_derivative(0) * den
    return LogDerivative(num, den)


# ---------------------------------------------------------------------------
# evaluation grid
# ---------------------------------------------------------------------------

_CIRCLE_TOL = 1e-9
_PERTURB = 1e-6
# a grid's caps (the shipped grids reach 25 radii and 10^5): each radius costs a
# quadrature per functional and numpy allocates the grid; the counting functions
# list the ~r/pi zeros of an exponential unit in the disk of radius r, so a lattice
# scenario takes about 1 s at r = 10^6 (2-vCPU host) and runs out of memory at 10^8
MAX_GRID_COUNT = 1000
MAX_GRID_RADIUS = 1e6


def _on_circle(rho: float, r: float) -> bool:
    """Whether the modulus rho counts as lying on the circle of radius r."""
    return abs(rho - r) <= _CIRCLE_TOL * max(1.0, r)


@dataclass(frozen=True)
class RadiusGrid:
    """Log-spaced evaluation radii, kept clear of divisor moduli."""

    points: tuple[float, ...]

    @staticmethod
    def log_spaced(r_min: float, r_max: float, count: int) -> "RadiusGrid":
        if not 0 < r_min < r_max or count < 2:
            raise InvalidInput(f"grid needs 0 < r_min < r_max and count >= 2, not "
                               f"({r_min!r}, {r_max!r}, {count!r})")
        if count > MAX_GRID_COUNT:
            raise InvalidInput(f"grid count {count} is above MAX_GRID_COUNT = {MAX_GRID_COUNT}")
        if r_max > MAX_GRID_RADIUS:
            raise InvalidInput(f"grid r_max {r_max:g} is above MAX_GRID_RADIUS = {MAX_GRID_RADIUS:g}")
        pts = np.exp(np.linspace(math.log(r_min), math.log(r_max), count))
        return RadiusGrid(tuple(float(p) for p in pts))

    def perturbed_for(self, fns) -> "RadiusGrid":
        """Nudge any point that collides with a zero/pole modulus; an exp-sum
        without a class-function view has no certified divisor and is skipped."""
        moduli = []
        for f in fns:
            mero = f.as_mero()
            if mero is None:
                continue
            for root, _ in mero.divisor():
                moduli.append(abs(root.center))
        pts = []
        for p in self.points:
            q = p
            for _ in range(100):
                if not any(_on_circle(m, q) for m in moduli):
                    break
                q *= 1.0 + _PERTURB
            pts.append(q)
        return RadiusGrid(tuple(pts))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_ABS_TOL = 1e-8
_REL_TOL = 1e-9
_START_ORDER = 256
_MAX_ORDER = 1 << 21


def circle_average(logabs: Callable[[np.ndarray], np.ndarray], r: float) -> tuple[float, float]:
    """Adaptive trapezoid average of ``logabs`` over the circle |z| = r.

    Doubles the node count from _START_ORDER until two successive
    refinements agree within max(_ABS_TOL, _REL_TOL * |value|); returns
    (value, error_estimate).  A node on a zero (-inf) is sampled as -1e30
    and a NaN as 0.
    Raises QuadratureError with the best estimate when the cap is reached.
    """
    def sample(theta: np.ndarray) -> np.ndarray:
        return np.nan_to_num(logabs(r * np.exp(1j * theta)), neginf=-1e30)

    n = _START_ORDER
    theta = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    est = float(np.mean(sample(theta)))
    hits = 0
    while n < _MAX_ORDER:
        theta_new = theta + math.pi / n
        est_new = 0.5 * (est + float(np.mean(sample(theta_new))))
        err = abs(est_new - est)
        # the new nodes are the midpoints, so interleaving keeps the nodes sorted
        merged = np.empty(2 * n)
        merged[0::2], merged[1::2] = theta, theta_new
        theta = merged
        n *= 2
        est = est_new
        if err <= max(_ABS_TOL, _REL_TOL * abs(est)):
            hits += 1
            if hits >= 2:
                return est, err
        else:
            hits = 0
    raise QuadratureError(
        f"quadrature did not converge at r={r}", best_estimate=est, error_estimate=err
    )


_ADMIT = 1e-2      # roots w with ||w| - 1| below this are breakpoint candidates
_NEWTON_STEPS = 8
_MISSED = 1e-10    # an arc's term this far (times the scale) below the max at an end: a missed break


def _harmonic(b: float, w: Sequence[complex], t: float) -> tuple[float, float]:
    """h(t) = b + Re sum_k w_k e^{ikt} and its derivative h'(t)."""
    h, hp = b, 0.0
    for k, c in enumerate(w, 1):
        v = c * cmath.exp(1j * k * t)
        h += v.real
        hp -= k * v.imag
    return h, hp


def _harmonic_breaks(terms: Sequence[tuple[float, list[complex]]], r: float) -> set[float]:
    """Angles in [0, 2 pi) where two terms b + Re sum_k a_k (r e^{it})^k meet.

    Terms i, j meet where g(t) = (b_i - b_j) + Re sum_k d_k e^{ikt} = 0 with
    d_k = (a_ik - a_jk) r^k.  An affine difference (K = 1) meets at the at
    most two angles of (b_i - b_j) + |d_1| cos(t + arg d_1) = 0.  Otherwise
    2 w^K g is a polynomial of degree 2K in w = e^{it}; every root near the
    unit circle is admitted (an extra breakpoint is harmless) and its angle
    refined by Newton on g.
    """
    out = set()
    for (bi, ai), (bj, aj) in itertools.combinations(terms, 2):
        db = bi - bj
        pairs = itertools.zip_longest(ai, aj, fillvalue=0j)
        d = [(x - y) * r**k for k, (x, y) in enumerate(pairs, 1)]
        while d and d[-1] == 0:
            d.pop()
        if len(d) == 1:
            a = abs(d[0])
            if abs(db) <= a:
                phi, arg = math.acos(-db / a), cmath.phase(d[0])
                out.update(((phi - arg) % (2 * math.pi), (-phi - arg) % (2 * math.pi)))
        elif d:
            for w in np.roots([*reversed(d), 2 * db, *(c.conjugate() for c in d)]):
                if abs(abs(w) - 1) >= _ADMIT:
                    continue
                t = cmath.phase(w)
                for _ in range(_NEWTON_STEPS):
                    g, gp = _harmonic(db, d, t)
                    # a long step leaves the root's neighbourhood: keep the angle
                    if not gp or abs(g / gp) > _ADMIT:
                        break
                    t -= g / gp
                out.add(t % (2 * math.pi))
    return out


def max_harmonic_average(terms: Sequence[tuple[float, list[complex]]],
                         r: float) -> tuple[float, float]:
    """Exact average of max_i (b_i + Re sum_k a_ik z^k) over the circle |z| = r.

    Between consecutive breakpoints (``_harmonic_breaks``) one term is
    maximal; it is picked at the arc's midpoint and integrated in closed
    form, b (t1 - t0) + sum_k Im(w_k (e^{ik t1} - e^{ik t0})) / k with
    w_k = a_k r^k.  It must also be maximal at both ends of its arc: a
    shortfall beyond rounding means a missed breakpoint and raises
    ``QuadratureError``.

    Returns (value, error) like ``circle_average``.  The error bounds float
    rounding (a few ulps of max_i (|b_i| + sum_k |w_ik|) per arc) plus, at
    each arc end where the winner falls short of the maximal term by eta
    and their gap g has slope g', the area 1/2 |g'| delta^2 of misplacing
    their crossing by delta = 2 eta / |g'|.
    """
    ws = [(b, [a * r**k for k, a in enumerate(ak, 1)]) for b, ak in terms]
    breaks = sorted(_harmonic_breaks(terms, r))
    edges = breaks + [breaks[0] + 2 * math.pi] if breaks else [0.0, 2 * math.pi]
    at_edge = [[_harmonic(b, w, t)[0] for b, w in ws] for t in edges]
    scale = max(abs(b) + sum(map(abs, w)) for b, w in ws)
    total = short = worst = 0.0
    for n, (t0, t1) in enumerate(zip(edges, edges[1:])):
        mid = 0.5 * (t0 + t1)
        i = max(range(len(ws)), key=lambda j: _harmonic(*ws[j], mid)[0])
        b, w = ws[i]
        total += b * (t1 - t0) + sum(
            (wk * (cmath.exp(1j * k * t1) - cmath.exp(1j * k * t0))).imag / k
            for k, wk in enumerate(w, 1))
        for t, vals in ((t0, at_edge[n]), (t1, at_edge[n + 1])):
            j = max(range(len(ws)), key=vals.__getitem__)
            eta = vals[j] - vals[i]
            if eta > 0:
                bj, wj = ws[j]
                gap = [x - y for x, y in itertools.zip_longest(w, wj, fillvalue=0j)]
                slope = abs(_harmonic(b - bj, gap, t)[1])
                short += 2 * eta * eta / slope if slope else INFINITY
                worst = max(worst, eta)
    avg = total / (2 * math.pi)
    err = 4 * sys.float_info.epsilon * scale * (len(edges) - 1) + short / (2 * math.pi)
    if worst > _MISSED * scale:
        raise QuadratureError(f"missed a breakpoint at r={r}: an arc's term is not maximal "
                              "at its end", best_estimate=avg, error_estimate=err)
    return avg, err


# ---------------------------------------------------------------------------
# the functionals
# ---------------------------------------------------------------------------

def _check_radius(f: MeroFn, r: float, which: str = "both"):
    _check_clear((root for root, mult in f.divisor() if which != "pole" or mult < 0), r)


def _check_clear(roots: Iterable[RootEnclosure], r: float):
    for root in roots:
        if _on_circle(abs(root.center), r):
            raise InvalidInput(
                f"divisor point at |z|={abs(root.center)} sits on the circle r={r}; "
                "perturb the grid (RadiusGrid.perturbed_for)"
            )


def _divisor_points(f: MeroFn, sign: int, trunc: float = INFINITY):
    """(centre, min(mult, trunc)) of the zeros (sign 1) or poles (sign -1) of f."""
    return ((root.center, min(sign * mult, trunc))
            for root, mult in f.divisor() if sign * mult > 0)


def counting_N(f: MeroFn, target: str, r: float, trunc: float = INFINITY) -> float:
    """Counting function of zeros or poles inside radius r, truncated at ``trunc``.

    N = sum over divisor points 0 < |z| <= r of min(mult, trunc) log(r/|z|)
    plus min(mult at 0, trunc) log r.
    """
    if target not in ("zero", "pole"):
        raise InvalidInput("target must be 'zero' or 'pole'")
    if f.is_zero():
        raise InvalidInput("counting function of the zero function")
    _check_radius(f, r)
    return _log_counting(_divisor_points(f, 1 if target == "zero" else -1, trunc), r)


def _log_counting(points: Iterable[tuple[complex, float]], r: float) -> float:
    """Sum of w * log(r/|z|) over weighted points (z, w) with |z| <= r.

    A point at z == 0 contributes w * log r, the n(0) log r term of the
    counting function.  The code that produces a point decides exactly
    whether it is the origin and gives a nonzero point a nonzero float
    (``roots_certified`` and ``ExpSumFn.zeros_in_disk`` raise when one
    underflows), so this test is exact.  Points are summed in the order
    given.
    """
    total = 0.0
    for z, w in points:
        if z == 0:
            total += w * math.log(r)
        elif abs(z) <= r:
            total += w * math.log(r / abs(z))
    return total


_ONE = MeroFn(scalar=1)


def _log_max_average(fns, r: float) -> float:
    """Circle average of log max_i |f_i| over the nonzero components.

    Exact when the class-function view of every component is c exp(P(z))
    (``exp_harmonic``, which a one-term exp-sum resolves once); otherwise the
    trapezoid over each component's own ``log_abs``.
    """
    live = [g for g in fns if not g.is_zero()]
    harmonic = [g.exp_harmonic for g in live]
    if None not in harmonic:
        value, _ = max_harmonic_average(harmonic, r)
        return value

    def logmax(zs):
        return functools.reduce(np.maximum, (g.log_abs(zs) for g in live))

    value, _ = circle_average(logmax, r)
    return value


def proximity_m(f: MeroFn, r: float) -> float:
    """Circle average of log+ |f| = log max(|f|, 1); exact when f = c exp(P(z))."""
    if f.is_zero():
        return 0.0
    _check_radius(f, r)
    return _log_max_average((f, _ONE), r)


def characteristic_T(f, r: float) -> float:
    """Nevanlinna characteristic.

    For a single class function: T = m(infinity, r) + N(poles, r).  For a
    tuple (projective curve given by components without common zeros) of
    class functions or exp-sums: the circle average of log max_i |f_i|; a
    tuple of class functions is checked for common zeros and poles first.
    """
    if isinstance(f, MeroFn):
        # counting_N checks the radius against the divisor once for both terms
        return counting_N(f, "pole", r) + _log_max_average((f, _ONE), r)
    fns = tuple(f)
    if all(g.is_zero() for g in fns):
        raise InvalidInput("all components vanish")
    if all(isinstance(g, MeroFn) for g in fns):
        _validate_no_common_zeros(fns)
        for g in fns:
            if not g.is_zero():
                # individual zeros on the circle are harmless under log-max;
                # only poles would poison the average
                _check_radius(g, r, which="pole")
    return _log_max_average(fns, r)


def _zero_poly(f: MeroFn) -> SparsePoly:
    acc = SparsePoly.one(1)
    for p, m in f.factors:
        if m > 0:
            acc = acc * p
    return acc


@functools.lru_cache(maxsize=256)
def _validate_no_common_zeros(fns: tuple[MeroFn, ...]):
    """Raise unless the components share no zero; runs once per tuple.

    The check depends on the tuple only, not on the radius, so a grid of
    radii validates it once.  An InvalidInput is never cached: a tuple that
    fails raises again on every call.
    """
    polys = []
    for g in fns:
        if g.is_zero():
            continue
        polys.append(_zero_poly(g))
    if not polys:
        return
    g = polys[0]
    for p in polys[1:]:
        if g.is_constant():
            return
        g = gcd_poly(g, p, 0)
    if not g.is_constant():
        raise InvalidInput("tuple components share a zero (not a reduced representation)")


def counting_of(fn, r_max: float):
    """N(0, r) of a class function or exp-sum for radii r <= r_max, as
    ``N(r, trunc, assume_simple)``.

    The zero structure is resolved once, at ``r_max``, by the one route
    choice: the certified divisor of a class function (or one-term exp-sum),
    else ``zeros_in_disk`` (the exp lattice of a unit polynomial).  Each call
    then only sums the points with |z| <= r, in the resolved order.  Exp-sums
    without a supported zero structure fall back to the Jensen average for
    the untruncated count (also for truncated counts when ``assume_simple``
    is set, recorded by the caller as a note).
    """
    mero = fn.as_mero()
    zeros = (fn.zeros_in_disk(r_max) if mero is None else
             [(z, m) for z, m in _divisor_points(mero, 1) if abs(z) <= r_max])

    def N(r: float, trunc: float = INFINITY, assume_simple: bool = False) -> float:
        if zeros is not None:
            return _log_counting(((z, min(m, trunc)) for z, m in zeros), r)
        if trunc is INFINITY or assume_simple:
            return _jensen_counting(fn, r)
        raise InvalidInput(
            "truncated counting needs an explicit zero structure; "
            "set simple_zeros to use the Jensen fallback"
        )

    return N


def _jensen_counting(fn, r: float) -> float:
    """N(0, r) = average of log|fn| over |z| = r minus log|fn(0)| (Jensen)."""
    h0 = fn.eval(0j)
    if abs(h0) < 1e-12:
        raise InvalidInput("Jensen fallback needs a nonzero value at the origin")
    return _log_max_average((fn,), r) - math.log(abs(h0))


def exp_lattice(p: SparsePoly, D: SparsePoly, r: float) -> list[tuple[complex, int]]:
    """The zeros of p(e^D) in |z| <= r for a linear D = alpha z + beta.

    Each nonzero root w0 of p contributes the lattice D(z) = log w0 + 2 pi i k
    with the root's multiplicity; w = 0 has no preimage under the unit.
    Sorted by real, then imaginary part.
    """
    beta_exact, alpha = (c.constant_value() for c in D.coeffs_in(0))
    alpha, beta = complex(alpha), complex(beta_exact)
    out = []
    for root in roots_certified(p).roots:
        if root.exact == 0:
            continue
        # log1p of w0 - 1 keeps log w0 to full relative accuracy near
        # w0 = 1, where the float centre cancels: from the exact w0 when
        # it is in Q(i), else from the certified high-precision root
        with mpmath.workdps(30):
            w0m1 = _to_mpc(root.exact - 1) if root.exact is not None else root.root - 1
            w0log = complex(mpmath.log1p(w0m1))
        k0 = int((abs(alpha) * r + abs(w0log) + abs(beta)) / (2 * math.pi) + 2)
        for k in range(-k0, k0 + 1):
            z = (w0log + 2j * math.pi * k - beta) / alpha
            # the origin is beta = 0, w0 = 1 and k = 0 exactly: e^beta is
            # transcendental for algebraic beta != 0 (Lindemann-Weierstrass)
            if z == 0 and (beta_exact or root.exact != 1 or k):
                raise InvalidInput("a nonzero lattice zero underflows to 0")
            if abs(z) <= r:
                out.append((z, root.multiplicity))
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))


def _unit_factors(fn, radii) -> tuple[SparsePoly | None, dict[SparsePoly, int]]:
    """(D, {q: m}) with the zeros of ``fn`` those of prod_q q(e^D)^m, or of
    prod_q q(z)^m when D is None; the divisor of a class-function view may
    have no point on a circle of ``radii``.
    """
    mero = fn.as_mero()
    if mero is not None:
        if mero.is_zero():
            raise InvalidInput("gcd counting needs nonzero functions")
        for r in radii:
            _check_radius(mero, r)
        return None, {p: m for p, m in mero.factors if m > 0}
    reduced = fn._as_unit_polynomial()
    if reduced is None:
        raise InvalidInput("gcd counting needs explicit zero structures")
    p, D = reduced
    return D, dict(squarefree_decompose(p))


def common_unit(exponents: Sequence[SparsePoly]) -> tuple[SparsePoly, list[int]] | None:
    """(D, [k_i]) with D linear and each exponent k_i * D for coprime integers
    k_i, or None.  D is the first nonzero exponent over the lcm of the
    denominators of the exponents' ratios to it; an exponent off that line
    by a nonzero constant c has none (e^c would be algebraic; Lindemann)."""
    D0 = next((e for e in exponents if e), None)
    if D0 is None or D0.degree_in(0) != 1:
        return None
    ratios = []
    for e in exponents:
        ratio = e.terms.get((1,), GaussRat(0)) / D0.terms[(1,)]
        if not ratio.is_rational() or e != D0.scale(ratio):
            return None
        ratios.append(ratio.re)
    denom = math.lcm(*(k.denominator for k in ratios))
    return D0.scale(GaussRat(Fraction(1, denom))), [int(k * denom) for k in ratios]


def _inflate(p: SparsePoly, s: int) -> SparsePoly:
    """p(w^s), times w^(|s| deg p) when s < 0 so that it is a polynomial."""
    top = p.degree_in(0) if s < 0 else 0
    return SparsePoly(1, {(s * (e - top),): c for (e,), c in p.terms.items()})


def _shared_basis(ff: dict[SparsePoly, int], fg: dict[SparsePoly, int]):
    """(q, m) for each factor q of one gcd-free basis of both factor maps, with
    m > 0 the smaller of the multiplicities of q in ``ff`` and in ``fg``."""
    return [(q, m) for q, (a, b) in gcd_free_basis([ff, fg]).items() if (m := min(a, b))]


def shared_zeros(f, g, radii) -> list[tuple[complex, int]]:
    """Common zeros of two class functions or exp-sums, min-of-multiplicity
    weighted, resolved once for every radius in ``radii``.

    One exact route, with no tolerance: each side is a unit and squarefree
    factors (``_unit_factors``), and the shared zeros are those of the shared
    factors of one gcd-free basis over Q(i): their roots for two class
    functions, their exp lattices in |z| <= max(radii) for units e^{D_f},
    e^{D_g} rewritten over their common unit e^D (``common_unit``), D_f = k_f D
    and D_g = k_g D.  Units with a rational ratio and no common unit differ by
    a nonzero constant, and share nothing (Lindemann).  A class function P
    and p(e^{alpha z + beta}) can share only z0 = -beta/alpha, when
    P(z0) = 0 and p(1) = 0 (Hermite-Lindemann).  Units whose ratio is not
    rational raise.
    """
    (Df, ff), (Dg, fg) = _unit_factors(f, radii), _unit_factors(g, radii)
    if Df is None and Dg is None:
        return [(root.center, m) for q, m in _shared_basis(ff, fg)
                for root in roots_certified(q).roots]
    if Df is None or Dg is None:
        P, D, p = (ff, Dg, fg) if Df is None else (fg, Df, ff)
        beta, alpha = (c.constant_value() for c in D.coeffs_in(0))
        z0 = -beta / alpha
        m = min(sum(k for q, k in P.items() if not q.compose([z0], GaussRat.coerce)),
                sum(k for q, k in p.items() if not q.compose([1], GaussRat.coerce)))
        return [(complex(z0), m)] if m else []
    ratio = Dg.coeffs_in(0)[1].constant_value() / Df.coeffs_in(0)[1].constant_value()
    if not ratio.is_rational():
        raise InvalidInput(f"units exp({Df.to_string(['z'])}) and exp({Dg.to_string(['z'])}) "
                           "have no rational ratio")
    common = common_unit([Df, Dg])
    if common is None:
        return []
    unit, (kf, kg) = common
    ff = {_inflate(q, kf): k for q, k in ff.items()}
    fg = {_inflate(q, kg): k for q, k in fg.items()}
    return [(z, m) for q, m in _shared_basis(ff, fg)
            for z, _ in exp_lattice(q, unit, max(radii))]


def gcd_counting(f, g, r: float) -> float:
    """Counting function of common zeros with min-of-multiplicities weights."""
    return _log_counting(shared_zeros(f, g, [r]), r)


def log_derivative_T(ld: LogDerivative, r: float) -> float:
    """Characteristic of f'/f: proximity plus the (simple) pole counting."""
    _check_clear(ld.poles, r)
    poles = ((root.center, 1) for root in ld.poles)
    return _log_max_average((ld, _ONE), r) + _log_counting(poles, r)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def mero_to_doc(f: MeroFn) -> dict:
    from .algebra import serialize

    re, im = f.scalar.to_strings()
    return {
        "scalar": {"re": re, "im": im},
        "factors": [
            {"poly": serialize.poly_to_doc(p), "mult": m} for p, m in f.factors
        ],
        "exp": serialize.poly_to_doc(f.exp_part),
    }


def mero_from_doc(doc: dict) -> MeroFn:
    """The class function of a document; a malformed one raises InvalidInput."""
    from .algebra import serialize

    if not isinstance(doc, dict):
        raise InvalidInput(f"a class-function document is an object, not {doc!r}")
    with serialize.refuse_malformed("class-function"):
        sc = doc.get("scalar", {"re": "1", "im": "0"})
        scalar = GaussRat.from_strings(sc.get("re", "1"), sc.get("im", "0"))
        factors = [(serialize.poly_from_doc(t["poly"]),
                    serialize.json_int(t["mult"], "mult", "class-function"))
                   for t in doc.get("factors", [])]
    exp_doc = doc.get("exp")
    exp_part = serialize.poly_from_doc(exp_doc) if exp_doc else SparsePoly.zero(1)
    return MeroFn(scalar=scalar, factors=factors, exp_part=exp_part)
