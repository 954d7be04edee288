"""Scenario-driven verification of the supported inequalities, with margins.

A scenario file is the single source of truth: it names a target
inequality, the curve (a tuple of factored class functions), the polynomial
inputs and the parameters (epsilon, multiplicity floor, grid, allowance for
logarithmic error terms).  Running it produces per-radius rows
(r, lhs, rhs, margin) and a verdict: asymptotic statements are never
certified, only evaluated on the grid with margin curves, gated beyond a
pass radius so that transient bounded terms do not flip verdicts.

Supported targets:

- ``truncation-defect``: N - N^(1) of the composed function against
  eps * T of the curve, gated by exceptional-set membership.
- ``truncated-lower-bound``: N^(1) of the composed function against
  (deg - eps) * T.
- ``log-derivative-height``: T of f'/f against (1/ell) T_f plus the
  logarithmic allowance, for f with all zero multiplicities >= ell.
- ``borel-unit-sum``: T of the curve against the sum of n-truncated
  counting functions of the components of a vanishing sum.
- ``coefficient-borel``: the quotient characteristics of a vanishing
  combination with moving coefficients against 3n T_a + ((n^2-1)/ell) T_f.
- ``gcd-bound``: gcd counting of two composed forms against eps * T, with
  the multiplicative-degeneracy scan.
- ``smt-instance``: (q - n - 1 - eps) T against the truncated counting sum
  over a general-position configuration.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import serialize
from .algebra.euclid import gcd_poly
from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .constants import choose_m
from .errors import InvalidInput
from .expsum import ExpSumFn, eval_poly_on_tuple
from .exset import CurveSpec, build_W, member_of_W
from .morphisms import general_position_check
from .nevanlinna import (
    INFINITY,
    MeroFn,
    RadiusGrid,
    _check_radius,
    _log_counting,
    characteristic_T,
    circle_average,
    common_zeros,
    log_derivative,
    log_derivative_T,
    mero_from_doc,
)

TARGETS = (
    "truncation-defect",
    "truncated-lower-bound",
    "log-derivative-height",
    "borel-unit-sum",
    "coefficient-borel",
    "gcd-bound",
    "smt-instance",
)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginRow:
    r: float
    lhs: float
    rhs: float
    gated: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


class Verdict(Enum):
    """Outcome of a scenario; the value is the prefix of the rendered verdict."""

    HOLDS_ON_GRID = "holds-on-grid"
    EXCLUDED_BY_W = "excluded-by-W"
    DEGENERATE_BRANCH = "degenerate-branch"
    VIOLATED_AT = "violated-at"
    HYPOTHESIS_VIOLATION = "hypothesis-violation"


@dataclass
class MarginReport:
    scenario: str
    target: str
    rows: list[MarginRow] = field(default_factory=list)
    outcome: Verdict = Verdict.HOLDS_ON_GRID
    detail: str = ""  # rendered in parentheses after the outcome
    matched_curves: tuple[CurveSpec, ...] = ()
    degenerate_tuple: tuple[int, int] | None = None
    fitted_slopes: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        """The verdict as text, e.g. ``degenerate-branch(3, -1)``."""
        return self.outcome.value + (f"({self.detail})" if self.detail else "")

    def min_gated_margin(self) -> float:
        gated = [row.margin for row in self.rows if row.gated]
        return min(gated) if gated else float("nan")

    def gated_violations(self) -> list[float]:
        return [row.r for row in self.rows if row.gated and row.margin < -1e-9]

    def finalize(self) -> "MarginReport":
        bad = self.gated_violations()
        self.detail = ""
        if self.matched_curves:
            self.outcome = Verdict.EXCLUDED_BY_W
        elif self.degenerate_tuple is not None:
            self.outcome = Verdict.DEGENERATE_BRANCH
            self.detail = ", ".join(str(m) for m in self.degenerate_tuple)
        elif bad:
            self.outcome = Verdict.VIOLATED_AT
            self.detail = ", ".join(f"{r:.4g}" for r in bad)
        else:
            self.outcome = Verdict.HOLDS_ON_GRID
        self.fitted_slopes = {
            "lhs": fit_log_slope([(row.r, row.lhs) for row in self.rows if row.gated]),
            "rhs": fit_log_slope([(row.r, row.rhs) for row in self.rows if row.gated]),
            "margin": fit_log_slope([(row.r, row.margin) for row in self.rows if row.gated]),
        }
        return self

    def reject(self, reason: str) -> "MarginReport":
        """Record that the scenario's hypotheses fail, so nothing was tested."""
        self.outcome, self.detail = Verdict.HYPOTHESIS_VIOLATION, reason
        return self

    def passed(self) -> bool:
        """True unless a gated violation occurred outside the excluded branches."""
        return self.outcome is not Verdict.VIOLATED_AT

    def csv_rows(self) -> list[str]:
        out = ["r,lhs,rhs,margin,gated"]
        for row in self.rows:
            out.append(
                f"{row.r!r},{row.lhs!r},{row.rhs!r},{row.margin!r},{int(row.gated)}"
            )
        return out


def fit_log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of value against log r."""
    pts = [(math.log(r), v) for r, v in points if math.isfinite(v)]
    if len(pts) < 2:
        return float("nan")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    x0 = xs - xs.mean()
    denom = float(np.dot(x0, x0))
    if denom == 0:
        return float("nan")
    return float(np.dot(x0, ys - ys.mean()) / denom)


# ---------------------------------------------------------------------------
# generic functional dispatch (class functions and exp-sums)
# ---------------------------------------------------------------------------

def tuple_characteristic(fns, r: float) -> float:
    """Circle average of log max_i |f_i| for mixed class/exp-sum tuples."""
    if all(isinstance(f, MeroFn) for f in fns):
        return characteristic_T(tuple(fns), r)
    logs = [f.log_abs for f in fns if not f.is_zero()]

    def logmax(zs):
        return np.maximum.reduce([la(zs) for la in logs])

    value, _ = circle_average(logmax, r, positive_part=False)
    return value


def _zero_points(fn: ExpSumFn, r_max: float) -> list[tuple[complex, int]] | None:
    """Zeros with multiplicity of ``fn`` in |z| <= r_max, or None for Jensen.

    The one place the zero-counting route is chosen: a one-term exp-sum is
    a class function and uses its certified divisor; any other exp-sum uses
    ``zeros_in_disk`` (certified roots or the exp lattice); None means no
    supported zero structure, so only the Jensen average is available.
    """
    mero = fn.as_mero()
    if mero is not None:
        return [(root.center, m) for root, m in mero.divisor()
                if m > 0 and abs(root.center) <= r_max]
    return fn.zeros_in_disk(r_max)


def counting_of(fn: ExpSumFn, r_max: float):
    """N(0, r) of an exp-sum for radii r <= r_max, as ``N(r, trunc, assume_simple)``.

    The zero structure is resolved once, at ``r_max``; each call then only
    sums the points with |z| <= r, in the resolved order.  Exp-sums without
    a supported zero structure fall back to the Jensen average for the
    untruncated count (also for truncated counts when ``assume_simple`` is
    set, recorded by the caller as a note).
    """
    zeros = _zero_points(fn, r_max)

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


def _jensen_counting(fn: ExpSumFn, r: float) -> float:
    h0 = fn.eval(0j)
    if abs(h0) < 1e-12:
        raise InvalidInput("Jensen fallback needs a nonzero value at the origin")
    value, _ = circle_average(fn.log_abs, r, positive_part=False)
    return value - math.log(abs(h0))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

# (r_min, r_max, count) of the log-spaced grid when a scenario sets no "grid"
_DEFAULT_GRID = (2.0, 200.0, 21)


@dataclass
class Scenario:
    name: str
    target: str
    curve: tuple = ()
    coeffs: tuple = ()
    poly: SparsePoly | None = None
    polys: tuple[SparsePoly, ...] = ()
    params: dict = field(default_factory=dict)

    def grid(self) -> RadiusGrid:
        rmin, rmax, count = self.params.get("grid", _DEFAULT_GRID)
        return RadiusGrid.log_spaced(float(rmin), float(rmax), int(count))

    def eps(self) -> Fraction:
        return Fraction(self.params.get("eps", "1/10"))

    def allowance(self) -> tuple[float, float]:
        c, c0 = self.params.get("log_allowance", ("1", "0"))
        return float(Fraction(str(c))), float(Fraction(str(c0)))


def _r_pass(params: dict, grid: RadiusGrid) -> float:
    """Radius from which rows are gated: ``params["r_pass"]``, by default the
    geometric midpoint sqrt(r_min * r_max) of the grid."""
    if "r_pass" in params:
        return float(params["r_pass"])
    return math.sqrt(grid.points[0] * grid.points[-1])


def _component_from_doc(doc) -> MeroFn:
    if "poly" in doc and set(doc) <= {"poly"}:
        return MeroFn.from_poly(serialize.poly_from_doc(doc["poly"]))
    if "unit" in doc:
        return MeroFn.unit(serialize.poly_from_doc(doc["unit"]))
    if "const" in doc:
        c = doc["const"]
        return MeroFn.constant(GaussRat.from_strings(c.get("re", "0"), c.get("im", "0")))
    if "hl" in doc:
        h = serialize.poly_from_doc(doc["hl"]["h"])
        ell = int(doc["hl"]["ell"])
        return MeroFn(scalar=1, factors=[(h, ell)])
    return mero_from_doc(doc)


def scenario_from_doc(doc: dict) -> Scenario:
    if doc.get("schema") not in (None, "scenario/1"):
        raise InvalidInput(f"unknown scenario schema {doc.get('schema')!r}")
    target = doc["target"]
    if target not in TARGETS:
        raise InvalidInput(f"unknown target {target!r}")
    curve = tuple(_component_from_doc(c) for c in doc.get("curve", []))
    coeffs = tuple(_component_from_doc(c) for c in doc.get("coeffs", []))
    poly = serialize.poly_from_doc(doc["poly"]) if "poly" in doc else None
    polys = tuple(serialize.poly_from_doc(p) for p in doc.get("polys", []))
    return Scenario(
        name=doc.get("name", "unnamed"),
        target=target,
        curve=curve,
        coeffs=coeffs,
        poly=poly,
        polys=polys,
        params=doc.get("params", {}),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path) as fh:
        return scenario_from_doc(json.load(fh))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def run_scenario(s: Scenario) -> MarginReport:
    if s.target in ("truncation-defect", "truncated-lower-bound"):
        return _curve_vs_form_check(s)
    if s.target == "log-derivative-height":
        return _log_derivative_check(s)
    if s.target == "borel-unit-sum":
        return unit_sum_check(s.curve, s.grid(), s.allowance(), s.params,
                              name=s.name)
    if s.target == "coefficient-borel":
        ell = int(s.params.get("ell", 1))
        return borel_check(s.coeffs, s.curve, ell, s.grid(), s.allowance(),
                           s.params, name=s.name)
    if s.target == "gcd-bound":
        F, G = s.polys[0], s.polys[1]
        return gcd_bound_check(F, G, s.curve, s.eps(), s.params, s.grid(),
                               name=s.name)
    if s.target == "smt-instance":
        M = int(s.params.get("trunc", 1))
        return smt_instance_check(list(s.polys), s.curve, s.eps(), M, s.grid(),
                                  s.params, name=s.name)
    raise InvalidInput(f"unhandled target {s.target}")


def _validate_curve_tuple(curve, notes: list[str], ell: int | None):
    if not curve or all(c.is_zero() for c in curve):
        raise InvalidInput("curve components must not all vanish")
    if ell:
        for i, c in enumerate(curve):
            if c.is_zero():
                continue
            bad = [m for m in c.zero_multiplicities() if m < ell]
            if bad:
                notes.append(
                    f"component {i} has zero multiplicity {min(bad)} < ell={ell}"
                )


def _curve_vs_form_check(s: Scenario) -> MarginReport:
    if s.poly is None or len(s.curve) != 3:
        raise InvalidInput("target needs a form 'poly' and a 3-component curve")
    notes: list[str] = []
    ell = int(s.params["ell"]) if "ell" in s.params else None
    _validate_curve_tuple(s.curve, notes, ell)
    G = s.poly
    eps = float(s.eps())
    d = G.total_degree()

    matched: tuple[CurveSpec, ...] = ()
    if not s.params.get("skip_exceptional_set"):
        ell2 = s.params.get("ell2")
        W = build_W(G, ell2=int(ell2) if ell2 else None,
                    eps=s.eps() if not ell2 else None)
        matched = tuple(member_of_W(W, tuple(s.curve)))

    Gg = eval_poly_on_tuple(G, tuple(s.curve))
    if Gg.is_zero():
        return MarginReport(s.name, s.target, notes=tuple(notes)).reject(
            "curve lies inside the form")

    grid = s.grid().perturbed_for([c for c in s.curve if isinstance(c, MeroFn)])
    r_pass = _r_pass(s.params, grid)
    simple = bool(s.params.get("simple_zeros"))
    N = counting_of(Gg, max(grid.points))
    report = MarginReport(s.name, s.target, matched_curves=matched)
    for r in grid.points:
        T = tuple_characteristic(s.curve, r)
        if s.target == "truncation-defect":
            lhs = N(r) - N(r, trunc=1, assume_simple=simple)
            rhs = eps * T
        else:
            # lower bound N^(1) >= (d - eps) T: put the bound on the lhs so
            # the margin column rhs - lhs is nonnegative when it holds
            lhs = (d - eps) * T
            rhs = N(r, trunc=1, assume_simple=simple)
        report.rows.append(MarginRow(r, lhs, rhs, gated=r >= r_pass))
    report.notes = tuple(notes)
    return report.finalize()


def _log_derivative_check(s: Scenario) -> MarginReport:
    if len(s.curve) != 1:
        raise InvalidInput("log-derivative-height takes a single function")
    f = s.curve[0]
    ell = int(s.params.get("ell", 1))
    notes: list[str] = []
    mults = f.zero_multiplicities()
    if mults and min(mults) < ell:
        notes.append(f"zero multiplicity {min(mults)} below ell={ell}")
    C, C0 = s.allowance()
    ld = log_derivative(f)
    grid = s.grid().perturbed_for([f])
    r_pass = _r_pass(s.params, grid)
    report = MarginReport(s.name, s.target, notes=tuple(notes))
    for r in grid.points:
        Tf = characteristic_T(f, r)
        lhs = log_derivative_T(ld, r)
        rhs = Tf / ell + C * math.log(max(Tf, 1.0)) + C0
        report.rows.append(MarginRow(r, lhs, rhs, gated=r >= r_pass))
    return report.finalize()


def unit_sum_check(fns, grid: RadiusGrid, allowance=(1.0, 0.0), params=None,
                   name: str = "unit-sum") -> MarginReport:
    """Vanishing-sum bound: T of the first n+1 components against the
    truncated counting sum over all components."""
    params = params or {}
    if len(fns) < 3:
        raise InvalidInput("need at least three components")
    mero_fns = [f for f in fns if isinstance(f, MeroFn)]
    fns = [f if isinstance(f, ExpSumFn) else ExpSumFn.from_mero(f) for f in fns]
    n = len(fns) - 2
    total = ExpSumFn.zero()
    for f in fns:
        total = total + f
    report = MarginReport(name, "borel-unit-sum")
    if not total.is_zero():
        return report.reject("components do not sum to zero")
    bad = _vanishing_subsum(fns)
    if bad is not None:
        return report.reject(f"vanishing proper subsum {bad}")
    C, C0 = allowance
    grid = grid.perturbed_for(mero_fns)
    r_pass = _r_pass(params, grid)
    head = fns[: n + 1]
    counts = [counting_of(f, max(grid.points)) for f in fns]
    for r in grid.points:
        T = tuple_characteristic(head, r)
        rhs = sum(N(r, trunc=n) for N in counts)
        rhs += C * math.log(max(T, 1.0)) + C0
        report.rows.append(MarginRow(r, T, rhs, gated=r >= r_pass))
    return report.finalize()


def _vanishing_subsum(sums) -> tuple[int, ...] | None:
    """Smallest proper nonempty subset of exp-sums with identically zero sum, if any."""
    idx = [i for i, f in enumerate(sums) if not f.is_zero()]
    if len(idx) < len(sums):
        return tuple(i for i in range(len(sums)) if sums[i].is_zero())
    for size in range(1, len(sums)):
        for combo in itertools.combinations(range(len(sums)), size):
            total = ExpSumFn.zero()
            for i in combo:
                total = total + sums[i]
            if total.is_zero():
                return combo
    return None


def borel_check(coeffs, fns, ell: int, grid: RadiusGrid, allowance=(1.0, 0.0),
                params=None, name: str = "coefficient-borel") -> MarginReport:
    """Moving-coefficient vanishing combination: quotient characteristics
    against 3n T_a + ((n^2 - 1)/ell) T_f plus the allowance."""
    params = params or {}
    if len(coeffs) != len(fns):
        raise InvalidInput("coefficient and component counts differ")
    n = len(fns) - 1
    total = ExpSumFn.zero()
    for a, f in zip(coeffs, fns):
        total = total + ExpSumFn.from_mero(a) * ExpSumFn.from_mero(f)
    report = MarginReport(name, "coefficient-borel")
    if not total.is_zero():
        return report.reject("combination does not vanish")
    bad = tuple(i for i, (a, f) in enumerate(zip(coeffs, fns))
                if a.is_zero() or f.is_zero())
    if bad:
        return report.reject(f"vanishing proper subsum {bad}")
    # clear coefficient denominators so the coefficient tuple is entire
    denom = MeroFn.constant(1)
    for a in coeffs:
        for p, m in a.factors:
            if m < 0:
                denom = denom * MeroFn(scalar=1, factors=[(p, -m)])
    cleared = [a * denom for a in coeffs]
    C, C0 = allowance
    grid = grid.perturbed_for(list(fns) + cleared)
    r_pass = _r_pass(params, grid)
    notes: list[str] = []
    _validate_curve_tuple(fns, notes, ell)
    active = [i for i, a in enumerate(coeffs) if not a.is_zero()]
    for r in grid.points:
        Ta = tuple_characteristic(cleared, r)
        Tf = tuple_characteristic(fns, r)
        # Cartan characteristic of [f_i : f_j], which is T_{f_i/f_j} up to O(1)
        lhs = max(
            min(tuple_characteristic((fns[i], fns[j]), r)
                for j in range(len(fns)) if j != i)
            for i in active
        )
        rhs = 3 * n * Ta + (n * n - 1) / ell * Tf + C * math.log(max(Tf, 1.0)) + C0
        report.rows.append(MarginRow(r, lhs, rhs, gated=r >= r_pass))
    report.notes = tuple(notes)
    return report.finalize()


def gcd_bound_check(F: SparsePoly, G: SparsePoly, curve, eps: Fraction,
                    params=None, grid: RadiusGrid | None = None,
                    name: str = "gcd-bound") -> MarginReport:
    """Common-zero counting of two composed coprime forms against eps * T.

    Also runs the multiplicative-degeneracy scan over exponent tuples with
    l1-norm up to twice the working degree; an exactly-constant monomial or
    a grid ratio below eps^3 selects the degenerate branch.
    """
    params = params or {}
    eps = Fraction(eps)
    if F.num_vars != G.num_vars:
        raise InvalidInput("forms must share their variable count")
    n = F.num_vars - 1
    if len(curve) != F.num_vars:
        raise InvalidInput("curve length must match the number of variables")
    if not gcd_poly(F, G, 0).is_constant():
        raise InvalidInput("forms are not coprime")
    for i in range(F.num_vars):
        point = [GaussRat(0)] * F.num_vars
        point[i] = GaussRat(1)
        if not F.eval_exact(point) and not G.eval_exact(point):
            raise InvalidInput(f"both forms vanish at the coordinate point e_{i}")
    notes: list[str] = []
    ell = int(params["ell"]) if "ell" in params else None
    _validate_curve_tuple(curve, notes, ell)
    grid = (grid or RadiusGrid.log_spaced(*_DEFAULT_GRID)).perturbed_for(list(curve))
    r_pass = _r_pass(params, grid)

    Fg = eval_poly_on_tuple(F, tuple(curve))
    Gg = eval_poly_on_tuple(G, tuple(curve))
    if Fg.is_zero() or Gg.is_zero():
        return MarginReport(name, "gcd-bound", notes=tuple(notes)).reject(
            "a composed form vanishes identically")
    shared = _shared_zeros(Fg, Gg, grid.points)

    report = MarginReport(name, "gcd-bound", notes=tuple(notes))
    T_curve = [tuple_characteristic(curve, r) for r in grid.points]
    scan_params = dict(params)
    scan_params.setdefault("form_degree", max(F.total_degree(), G.total_degree()))
    gated_T = {r: T for r, T in zip(grid.points, T_curve) if r >= r_pass}
    report.degenerate_tuple = _degeneracy_scan(curve, eps, scan_params, gated_T, notes)

    for r, T in zip(grid.points, T_curve):
        lhs = _log_counting(shared, r)
        report.rows.append(MarginRow(r, lhs, float(eps) * T, gated=r >= r_pass))
    report.notes = tuple(notes)
    return report.finalize()


def _shared_zeros(Fg: ExpSumFn, Gg: ExpSumFn, radii) -> list[tuple[complex, int]]:
    """Common zeros of two composed forms, min-of-multiplicity weighted,
    resolved once for every radius in ``radii``.

    Two class functions match exactly through ``common_zeros``; no divisor
    point of either may lie on a circle of ``radii``.  Otherwise both zero
    lists are resolved at the largest radius and matched numerically.
    """
    mero_f, mero_g = Fg.as_mero(), Gg.as_mero()
    if mero_f is not None and mero_g is not None:
        for r in radii:
            _check_radius(mero_f, r)
            _check_radius(mero_g, r)
        return common_zeros(mero_f, mero_g)
    r_max = max(radii)
    zf = _zero_points(Fg, r_max)
    zg = _zero_points(Gg, r_max)
    if zf is None or zg is None:
        raise InvalidInput("gcd counting needs explicit zero structures")
    shared = []
    used = [False] * len(zg)
    for z, m in zf:
        for k, (w, mw) in enumerate(zg):
            if used[k]:
                continue
            if abs(z - w) <= 1e-8 * max(1.0, abs(z)):
                used[k] = True
                shared.append((z, min(m, mw)))
                break
    return shared


def _degeneracy_scan(curve, eps: Fraction, params, T_curve: dict[float, float],
                     notes: list[str]) -> tuple[int, int] | None:
    """Scan exponent tuples for multiplicative near-degeneracy of the curve.

    ``T_curve`` maps each gated radius to the characteristic of the curve.
    """
    if len(curve) != 3:
        return None
    g0, g1, g2 = curve
    if g0.is_zero() or g1.is_zero() or g2.is_zero():
        return None
    if not 0 < eps < 1:
        raise InvalidInput("degeneracy scan needs 0 < eps < 1")
    d = max(int(params.get("form_degree", 1)), 1)
    m = choose_m(eps, 2, d)
    bound = 2 * m
    cap = int(params.get("scan_cap", 8))
    numeric_bound = min(bound, cap)
    if numeric_bound < bound:
        notes.append(
            f"degeneracy scan: exact constants over |m1|+|m2| <= {bound}, "
            f"numeric ratios only up to {numeric_bound}"
        )
    u1, u2 = g1 / g0, g2 / g0
    eps3 = float(eps) ** 3
    tuples = sorted(
        (
            (m1, m2)
            for m1 in range(-bound, bound + 1)
            for m2 in range(-bound, bound + 1)
            if (m1, m2) != (0, 0)
            and abs(m1) + abs(m2) <= bound
            and math.gcd(m1, m2) == 1
        ),
        key=lambda t: (abs(t[0]) + abs(t[1]), t),
    )
    best = None
    for m1, m2 in tuples:
        mono = (u1**m1) * (u2**m2)
        if mono.is_constant():
            return _canonical_tuple(m1, m2)
        if abs(m1) + abs(m2) <= numeric_bound and best is None:
            ratios = [
                characteristic_T(mono, r) / T
                for r, T in T_curve.items() if T > 0
            ]
            if ratios and max(ratios) <= eps3:
                best = _canonical_tuple(m1, m2)
    return best


def _canonical_tuple(m1: int, m2: int) -> tuple[int, int]:
    """Sign-canonical representative: first nonzero entry positive."""
    first = m1 if m1 else m2
    return (m1, m2) if first > 0 else (-m1, -m2)


def smt_instance_check(hypersurfaces: list[SparsePoly], curve, eps: Fraction,
                       M: int, grid: RadiusGrid, params=None,
                       name: str = "smt-instance") -> MarginReport:
    """Truncated counting sum against (q - n - 1 - eps) T for a
    general-position configuration."""
    params = params or {}
    eps = Fraction(eps)
    if not hypersurfaces:
        raise InvalidInput("need at least one hypersurface")
    nv = hypersurfaces[0].num_vars
    n = nv - 1
    if any(p.num_vars != nv for p in hypersurfaces):
        raise InvalidInput("hypersurfaces must share the ambient dimension")
    if len(curve) != nv:
        raise InvalidInput("curve length must match the ambient dimension")
    report = MarginReport(name, "smt-instance")
    if nv == 3 and not params.get("skip_position_check"):
        pos = general_position_check(list(hypersurfaces))
        if not pos:
            return report.reject("not in general position")
    composed = []
    for p in hypersurfaces:
        c = eval_poly_on_tuple(p, tuple(curve))
        if c.is_zero():
            return report.reject("curve inside a hypersurface")
        composed.append((c, p.total_degree()))
    q = len(hypersurfaces)
    grid = grid.perturbed_for(list(curve))
    r_pass = _r_pass(params, grid)
    simple = bool(params.get("simple_zeros"))
    factor = q - n - 1 - float(eps)
    counts = [(counting_of(c, max(grid.points)), d) for c, d in composed]
    for r in grid.points:
        T = tuple_characteristic(curve, r)
        lhs = factor * T
        rhs = sum(N(r, trunc=M, assume_simple=simple) / d for N, d in counts)
        report.rows.append(MarginRow(r, lhs, rhs, gated=r >= r_pass))
    return report.finalize()


# ---------------------------------------------------------------------------
# exceptional-set witness generator
# ---------------------------------------------------------------------------

def _exact_root(beta) -> GaussRat | None:
    """Try to upgrade an enclosure to an exact Gaussian rational root."""
    if beta.enclosure.exact is not None:
        return beta.enclosure.exact
    c = beta.enclosure.center
    for den in (1, 2, 3, 4, 6, 8, 12, 16):
        cand = GaussRat(
            Fraction(round(c.real * den), den), Fraction(round(c.imag * den), den)
        )
        if not beta.defining_poly.eval_exact([cand]) and beta.enclosure.contains_exact(cand):
            return cand
    return None


def _perp_directions(e: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Integer directions perpendicular to e, both orientations.

    Modulo the all-ones vector the perpendicular space of e is a line, but
    the two orientations give genuinely different monomial witnesses after
    the exponents are shifted to be non-negative (one of them can push the
    relevant intersection point to the puncture at infinity).
    """
    candidates = [(e[1], -e[0], 0), (0, e[2], -e[1]), (e[2], 0, -e[0])]
    out = []
    for v in candidates:
        for w in (v, tuple(-x for x in v)):
            if w == (0, 0, 0) or len(set(w)) == 1:
                continue
            if w not in out:
                out.append(w)
    return out


def _bezout3(e: tuple[int, int, int]) -> tuple[int, int, int]:
    """Integers x with sum x_i e_i = 1 (the entries of e are coprime)."""
    import math as _m

    g01 = _m.gcd(e[0], e[1])
    if g01 == 0:
        # e = (0, 0, +-1)
        return (0, 0, 1 if e[2] == 1 else -1) if abs(e[2]) == 1 else (0, 0, 0)
    # x0 e0 + x1 e1 = g01, then y*(g01) + x2 e2 = 1
    x0, x1 = _ext_gcd(e[0], e[1])
    y, x2 = _ext_gcd(g01, e[2])
    return (x0 * y, x1 * y, x2)


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(x, y) with a x + b y = gcd(a, b) (gcd taken positive)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def witness_curves(spec: CurveSpec, count: int = 3,
                   require_form: SparsePoly | None = None) -> list[tuple[MeroFn, MeroFn, MeroFn]]:
    """Monomial curves t -> (c_i t^{k_i}) lying exactly on a relation curve.

    Returns up to ``count`` witnesses, or an empty list when the relation
    value has no exact Gaussian-rational representative.  With
    ``require_form`` only witnesses whose composition with the form is
    non-constant are kept (the generic parameterizations).
    """
    if spec.kind == "coordinate-line":
        z = SparsePoly.variable(0, 1)
        return [(MeroFn.constant(0), MeroFn.from_poly(z), MeroFn.constant(1))][:count]
    beta = _exact_root(spec.beta)
    if beta is None:
        return []
    e = spec.exponents
    x = _bezout3(e)
    if sum(xi * ei for xi, ei in zip(x, e)) != 1:
        return []
    z = SparsePoly.variable(0, 1)
    out = []
    for v in _perp_directions(e):
        for s in (1, 2, 3):
            k = [vi * s for vi in v]
            shift = -min(k)
            comps = []
            for i in range(3):
                c = beta ** x[i]
                comps.append(MeroFn(scalar=c, factors=[(z, k[i] + shift)]))
            curve = tuple(comps)
            if require_form is not None:
                h = eval_poly_on_tuple(require_form, curve).as_polynomial()
                if h is None or h.is_constant():
                    continue
            out.append(curve)
            if len(out) >= count:
                return out
    return out


def composed_form_has_multiple_zero(G: SparsePoly, curve) -> bool:
    """Exact check that G on the curve has some zero of multiplicity >= 2."""
    h = eval_poly_on_tuple(G, tuple(curve)).as_polynomial()
    if h is None:
        raise InvalidInput("composition did not reduce to a polynomial")
    if not h:
        return True
    g = gcd_poly(h, h.partial_derivative(0), 0)
    return g.degree_in(0) > 0


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def shipped_scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def run_suite(paths: list[Path]) -> tuple[list[MarginReport], bool]:
    reports = []
    ok = True
    for p in sorted(paths):
        rep = run_scenario(load_scenario(p))
        reports.append(rep)
        if not rep.passed():
            ok = False
    return reports, ok


def summary_table(reports: list[MarginReport]) -> str:
    lines = [f"{'scenario':32} {'target':24} {'verdict':34} {'min-margin':>12}"]
    for rep in reports:
        mm = rep.min_gated_margin()
        lines.append(
            f"{rep.scenario:32} {rep.target:24} {rep.verdict:34} {mm:12.4g}"
        )
    return "\n".join(lines)
