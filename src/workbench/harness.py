"""Scenario-driven verification of the supported inequalities, with margins.

A scenario file is the single source of truth: it names a target
inequality, the curve (a tuple of factored class functions), the polynomial
inputs and the parameters (epsilon, multiplicity floor, grid, allowance for
logarithmic error terms), each from the fixed list ``PARAMS``.  Every
target has one check ``Scenario -> MarginReport`` (``CHECKS``), which
validates the scenario, rejects it when its hypotheses fail and otherwise
hands one row function to the shared row loop: per-radius rows
(r, lhs, rhs, margin) on the grid nudged off the divisors, then a verdict.
Asymptotic statements are never certified, only evaluated on the grid with
margin curves, gated beyond a pass radius so that transient bounded terms
do not flip verdicts.

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
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path

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
    MeroFn,
    RadiusGrid,
    _log_counting,
    characteristic_T,
    counting_of,
    log_derivative,
    log_derivative_T,
    mero_from_doc,
    shared_zeros,
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


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _json_int(value) -> int:
    if not serialize.is_json_int(value):
        raise TypeError("expected an integer")
    return value


def _ranged(convert, within, expected: str):
    """The converter ``convert``, refusing a value that ``within`` rejects."""
    def checked(value):
        converted = convert(value)
        if not within(converted):
            raise ValueError(f"expected {expected}")
        return converted
    return checked


def _grid_param(value) -> RadiusGrid:
    rmin, rmax, count = value
    return RadiusGrid.log_spaced(float(rmin), float(rmax), _json_int(count))


def _allowance_param(value) -> tuple[float, float]:
    c, c0 = value
    return float(Fraction(str(c))), float(Fraction(str(c0)))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


# each key a scenario's "params" may set -> (converter with its type and range,
# default): a Scenario converts the keys given and fills the rest, so the checks
# read s.params[key] with no default of their own.  ell2=None derives build_W's
# bound from eps; r_pass=None gates from the geometric midpoint of the radii
_PARAMS = {
    "eps": (_ranged(Fraction, lambda e: 0 < e < 1, "0 < eps < 1"), Fraction(1, 10)),
    "ell": (_ranged(_json_int, lambda n: n >= 1, "an integer >= 1"), 1),
    "ell2": (_ranged(_json_int, lambda n: n >= 1, "an integer >= 1"), None),
    "trunc": (_ranged(_json_int, lambda n: n >= 1, "an integer >= 1"), 1),
    "scan_cap": (_ranged(_json_int, lambda n: n >= 0, "an integer >= 0"), 8),
    "r_pass": (_ranged(float, lambda r: 0 < r < math.inf, "a finite r_pass > 0"), None),
    "grid": (_grid_param, RadiusGrid.log_spaced(2.0, 200.0, 21)),
    "log_allowance": (_allowance_param, (1.0, 0.0)),
    "simple_zeros": (_flag, False),
}
PARAMS = frozenset(_PARAMS)

# target -> name of its check in this module; run_scenario looks the name up
# when it is called, so a wrapper bound to the module attribute sees the call
CHECKS = {
    "truncation-defect": "_curve_vs_form_check",
    "truncated-lower-bound": "_curve_vs_form_check",
    "log-derivative-height": "_log_derivative_check",
    "borel-unit-sum": "unit_sum_check",
    "coefficient-borel": "borel_check",
    "gcd-bound": "gcd_bound_check",
    "smt-instance": "smt_instance_check",
}


@dataclass
class Scenario:
    name: str
    target: str
    curve: tuple = ()
    coeffs: tuple = ()
    poly: SparsePoly | None = None
    polys: tuple[SparsePoly, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(self.params.keys() - PARAMS)
        if unknown:
            raise InvalidInput(f"unknown scenario parameters {', '.join(map(repr, unknown))}")
        given, converted = self.params, {}
        for key, (convert, default) in _PARAMS.items():
            try:
                converted[key] = convert(given[key]) if key in given else default
            except (InvalidInput, TypeError, ValueError, ArithmeticError) as exc:
                raise InvalidInput(
                    f"malformed scenario parameter {key!r} = {given[key]!r}: {exc}") from exc
        self.params = converted


def _component_from_doc(doc) -> MeroFn:
    """A scenario's curve or coefficient function; refuses a malformed one."""
    with serialize.refuse_malformed("scenario component"):
        if "poly" in doc and set(doc) <= {"poly"}:
            return MeroFn.from_poly(serialize.poly_from_doc(doc["poly"]))
        if "unit" in doc:
            return MeroFn.unit(serialize.poly_from_doc(doc["unit"]))
        if "const" in doc:
            c = doc["const"]
            return MeroFn.constant(GaussRat.from_strings(c.get("re", "0"), c.get("im", "0")))
        if "hl" in doc:
            h = serialize.poly_from_doc(doc["hl"]["h"])
            ell = serialize.json_int(doc["hl"]["ell"], "ell", "scenario component")
            return MeroFn(scalar=1, factors=[(h, ell)])
    return mero_from_doc(doc)


def scenario_from_doc(doc: dict) -> Scenario:
    """The scenario of a document; a malformed one raises InvalidInput."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"a scenario document is an object, not {doc!r}")
    with serialize.refuse_malformed("scenario"):
        if doc.get("schema") not in (None, "scenario/1"):
            raise InvalidInput(f"unknown scenario schema {doc.get('schema')!r}")
        target = doc.get("target")
        if target not in CHECKS:
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
    return scenario_from_doc(serialize.read_doc(path, "scenario"))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def run_scenario(s: Scenario) -> MarginReport:
    return globals()[CHECKS[s.target]](s)


def _gated_grid(s: Scenario, fns) -> tuple[tuple[float, ...], float]:
    """The scenario's radii nudged off the divisors of ``fns``, and the radius
    from which rows are gated: ``params["r_pass"]``, by default the geometric
    midpoint sqrt(r_min * r_max) of the nudged radii.  An r_pass beyond the
    last radius would gate no row, and is refused."""
    points = s.params["grid"].perturbed_for(fns).points
    r_pass = s.params["r_pass"]
    if r_pass is None:
        return points, math.sqrt(points[0] * points[-1])
    if r_pass > max(points):
        raise InvalidInput(f"malformed scenario parameter 'r_pass' = {r_pass!r}: "
                           f"beyond the last radius {max(points)!r}, so no row is gated")
    return points, r_pass


def _margins(report: MarginReport, points, r_pass: float, row,
             notes=()) -> MarginReport:
    """The row loop of every check: (r, *row(r)) at each radius, gated from
    ``r_pass``; then the notes and the verdict."""
    report.rows = [MarginRow(r, *row(r), gated=r >= r_pass) for r in points]
    report.notes = tuple(notes)
    return report.finalize()


def _validate_curve_tuple(curve, notes: list[str], ell: int):
    if not curve or all(c.is_zero() for c in curve):
        raise InvalidInput("curve components must not all vanish")
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
    _validate_curve_tuple(s.curve, notes, s.params["ell"])
    G = s.poly
    eps = float(s.params["eps"])
    d = G.total_degree()

    W = build_W(G, ell2=s.params["ell2"], eps=s.params["eps"])
    report = MarginReport(s.name, s.target, matched_curves=tuple(member_of_W(W, s.curve)))

    Gg = eval_poly_on_tuple(G, s.curve)
    if Gg.is_zero():
        return MarginReport(s.name, s.target, notes=tuple(notes)).reject(
            "curve lies inside the form")

    points, r_pass = _gated_grid(s, s.curve)
    simple = s.params["simple_zeros"]
    N = counting_of(Gg, max(points))

    def row(r):
        T = characteristic_T(s.curve, r)
        if s.target == "truncation-defect":
            return N(r) - N(r, trunc=1, assume_simple=simple), eps * T
        # lower bound N^(1) >= (d - eps) T: put the bound on the lhs so the
        # margin column rhs - lhs is nonnegative when it holds
        return (d - eps) * T, N(r, trunc=1, assume_simple=simple)

    return _margins(report, points, r_pass, row, notes)


def _log_derivative_check(s: Scenario) -> MarginReport:
    if len(s.curve) != 1:
        raise InvalidInput("log-derivative-height takes a single function")
    f = s.curve[0]
    ell = s.params["ell"]
    notes: list[str] = []
    _validate_curve_tuple((f,), notes, ell)
    if notes:  # the bound is stated for f with every zero multiplicity >= ell
        return MarginReport(s.name, s.target).reject(notes[0])
    C, C0 = s.params["log_allowance"]
    ld = log_derivative(f)
    points, r_pass = _gated_grid(s, [f])

    def row(r):
        Tf = characteristic_T(f, r)
        return log_derivative_T(ld, r), Tf / ell + C * math.log(max(Tf, 1.0)) + C0

    return _margins(MarginReport(s.name, s.target), points, r_pass, row, notes)


def unit_sum_check(s: Scenario) -> MarginReport:
    """Vanishing-sum bound: T of the first n+1 components against the
    truncated counting sum over all components."""
    fns = s.curve
    if len(fns) < 3:
        raise InvalidInput("need at least three components")
    sums = [ExpSumFn.of(f) for f in fns]
    n = len(sums) - 2
    total = ExpSumFn.zero()
    for f in sums:
        total = total + f
    report = MarginReport(s.name, s.target)
    if not total.is_zero():
        return report.reject("components do not sum to zero")
    bad = _vanishing_subsum(sums)
    if bad is not None:
        return report.reject(f"vanishing proper subsum {bad}")
    C, C0 = s.params["log_allowance"]
    points, r_pass = _gated_grid(s, fns)
    # the characteristic of the expanded head, whose rounding the shipped
    # margins carry; the counts from each component's own zero structure
    head = sums[: n + 1]
    counts = [counting_of(f, max(points)) for f in fns]

    def row(r):
        T = characteristic_T(head, r)
        rhs = sum(N(r, trunc=n) for N in counts)
        return T, rhs + C * math.log(max(T, 1.0)) + C0

    return _margins(report, points, r_pass, row)


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


def borel_check(s: Scenario) -> MarginReport:
    """Moving-coefficient vanishing combination: quotient characteristics
    against 3n T_a + ((n^2 - 1)/ell) T_f plus the allowance."""
    coeffs, fns = s.coeffs, s.curve
    ell = s.params["ell"]
    if len(coeffs) != len(fns):
        raise InvalidInput("coefficient and component counts differ")
    n = len(fns) - 1
    total = ExpSumFn.zero()
    for a, f in zip(coeffs, fns):
        total = total + ExpSumFn.of(a) * ExpSumFn.of(f)
    report = MarginReport(s.name, s.target)
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
    C, C0 = s.params["log_allowance"]
    points, r_pass = _gated_grid(s, list(fns) + cleared)
    notes: list[str] = []
    _validate_curve_tuple(fns, notes, ell)
    active = [i for i, a in enumerate(coeffs) if not a.is_zero()]

    def row(r):
        Ta = characteristic_T(cleared, r)
        Tf = characteristic_T(fns, r)
        # Cartan characteristic of [f_i : f_j], which is T_{f_i/f_j} up to O(1)
        lhs = max(
            min(characteristic_T((fns[i], fns[j]), r)
                for j in range(len(fns)) if j != i)
            for i in active
        )
        return lhs, 3 * n * Ta + (n * n - 1) / ell * Tf + C * math.log(max(Tf, 1.0)) + C0

    return _margins(report, points, r_pass, row, notes)


def gcd_bound_check(s: Scenario) -> MarginReport:
    """Common-zero counting of two composed coprime forms against eps * T.

    Also runs the multiplicative-degeneracy scan over exponent tuples with
    l1-norm up to twice the working degree; an exactly-constant monomial or
    a grid ratio below eps^3 selects the degenerate branch.
    """
    if len(s.polys) != 2:
        raise InvalidInput("gcd-bound needs two forms 'polys'")
    (F, G), curve = s.polys, s.curve
    eps = s.params["eps"]
    if F.num_vars != G.num_vars:
        raise InvalidInput("forms must share their variable count")
    if len(curve) != F.num_vars:
        raise InvalidInput("curve length must match the number of variables")
    if not gcd_poly(F, G, 0).is_constant():
        raise InvalidInput("forms are not coprime")
    for i in range(F.num_vars):
        point = [GaussRat(0)] * F.num_vars
        point[i] = GaussRat(1)
        if not F.compose(point, GaussRat.coerce) and not G.compose(point, GaussRat.coerce):
            raise InvalidInput(f"both forms vanish at the coordinate point e_{i}")
    notes: list[str] = []
    _validate_curve_tuple(curve, notes, s.params["ell"])
    points, r_pass = _gated_grid(s, curve)

    Fg = eval_poly_on_tuple(F, curve)
    Gg = eval_poly_on_tuple(G, curve)
    if Fg.is_zero() or Gg.is_zero():
        return MarginReport(s.name, s.target, notes=tuple(notes)).reject(
            "a composed form vanishes identically")
    shared = shared_zeros(Fg, Gg, points)

    report = MarginReport(s.name, s.target)
    T_curve = {r: characteristic_T(curve, r) for r in points}
    gated_T = {r: T for r, T in T_curve.items() if r >= r_pass}
    report.degenerate_tuple = _degeneracy_scan(
        curve, eps, max(F.total_degree(), G.total_degree()),
        s.params["scan_cap"], gated_T, notes)
    return _margins(report, points, r_pass,
                    lambda r: (_log_counting(shared, r), float(eps) * T_curve[r]), notes)


# Building and sorting the coprime tuples with |m1|+|m2| <= bound, before the
# first test, took 0.26 s at bound 314 (eps = 1/10, d = 1), 1.8 s at 1,000 and
# 3.0 s at 1,274 (Python 3.11, 2-vCPU host), growing as bound^2; a curve with
# no relation then tests every tuple, 23 s at bound 314 for (1, z, z^2 + 1).
# The shipped scenarios need a bound of 58.
MAX_SCAN_BOUND = 1000


def _degeneracy_scan(curve, eps: Fraction, d: int, scan_cap: int,
                     T_curve: dict[float, float], notes: list[str]) -> tuple[int, int] | None:
    """Scan exponent tuples for multiplicative near-degeneracy of the curve.

    ``d`` is the working degree of the forms, ``scan_cap`` the largest
    l1-norm whose grid ratios are computed, and ``T_curve`` maps each gated
    radius to the characteristic of the curve.
    """
    if len(curve) != 3:
        return None
    g0, g1, g2 = curve
    if g0.is_zero() or g1.is_zero() or g2.is_zero():
        return None
    m = choose_m(eps, 2, max(d, 1))
    bound = 2 * m
    if bound > MAX_SCAN_BOUND:
        raise InvalidInput(f"degeneracy scan to |m1|+|m2| <= {bound:,} is above the limit "
                           f"MAX_SCAN_BOUND = {MAX_SCAN_BOUND:,}; use a larger eps")
    numeric_bound = min(bound, scan_cap)
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


def smt_instance_check(s: Scenario) -> MarginReport:
    """Truncated counting sum against (q - n - 1 - eps) T for a
    general-position configuration."""
    hypersurfaces, curve = list(s.polys), s.curve
    eps = s.params["eps"]
    M = s.params["trunc"]
    if not hypersurfaces:
        raise InvalidInput("need at least one hypersurface")
    nv = hypersurfaces[0].num_vars
    n = nv - 1
    if any(p.num_vars != nv for p in hypersurfaces):
        raise InvalidInput("hypersurfaces must share the ambient dimension")
    if len(curve) != nv:
        raise InvalidInput("curve length must match the ambient dimension")
    report = MarginReport(s.name, s.target)
    shared = general_position_check(hypersurfaces) if nv == 3 else ()
    if shared:
        return report.reject("not in general position: " + "; ".join(
            f"curves {i}, {j}, {k} share a point" for i, j, k in shared))
    composed = []
    for p in hypersurfaces:
        c = eval_poly_on_tuple(p, curve)
        if c.is_zero():
            return report.reject("curve inside a hypersurface")
        composed.append((c, p.total_degree()))
    q = len(hypersurfaces)
    points, r_pass = _gated_grid(s, curve)
    simple = s.params["simple_zeros"]
    factor = q - n - 1 - float(eps)
    counts = [(counting_of(c, max(points)), d) for c, d in composed]

    def row(r):
        T = characteristic_T(curve, r)
        return factor * T, sum(N(r, trunc=M, assume_simple=simple) / d for N, d in counts)

    return _margins(report, points, r_pass, row)


# ---------------------------------------------------------------------------
# exceptional-set witness generator
# ---------------------------------------------------------------------------

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


def witness_curves(spec: CurveSpec, count: int = 3) -> list[tuple[MeroFn, MeroFn, MeroFn]]:
    """Monomial curves t -> (c_i t^{k_i}) lying exactly on a relation curve.

    Returns up to ``count`` witnesses, or an empty list when the relation
    value beta is not a Gaussian rational (its enclosure has no exact
    value).
    """
    if spec.kind == "coordinate-line":
        z = SparsePoly.variable(0, 1)
        return [(MeroFn.constant(0), MeroFn.from_poly(z), MeroFn.constant(1))][:count]
    beta = spec.beta.enclosure.exact
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
            out.append(tuple(comps))
            if len(out) >= count:
                return out
    return out


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
