"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload builds its inputs in ``__init__`` (the set-up the benchmark
times as ``setup_s``), runs one pass through ``run`` and splits the pass
into three stages, timed separately.  Every operation carries a check that
runs after the pass, outside the timed region; it returns ``None`` when the
output is correct and a one-line reason otherwise.

``workbench`` must be importable (``src`` on ``sys.path``).  Operations call
the workbench through module attributes at call time, so a traced pass
sees the wrappers ``tracer.Tracer.install`` binds there.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import mpmath
import numpy as np

import oracle
from oracle import QI
from workbench import exset, harness, morphisms
from workbench.algebra import euclid, roots, squarefree
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.nevanlinna import MeroFn

REFERENCE = Path(__file__).with_name("reference.json")


class Pass:
    """Times operations by stage and keeps each output with its check.

    With a ``calibration.Calibration`` running, the time its slices take
    inside an operation is not counted to the operation.
    """

    def __init__(self, stages, calibration=None):
        self.stage_s = dict.fromkeys(stages, 0.0)
        self.calibration = calibration
        self.ops: list = []

    def paused_s(self) -> float:
        """Time the calibration slices have taken so far."""
        return self.calibration.spent if self.calibration else 0.0

    def op(self, stage: str, label: str, check, fn):
        spent = self.paused_s()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising operation is a failed one
            out = exc
        took = time.perf_counter() - start
        self.stage_s[stage] += took - (self.paused_s() - spent)
        self.ops.append((label, out, check))
        return out

    def verify(self) -> list[str]:
        """Run every check; return one line per failed operation."""
        failures = []
        for label, out, check in self.ops:
            if isinstance(out, Exception):
                failures.append(f"{label}: raised {type(out).__name__}: {out}")
                continue
            try:
                problem = check(out)
            except Exception as exc:  # a check that cannot run fails its operation
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"{label}: {problem}")
        return failures


def _variables(n: int):
    return [SparsePoly.variable(i, n) for i in range(n)]


UNITS = (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1))


def _gauss(rng: random.Random) -> GaussRat:
    """A unit of Z[i].

    Inputs of one shape then have one coefficient size, so what a draw
    costs barely depends on the seed: with coefficients up to 3 in modulus,
    one conic pushforward took 7 s on one seed and 13 s on another.
    """
    return rng.choice(UNITS)


def _dense(rng: random.Random, num_vars: int, degree: int) -> SparsePoly:
    """Every monomial of total degree <= degree with a nonzero coefficient.

    A fixed dense support keeps the cost of one draw close to that of
    another of the same degree; random supports vary it a hundredfold.
    """
    if num_vars == 1:
        expos = [(i,) for i in range(degree + 1)]
    else:
        expos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return SparsePoly(num_vars, {e: _gauss(rng) for e in expos})


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def scenario_outcome(report) -> dict:
    """The parts of a scenario report the reference pins."""
    return {
        "verdict": report.verdict,
        "degenerate_tuple": list(report.degenerate_tuple) if report.degenerate_tuple else None,
        "matched_curves": len(report.matched_curves),
    }


SUITE_STAGE_OF_TARGET = {"gcd-bound": "gcd_bound_s", "truncation-defect": "curve_vs_form_s",
                         "truncated-lower-bound": "curve_vs_form_s"}


class Suite:
    """The 12 shipped scenarios, each loaded and run, in a seeded order."""

    stages = ("gcd_bound_s", "curve_vs_form_s", "other_checks_s")

    def __init__(self, seed: int, reference: dict):
        self.reference = reference["suite"]
        self.paths = sorted(harness.shipped_scenario_dir().glob("*.json"))
        random.Random(f"suite/{seed}").shuffle(self.paths)
        self.stage = {p: SUITE_STAGE_OF_TARGET.get(json.loads(p.read_text())["target"],
                                                   "other_checks_s") for p in self.paths}

    def run(self, p: Pass) -> None:
        for path in self.paths:
            expected = self.reference[path.stem]

            def check(report, expected=expected):
                got = scenario_outcome(report)
                return None if got == expected else f"got {got}, reference {expected}"

            p.op(self.stage[path], f"scenario {path.stem}", check,
                 lambda path=path: harness.run_scenario(harness.load_scenario(path)))


# ---------------------------------------------------------------------------
# exset
# ---------------------------------------------------------------------------

def exset_curves() -> dict[str, SparsePoly]:
    x0, x1, x2 = _variables(3)
    return {
        "sphere": x0**2 + x1**2 + x2**2,
        "cubic": x0**3 + x1**3 + x2**3 + x0 * x1 * x2,
        "quartic": x0**4 + x1**4 + x2**4 + x0 * x1 * x2**2,
    }


EXSET_BUILDS = (("sphere", 2), ("sphere", 3), ("sphere", 4), ("cubic", 2), ("cubic", 3),
                ("quartic", 2))
EXSET_QUERY_SET = ("cubic", 3)
EXSET_MISSES = 2


def w_content(W) -> list:
    """Kind, index or exponents, and defining polynomial of every curve, sorted."""
    rows = []
    for c in W.curves:
        if c.kind == "coordinate-line":
            rows.append([c.kind, [c.coord_index], ""])
        else:
            rows.append([c.kind, list(c.exponents), str(c.beta.defining_poly)])
    return sorted(rows)


def _miss_triple(rng: random.Random):
    """(p, exp(a z), q) with p, q of degree 2 and not proportional.

    No monomial relation with exponents summing to zero holds: the unit
    forces its exponent to zero, and then p^e / q^e is not constant.
    """
    z = SparsePoly.variable(0, 1)
    while True:
        p, q = _dense(rng, 1, 2), _dense(rng, 1, 2)
        if not oracle.proportional(oracle.univariate(p, 0, [QI()]),
                                   oracle.univariate(q, 0, [QI()])):
            break
    a = GaussRat(rng.randint(1, 3), rng.randint(-3, 3))
    return (MeroFn.from_poly(p), MeroFn.unit(z.scale(a)), MeroFn.from_poly(q))


class Exset:
    """Writes (build_W) and reads (member_of_W) of exact exceptional sets."""

    stages = ("build_W_s", "member_hit_s", "member_miss_s")

    def __init__(self, seed: int, reference: dict):
        self.reference = reference["exset"]
        self.curves = exset_curves()
        self.rng = random.Random(f"exset/{seed}")
        self.misses = [_miss_triple(self.rng) for _ in range(EXSET_MISSES)]

    def run(self, p: Pass) -> None:
        sets = {}
        for name, bound in EXSET_BUILDS:
            expected = self.reference[f"{name}/{bound}"]

            def check(W, expected=expected):
                got = w_content(W)
                return None if got == expected else f"{len(got)} curves differ from the reference"

            sets[name, bound] = p.op("build_W_s", f"build_W {name} bound {bound}", check,
                                     lambda G=self.curves[name], bound=bound:
                                     exset.build_W(G, bound))
        W = sets[EXSET_QUERY_SET]
        if isinstance(W, Exception):
            return
        # hits: one exact witness per curve that has one (untimed glue)
        queries = [("member_hit_s", curve) for spec in W.curves
                   for curve in harness.witness_curves(spec, count=1)]
        queries += [("member_miss_s", curve) for curve in self.misses]
        self.rng.shuffle(queries)
        for i, (stage, curve) in enumerate(queries):
            hit = stage == "member_hit_s"

            def check(matches, hit=hit):
                return None if bool(matches) == hit else f"expected {'a hit' if hit else 'a miss'}"

            p.op(stage, f"member_of_W query {i} ({'hit' if hit else 'miss'})", check,
                 lambda curve=curve: exset.member_of_W(W, curve))


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

# degree -> draws
RESULTANT_DRAWS = {4: 3, 6: 2, 8: 2}
GCD_DRAWS = {4: 3, 6: 3, 8: 3}
ROOTS_DRAWS = {9: 2, 20: 2, 34: 2}
# degree -> degrees of the factors raised to the powers 1, 2 and 3
SQUAREFREE_SHAPES = {19: (4, 3, 3), 41: (5, 6, 8), 69: (9, 9, 14)}
SQUAREFREE_DRAWS = 2


def _points(rng: random.Random, count: int):
    return [QI(rng.randint(-5, 5), rng.randint(1, 5)) / QI(rng.randint(1, 4))
            for _ in range(count)]


def check_resultant(f, g, points):
    def check(R):
        if any(e[1] for e in R.terms):
            return "resultant still involves the eliminated variable"
        for x in points:
            want = oracle.sylvester_resultant(oracle.univariate(f, 1, [x, QI()]),
                                              oracle.univariate(g, 1, [x, QI()]))
            if oracle.evaluate(R, [x, QI()]) != want:
                return "disagrees with the Sylvester determinant at a specialization"
        return None
    return check


def _coprime(a, b, points) -> bool:
    """Certify gcd(a, b) = 1 for bivariate a, b by two specializations.

    A common factor of positive y-degree survives x = x0 when the leading
    y-coefficient of a does not vanish there; one of positive x-degree
    survives y = y0 likewise.  Falls back to the kernel's gcd otherwise.
    """
    for keep in (1, 0):
        for x in points:
            pt = [x, x]
            fa, fb = oracle.univariate(a, keep, pt), oracle.univariate(b, keep, pt)
            if fa[-1] and oracle.gcd_degree(fa, fb) == 0:
                break
        else:
            return euclid.gcd_poly(a, b).is_constant()
    return True


def check_gcd(f, g, points):
    def check(h):
        if not (h.divides(f) and h.divides(g)):
            return "gcd does not divide both inputs"
        if not _coprime(f.exact_div(h), g.exact_div(h), points):
            return "cofactors share a factor"
        return None
    return check


def _polyroots(coeffs: list[QI]):
    with mpmath.workdps(50):
        cm = [mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                         mpmath.mpf(c.im.numerator) / c.im.denominator) for c in coeffs]
        return mpmath.polyroots(cm[::-1], maxsteps=400, extraprec=50)


def _mp_roots(coeffs: list[QI]):
    """The distinct roots, by mpmath at 50 digits.

    Solving the exact squarefree part costs seconds at degree 34, so the
    polynomial is solved as it is first.  Iterating at about 110 digits
    spreads a root of multiplicity m < 9 into a cluster narrower than
    1e-12; when two roots lie that close, the squarefree part is solved.
    """
    found = _polyroots(coeffs)
    with mpmath.workdps(50):
        scale = 1 + max(abs(r) for r in found)
        if all(abs(r - s) > 1e-12 * scale for i, r in enumerate(found) for s in found[:i]):
            return found
    return _polyroots(oracle.squarefree_part(coeffs))


def _coeffs_of(f) -> list[QI]:
    var = next((v for v in range(f.num_vars) if any(e[v] for e in f.terms)), 0)
    return oracle.trim(oracle.univariate(f, var, [QI()] * f.num_vars))


def enclosure_hits(f, disks) -> tuple[int, int]:
    """(disks that contain their root, disks) for one roots_certified output.

    A disk with an exact root counts when that value is a root exactly;
    any other disk when the nearest mpmath root at 50 digits lies inside
    it, with no slack.
    """
    coeffs = _coeffs_of(f)
    mp_roots = _mp_roots(coeffs) if any(d.exact is None for d in disks) else []
    hits = 0
    with mpmath.workdps(50):
        for d in disks:
            if d.exact is not None:
                # only one variable occurs in f, so setting all to the root is exact
                hits += not oracle.evaluate(f, [QI.of(d.exact)] * f.num_vars)
            else:
                center = mpmath.mpc(d.center.real, d.center.imag)
                hits += min(abs(r - center) for r in mp_roots) <= mpmath.mpf(d.radius)
    return hits, len(disks)


def enclosure_metrics(outputs) -> dict[str, float]:
    """The share of disks containing their root, over (polynomial, disks) pairs."""
    hits = checked = 0
    for f, disks in outputs:
        h, n = enclosure_hits(f, disks)
        hits, checked = hits + h, checked + n
    return {"algebra.roots_certified.enclosures": checked,
            "algebra.roots_certified.enclosure_hit_ratio": hits / checked if checked else 0.0}


def check_roots(f):
    """Multiplicities add up to the degree; every root numpy finds (in double
    precision, for these simple roots) lies near a disk centre."""
    def check(R):
        coeffs = _coeffs_of(f)
        if sum(d.multiplicity for d in R.roots) != len(coeffs) - 1:
            return "multiplicities do not add up to the degree"
        centers = np.array([d.center for d in R.roots])
        for r in np.roots([complex(c) for c in reversed(coeffs)]):
            if np.min(np.abs(centers - r)) > 1e-6 * max(1.0, abs(r)):
                return "a root lies far from every disk centre"
        return None
    return check


def check_squarefree(f):
    def check(factors):
        polys = [_coeffs_of(p) for p, _ in factors]
        prod = [QI(1)]
        for c, (_, m) in zip(polys, factors):
            for _ in range(m):
                prod = oracle.mul(prod, c)
        if not oracle.proportional(prod, _coeffs_of(f)):
            return "factors do not rebuild the input up to a unit"
        for i in range(len(polys)):
            if len(polys[i]) < 2:
                return "constant factor"
            for j in range(i):
                if oracle.gcd_degree(polys[i], polys[j]) != 0:
                    return "factors are not pairwise coprime"
        return None
    return check


def check_pushforward(m, Z):
    def check(A):
        if A.is_constant():
            return "A is constant"
        if not Z.divides(m.apply_to_polys(m.powered_components(), A)):
            return "Z does not divide A composed with the morphism"
        return None
    return check


def pushforward_degrees(workload, p: Pass) -> dict[str, int]:
    """The degree bound deg A <= 2 deg Z on each pushforward of the pass.

    The image of Z under the squaring map has degree at most 2 deg Z, so a
    larger A carries extra factors (ROADMAP item 3b).  Like the enclosure
    count, this is reported as a count with its base, not as a failure.
    """
    inputs = getattr(workload, "pushforward_inputs", {})
    checked = over = extra = 0
    for label, out, _ in p.ops:
        Z = inputs.get(label)
        if Z is None or isinstance(out, Exception):
            continue
        excess = out.total_degree() - 2 * Z.total_degree()
        checked += 1
        over += excess > 0
        extra += max(excess, 0)
    return {"morphisms.pushforward_curve.checked": checked,
            "morphisms.pushforward_curve.over_degree_bound": over,
            "morphisms.pushforward_curve.extra_degree": extra}


def _nonsingular_conic(rng: random.Random) -> SparsePoly:
    x0, x1, x2 = _variables(3)
    while True:
        a = [_gauss(rng) for _ in range(6)]
        Z = (x0**2).scale(a[0]) + (x1**2).scale(a[1]) + (x2**2).scale(a[2]) \
            + (x0 * x1).scale(a[3]) + (x0 * x2).scale(a[4]) + (x1 * x2).scale(a[5])
        q = [QI.of(c) for c in a]
        two = QI(2)
        # twice the symmetric matrix of Z; singular exactly when Z is
        if oracle.determinant([[q[0] * two, q[3], q[4]],
                               [q[3], q[1] * two, q[5]],
                               [q[4], q[5], q[2] * two]]):
            return Z


class Elimination:
    """Large single problems for the exact kernels and the pushforward."""

    stages = ("resultant_gcd_s", "roots_squarefree_s", "pushforward_s")

    def __init__(self, seed: int, reference: dict):
        rng = random.Random(f"elimination/{seed}")
        self.points = _points(rng, 4)
        ops = []
        for d, n in RESULTANT_DRAWS.items():
            for k in range(n):
                f, g = _dense(rng, 2, d), _dense(rng, 2, d)
                ops.append(("resultant_gcd_s", f"resultant degree {d} draw {k}",
                            check_resultant(f, g, self.points),
                            lambda f=f, g=g: euclid.resultant(f, g, 1)))
        for d, n in GCD_DRAWS.items():
            for k in range(n):
                h = _dense(rng, 2, d // 2)
                f, g = h * _dense(rng, 2, d - d // 2), h * _dense(rng, 2, d - d // 2)
                ops.append(("resultant_gcd_s", f"gcd_poly degree {d} draw {k}",
                            check_gcd(f, g, self.points),
                            lambda f=f, g=g: euclid.gcd_poly(f, g)))
        for d, n in ROOTS_DRAWS.items():
            for k in range(n):
                f = _dense(rng, 1, d)
                ops.append(("roots_squarefree_s", f"roots_certified degree {d} draw {k}",
                            check_roots(f), lambda f=f: roots.roots_certified(f)))
        for d, shape in SQUAREFREE_SHAPES.items():
            for k in range(SQUAREFREE_DRAWS):
                f = SparsePoly.one(1)
                for power, dk in enumerate(shape, 1):
                    f = f * _dense(rng, 1, dk) ** power
                ops.append(("roots_squarefree_s", f"squarefree_decompose degree {d} draw {k}",
                            check_squarefree(f),
                            lambda f=f: squarefree.squarefree_decompose(f)))
        x0, x1, x2 = _variables(3)
        m = morphisms.PowerMorphism.build(x0**2, x1**2, x2**2)
        line = x0.scale(_gauss(rng)) + x1.scale(_gauss(rng)) + x2.scale(_gauss(rng))
        conic = _nonsingular_conic(rng)
        self.pushforward_inputs = {f"pushforward_curve {label} {Z}": Z
                                   for label, Z in (("line", line), ("conic", conic))}
        for label, Z in self.pushforward_inputs.items():
            ops.append(("pushforward_s", label, check_pushforward(m, Z),
                        lambda Z=Z: morphisms.pushforward_curve(m, Z)))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, p: Pass) -> None:
        for op in self.ops:
            p.op(*op)


WORKLOADS = {"suite": Suite, "exset": Exset, "elimination": Elimination}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
