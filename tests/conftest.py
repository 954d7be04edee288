import math
import random
import statistics
from fractions import Fraction

import pytest
import sympy

from workbench.algebra.euclid import canonical_scale, gcd_poly
from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import roots_certified
from workbench.expsum import eval_poly_on_tuple
from workbench.harness import Scenario


@pytest.fixture
def rng():
    return random.Random(20240817)


def variables(n):
    return [SparsePoly.variable(i, n) for i in range(n)]


def count_calls(monkeypatch, module, name):
    """Replace module.name by a pass-through that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fit_log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of value against log r, over the finite values."""
    pts = [(math.log(r), v) for r, v in points if math.isfinite(v)]
    return statistics.linear_regression(*zip(*pts)).slope


def scenario(target, curve=(), params=None, coeffs=(), polys=()) -> Scenario:
    """A Scenario as a scenario file gives it, named after its target: the
    components and forms as tuples, and the grid as ``(r_min, r_max, count)``
    in ``params``, which the Scenario converts."""
    return Scenario(name=target, target=target, curve=tuple(curve), coeffs=tuple(coeffs),
                    polys=tuple(polys), params=dict(params or {}))


def two_close_roots():
    """(z - 1)(z - 1 - 10^-10), the gap 10^-10, and the certified disks about
    1 and about 1 + 10^-10."""
    z = SparsePoly.variable(0, 1)
    gap = GaussRat(Fraction(1, 10**10))
    f = (z - 1) * (z - 1 - gap)
    near_one, near_other = sorted(roots_certified(f).roots, key=lambda d: d.center.real)
    return f, gap, near_one, near_other


def to_sympy(p: SparsePoly, symbols):
    """Independent conversion into a sympy expression (test oracle side)."""
    expr = sympy.Integer(0)
    for expo, c in p.terms.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        for s, e in zip(symbols, expo):
            if e:
                term *= s**e
        expr += term
    return sympy.expand(expr)


def from_complex_pair(re, im=0):
    return GaussRat(Fraction(re), Fraction(im))


def jensen_log_average(p: SparsePoly, r: float) -> float:
    """Circle average of log|p| for a univariate polynomial, by Jensen's
    formula over its certified roots (test oracle)."""
    lead = p.terms[max(p.terms)]
    total = math.log(abs(complex(lead)))
    for root in roots_certified(canonical_scale(p)).roots:
        total += root.multiplicity * math.log(max(r, abs(root.center)))
    return total


def leading_coeff_log_abs_at_zero(f) -> float:
    """log |c0| where the class function f(z) = c0 z^v (1 + O(z)) at the
    origin (test oracle)."""
    total = math.log(abs(complex(f.scalar)))
    for poly, mult in f.factors:
        c0 = poly.compose([GaussRat(0)], GaussRat.coerce)
        if c0:
            total += mult * math.log(abs(complex(c0)))
        else:
            # squarefree factor: simple root at 0, use p'(0)
            d0 = poly.partial_derivative(0).compose([GaussRat(0)], GaussRat.coerce)
            total += mult * math.log(abs(complex(d0)))
    total += float(f.exp_part.compose([GaussRat(0)], GaussRat.coerce).re)
    return total


def as_polynomial(fn) -> SparsePoly | None:
    """The polynomial an exp-sum equals, or None when it is not one (test
    oracle): a single term n/d with a constant d and no exponential."""
    if fn.is_zero():
        return SparsePoly.zero(1)
    if len(fn.terms) == 1:
        num, den, q = fn.terms[0]
        if den.is_constant() and not q:
            return num.scale(GaussRat(1) / den.constant_value())
    return None


def composed_form_has_multiple_zero(G: SparsePoly, curve) -> bool:
    """Exact check that G on a polynomial curve has some zero of
    multiplicity >= 2 (test oracle)."""
    h = as_polynomial(eval_poly_on_tuple(G, tuple(curve)))
    assert h is not None, "composition did not reduce to a polynomial"
    if not h:
        return True
    return gcd_poly(h, h.partial_derivative(0), 0).degree_in(0) > 0


def random_poly(rng, num_vars: int, max_degree: int, max_terms: int = 6,
                coeff_range: int = 5, gaussian: bool = True,
                homogeneous_degree: int | None = None) -> SparsePoly:
    """Small random polynomial generator for the test suites."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        if homogeneous_degree is not None:
            cuts = sorted(rng.randrange(0, homogeneous_degree + 1) for _ in range(num_vars - 1))
            expo = []
            prev = 0
            for c in cuts:
                expo.append(c - prev)
                prev = c
            expo.append(homogeneous_degree - prev)
            expo = tuple(expo)
        else:
            expo = tuple(rng.randrange(0, max_degree + 1) for _ in range(num_vars))
        re = rng.randrange(-coeff_range, coeff_range + 1)
        im = rng.randrange(-coeff_range, coeff_range + 1) if gaussian else 0
        if re == 0 and im == 0:
            re = 1
        terms[expo] = GaussRat(re, im)
    return SparsePoly(num_vars, terms)


def cauchy_root_bound(f: SparsePoly) -> float:
    """Cauchy bound: every root of the univariate f has modulus <= 1 + max |a_i / a_n|."""
    top = max(f.terms)
    lead = abs(complex(f.terms[top]))
    return 1.0 + max((abs(complex(c)) for ex, c in f.terms.items() if ex != top), default=0.0) / lead
