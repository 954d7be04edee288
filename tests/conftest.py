import random
from fractions import Fraction

import pytest
import sympy

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import roots_certified


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
