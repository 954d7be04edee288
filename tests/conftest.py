import random
from fractions import Fraction

import pytest
import sympy

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly


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
