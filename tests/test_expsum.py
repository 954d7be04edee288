import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.errors import InvalidInput
from workbench.expsum import ExpSumFn, eval_poly_on_tuple
from workbench.nevanlinna import MeroFn, _log_counting

from conftest import as_polynomial, variables


def z():
    return SparsePoly.variable(0, 1)


def test_exact_zero_grouping():
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    s = ez + ExpSumFn.constant(1) - ExpSumFn.constant(1) - ez
    assert s.is_zero()
    # distinct exponents never cancel
    s2 = ez - ExpSumFn.from_mero(MeroFn.unit(2 * z()))
    assert not s2.is_zero()


def test_rational_normalization():
    t = z()
    a = ExpSumFn.from_terms([(t, t - 1, SparsePoly.zero(1))])
    b = ExpSumFn.from_terms([(t * (t + 2), (t - 1) * (t + 2), SparsePoly.zero(1))])
    assert a.terms == b.terms  # common factors cancel exactly


def test_eval_and_derivative():
    t = z()
    f = ExpSumFn.from_terms([(t**2, SparsePoly.one(1), 3 * t)])  # z^2 e^{3z}
    d = f.derivative()  # (2z + 3z^2) e^{3z}
    for w in (0.5 + 0.2j, -1 + 1j):
        expected = (2 * w + 3 * w**2) * cmath.exp(3 * w)
        assert d.eval(w) == pytest.approx(expected, rel=1e-12)


def test_poly_evaluation_on_tuple():
    x0, x1, x2 = variables(3)
    G = x0**2 + x1**2 + x2**2
    one = MeroFn.constant(1)
    t = MeroFn.from_poly(z())
    i_const = MeroFn.constant(GaussRat(0, 1))
    got = as_polynomial(eval_poly_on_tuple(G, (one, t, i_const)))
    assert got == z() ** 2  # 1 + t^2 - 1
    got = as_polynomial(eval_poly_on_tuple(G, (one, t, MeroFn.from_poly(z() + 1))))
    assert got == 2 * z() ** 2 + 2 * z() + 2


def test_binomial_zero_lattice():
    es = ExpSumFn.constant(1) + ExpSumFn.from_mero(MeroFn.unit(z()))
    zeros = es.zeros_in_disk(10.0)
    lattice = sorted(round(w.imag / math.pi) for w, _ in zeros)
    assert lattice == [-3, -1, 1, 3]
    assert all(m == 1 for _, m in zeros)
    for w, _ in zeros:
        assert abs(es.eval(w)) < 1e-10


def test_scaled_exponent_lattice():
    # 1 + e^{2z}: zeros at i pi (2k+1) / 2
    two_z = z().scale(2)
    es = ExpSumFn.constant(1) + ExpSumFn.from_mero(MeroFn.unit(two_z))
    zeros = es.zeros_in_disk(7.0)
    lattice = sorted(round(2 * w.imag / math.pi) for w, _ in zeros)
    assert lattice == [-3, -1, 1, 3] or lattice == [-5, -3, -1, 1, 3, 5]
    for w, _ in zeros:
        assert abs(es.eval(w)) < 1e-10


def test_unsupported_zero_structure():
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    e2 = ExpSumFn.from_mero(MeroFn.unit(z() ** 2))
    trinomial = ExpSumFn.constant(1) + ez + e2
    assert trinomial.zeros_in_disk(3.0) is None


def test_lattice_decides_the_origin_exactly():
    # e^z - w0 vanishes at log w0 + 2 pi i k; below 2 pi only k = 0 counts
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    r = 2.0
    ((origin, _),) = (ez + ExpSumFn.constant(-1)).zeros_in_disk(r)
    assert origin == 0
    # w0 = 1 + 2^-40 is a float, so its zero log w0 (about 9e-13) is accurate
    near = GaussRat(1) + GaussRat(Fraction(1, 2**40))
    zeros = (ez + ExpSumFn.constant(-near)).zeros_in_disk(r)
    assert _log_counting(zeros, r) == pytest.approx(math.log(r / math.log1p(2**-40)), rel=1e-9)
    # w0 = 1 + 10^-400: its lattice point log w0 underflows to 0 as a float
    tiny = GaussRat(1) + GaussRat(Fraction(1, 10**400))
    with pytest.raises(InvalidInput, match="underflows"):
        (ez + ExpSumFn.constant(-tiny)).zeros_in_disk(r)


def test_lattice_log_near_one_from_the_exact_root():
    # w0 = 1 + 10^-k is not a float: log of its float centre keeps about 16 - k
    # digits of log w0 (none at k = 35), the exact root keeps all of them
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    for k in (12, 35):
        w0 = GaussRat(1) + GaussRat(Fraction(1, 10**k))
        zeros = (ez + ExpSumFn.constant(-w0)).zeros_in_disk(2.0)
        with mpmath.workdps(40):
            ref = mpmath.log(2 / mpmath.log1p(mpmath.mpf(10) ** -k))
        assert _log_counting(zeros, 2.0) == pytest.approx(float(ref), rel=1e-14)


def test_lattice_log_near_one_from_a_nonlinear_factor():
    # w^2 + w - (2 + 10^-12) is irreducible with one root w0 near 1, known only
    # through its certified disk; the float centre keeps about 4 digits of log w0
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    e2z = ExpSumFn.from_mero(MeroFn.unit(2 * z()))
    f = e2z + ez + ExpSumFn.constant(-(GaussRat(2) + GaussRat(Fraction(1, 10**12))))
    with mpmath.workdps(40):
        ref = float(mpmath.log((mpmath.sqrt(9 + 4 * mpmath.mpf(10) ** -12) - 1) / 2))
    # squared, the root is double in p and simple in its squarefree part
    for g, mult in ((f, 1), (f * f, 2)):
        [(zero, m)] = g.zeros_in_disk(2.0)
        assert m == mult and zero.imag == 0
        assert zero.real == pytest.approx(ref, rel=1e-14, abs=0)


def test_lattice_origin_from_a_nonlinear_factor():
    # the root w0 = 1 sits in a squarefree factor of degree > 1, so it is solved
    # numerically; it is still recognized as exactly 1
    ez = ExpSumFn.from_mero(MeroFn.unit(z()))
    e2z = ExpSumFn.from_mero(MeroFn.unit(2 * z()))
    e3z = ExpSumFn.from_mero(MeroFn.unit(3 * z()))
    # 1 + w - 2 w^2 = -(w - 1)(2 w + 1); the zeros from w0 = -1/2 lie at |z| > 2
    zeros = (e2z + ez + ExpSumFn.constant(-2)).zeros_in_disk(2.0)
    assert zeros == [(0j, 1)]
    # w^3 - 1: the root 1 comes with the complex pair of cube roots of unity
    zeros = (e3z + ExpSumFn.constant(-1)).zeros_in_disk(2.0)
    assert zeros == [(0j, 1)]
    assert _log_counting(zeros, 2.0) == math.log(2.0)


def test_log_abs_overflow_safe():
    big = ExpSumFn.from_mero(MeroFn.unit(z().scale(5)))
    s = big + ExpSumFn.constant(1)
    vals = s.log_abs(np.array([200.0 + 0j]))
    assert np.isfinite(vals).all()
    assert vals[0] == pytest.approx(1000.0, rel=1e-9)


def test_as_mero_round_trip():
    t = z()
    f = MeroFn(scalar=GaussRat("2/3"), factors=[(t - 1, 2)], exp_part=t)
    back = ExpSumFn.from_mero(f).as_mero()
    assert back == f
