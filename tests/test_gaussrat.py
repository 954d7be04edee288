import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from workbench.algebra.gaussrat import GaussRat


small_rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=20
)
gauss = st.builds(GaussRat, small_rationals, small_rationals)


def test_basic_arithmetic():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)
    assert (GaussRat(1, 2) * GaussRat(1, -2)) == GaussRat(5)
    assert GaussRat(3, 4) - GaussRat(3, 4) == GaussRat(0)
    assert not GaussRat(0)
    assert GaussRat(Fraction(1, 2)) + GaussRat(Fraction(1, 2)) == GaussRat(1)


def test_division_and_pow():
    z = GaussRat(2, 1)
    assert z / z == GaussRat(1)
    assert z ** -1 == GaussRat(1) / z
    assert z**3 == z * z * z
    with pytest.raises(ZeroDivisionError):
        z / GaussRat(0)


def test_string_round_trip():
    z = GaussRat(Fraction(-3, 7), Fraction(5, 11))
    re, im = z.to_strings()
    assert GaussRat.from_strings(re, im) == z


def test_complex_conversion():
    assert complex(GaussRat(1, 2)) == 1 + 2j


def test_log_abs_from_the_integer_triple():
    # exact where complex() overflows to inf or underflows to 0
    big = 10**400
    log_big = 400 * math.log(10)
    cases = [(GaussRat(Fraction(3, 10), Fraction(4, 10)), math.log(0.5)),
             (GaussRat(Fraction(-7, 3)), math.log(7 / 3)),
             (GaussRat(big), log_big),
             (GaussRat(Fraction(1, big)), -log_big),
             (GaussRat(big, -big), log_big + 0.5 * math.log(2))]
    for c, want in cases:
        assert c.log_abs() == pytest.approx(want, rel=1e-15)
    with pytest.raises(OverflowError):
        complex(GaussRat(big))
    assert complex(GaussRat(Fraction(1, big))) == 0


@given(gauss, gauss, gauss)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gauss)
def test_field_inverse(a):
    if a:
        assert a * (GaussRat(1) / a) == GaussRat(1)


@given(gauss, gauss)
def test_exact_subtraction(a, b):
    assert (a + b) - b == a


# -- differential test against a Fraction-pair reference ----------------------

def _ref_str(re, im):
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _ref_pow(x, k):
    if k < 0:
        return _ref_pow(_ref_div((Fraction(1), Fraction(0)), x), -k)
    acc = (Fraction(1), Fraction(0))
    for _ in range(k):
        acc = _ref_mul(acc, x)
    return acc


def _draw_part(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-30, 30))
    return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 9, 10, 12, 35)))


def _draw(rng):
    """A (reference pair, operand) draw: a GaussRat, an int or a Fraction."""
    re, im = _draw_part(rng), _draw_part(rng)
    kind = rng.randrange(5)
    if kind == 0 and re.denominator == 1:
        return (re, Fraction(0)), int(re)
    if kind == 1:
        return (re, Fraction(0)), re
    return (re, im), GaussRat(re, im)


def _assert_canonical(z, ref):
    a, b, d = z._a, z._b, z._d
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == ref
    assert (z.re, z.im) == ref
    assert type(z.re) is Fraction and type(z.im) is Fraction
    # equal values give equal triples
    w = GaussRat(*ref)
    assert (a, b, d) == (w._a, w._b, w._d)


def test_differential_against_fraction_pairs():
    rng = random.Random(8)
    for _ in range(1500):
        (x, u), (y, v) = _draw(rng), _draw(rng)
        if not isinstance(u, GaussRat) and not isinstance(v, GaussRat):
            u = GaussRat(u)
        _assert_canonical(u + v, (x[0] + y[0], x[1] + y[1]))
        _assert_canonical(u - v, (x[0] - y[0], x[1] - y[1]))
        _assert_canonical(u * v, _ref_mul(x, y))
        if y != (0, 0):
            _assert_canonical(u / v, _ref_div(x, y))
        else:
            with pytest.raises(ZeroDivisionError):
                u / v
        assert (u == v) == (x == y) and (v == u) == (x == y)
        for z, ref in ((u, x), (v, y)):
            if not isinstance(z, GaussRat):
                continue
            k = rng.randint(-4, 5)
            if k < 0 and ref == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    z**k
            else:
                _assert_canonical(z**k, _ref_pow(ref, k))
            _assert_canonical(-z, (-ref[0], -ref[1]))
            _assert_canonical(GaussRat(z.re, -z.im), (ref[0], -ref[1]))
            assert z.re**2 + z.im**2 == ref[0] ** 2 + ref[1] ** 2
            assert type(z.re) is Fraction and type(z.im) is Fraction
            assert hash(z) == (hash(ref[0]) if not ref[1] else hash(ref))
            assert str(z) == _ref_str(*ref)
            assert repr(z) == f"GaussRat({ref[0]!r}, {ref[1]!r})"
            assert z.to_strings() == (str(ref[0]), str(ref[1]))
            assert complex(z) == complex(float(ref[0]), float(ref[1]))
            assert bool(z) == (ref != (0, 0))
            if not ref[1]:
                assert z == ref[0] and ref[0] == z
                if ref[0].denominator == 1:
                    assert z == int(ref[0]) and int(ref[0]) == z
            else:
                assert z != ref[0]


def test_operators_reject_other_types():
    z = GaussRat(1, 2)
    for other in (1.5, 1j, "1", None):
        for op in (lambda: z + other, lambda: other - z, lambda: z * other,
                   lambda: z / other, lambda: other / z):
            with pytest.raises(TypeError):
                op()
        assert z != other
    with pytest.raises(TypeError):
        GaussRat.coerce(1.5)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)
