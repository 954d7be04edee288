"""Exact Gaussian rationals: numbers a + b*i with a, b in Q.

This is the coefficient field for every exact computation in the workbench
and the only coefficient type of ``SparsePoly``.
Values are immutable and held as a canonical integer triple (a, b, d) with
value (a + b*i)/d, d > 0 and gcd(a, b, d) = 1, so equal values have equal
triples.  On Z[i], where d = 1, ``+``, ``-`` and ``*`` are integer
arithmetic with no gcd, and every other result (``/`` included) is reduced
by one gcd.  ``re`` and ``im`` are ``Fraction`` views of the two parts.

The polynomial product and exact division of ``SparsePoly`` (``poly.py``)
do not go through these operators: they take the coefficients as integer
pairs over one denominator (``int_pairs``), do the term arithmetic on
plain integers and build one GaussRat per output term (``from_ints``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, log


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussRat:
    """An exact Gaussian rational re + im*i.

    Supports +, -, *, /, integer powers (negative powers invert), equality
    and hashing.  Mixed arithmetic with int and Fraction coerces exactly.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = _as_fraction(re), _as_fraction(im)
            # each part is reduced, so the triple over lcm is already canonical
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    # immutability
    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussRat":
        if type(x) is GaussRat:
            return x
        if type(x) is int:
            return _triple(x, 0, 1)
        if isinstance(x, (int, Fraction)):
            return GaussRat(x)
        raise TypeError(f"cannot coerce {x!r} to GaussRat")

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def is_rational(self) -> bool:
        return not self._b

    def is_one(self) -> bool:
        return self._a == 1 and not self._b and self._d == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return from_ints(self._a + other._a, self._b + other._b, d)
        return from_ints(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return from_ints(self._a - other._a, self._b - other._b, d)
        return from_ints(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return from_ints(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        c, e = other._a, other._b
        n2 = c * c + e * e
        if not n2:
            raise ZeroDivisionError("division by zero GaussRat")
        # (a+bi)/d1 / ((c+ei)/d2) = (a+bi)(c-ei)*d2 / (d1*(c^2+e^2))
        a, b, f = self._a, self._b, other._d
        return from_ints((a * c + b * e) * f, (b * c - a * e) * f, self._d * n2)

    def __rtruediv__(self, other):
        try:
            other = GaussRat.coerce(other)
        except TypeError:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("GaussRat powers must be integers")
        if k < 0:
            return (ONE / self) ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussRat:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction value, or of the pair of Fraction parts;
        # an integer part hashes like its Fraction
        if self._d == 1:
            return hash(self._a) if not self._b else hash((self._a, self._b))
        return hash(self.re) if not self._b else hash((self.re, self.im))

    # -- conversions -------------------------------------------------------

    def __complex__(self) -> complex:
        # int true division rounds correctly, exactly like Fraction.__float__
        return complex(self._a / self._d, self._b / self._d)

    def log_abs(self) -> float:
        """log |self| from the integer triple: (1/2) log(a^2 + b^2) - log d.

        ``math.log`` of a Python int never overflows, so this holds for any
        nonzero value, also where ``complex(self)`` is inf or 0.
        """
        return 0.5 * log(self._a * self._a + self._b * self._b) - log(self._d)

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    # exact string pair used by the polynomial file format
    def to_strings(self) -> tuple[str, str]:
        return str(self.re), str(self.im)

    @staticmethod
    def from_strings(re: str, im: str = "0") -> "GaussRat":
        return GaussRat(Fraction(re), Fraction(im))


_set_a = GaussRat._a.__set__
_set_b = GaussRat._b.__set__
_set_d = GaussRat._d.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d from a triple that is already canonical."""
    z = _new(GaussRat)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def from_ints(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d for integers with d > 0, reduced by one gcd unless d is 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def int_pairs(values) -> tuple[int, list[tuple[int, int]]]:
    """GaussRat values over one denominator: ``(D, [(a, b), ...])`` with the
    k-th value equal to (a + b*i)/D and D the lcm of their denominators (1 on
    Z[i])."""
    D = 1
    pairs = []
    for c in values:
        if c._d != 1:
            D = lcm(D, c._d)
        pairs.append((c._a, c._b))
    if D != 1:
        pairs = [(c._a * (D // c._d), c._b * (D // c._d)) for c in values]
    return D, pairs


ZERO = GaussRat(0)
ONE = GaussRat(1)
