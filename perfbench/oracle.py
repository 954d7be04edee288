"""Exact arithmetic over Q(i) for the benchmark's correctness checks.

The checks must not trust the kernels they check, so this module has its own
Gaussian-rational numbers, dense univariate polynomials, Euclid and a
Gaussian-elimination determinant.  It reads workbench polynomials only
through ``SparsePoly.terms`` and the ``re``/``im`` parts of their
coefficients.
"""

from __future__ import annotations

from fractions import Fraction


class QI:
    """An exact number re + im*i with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(c) -> "QI":
        return QI(c.re, c.im)

    def __add__(self, o):
        return QI(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return QI(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        return QI((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))


ZERO, ONE = QI(0), QI(1)


def evaluate(p, point) -> QI:
    """p at a point of QI values, one per variable."""
    acc = ZERO
    for expo, c in p.terms.items():
        term = QI.of(c)
        for v, e in zip(point, expo):
            for _ in range(e):
                term = term * v
        acc = acc + term
    return acc


def univariate(p, keep: int, point) -> list[QI]:
    """Ascending coefficients of p in variable ``keep`` with the other
    variables set to ``point`` (whose entry at ``keep`` is ignored).  The
    list has the formal length deg_keep(p) + 1 even if the top vanishes."""
    deg = max((e[keep] for e in p.terms), default=0)
    out = [ZERO] * (deg + 1)
    for expo, c in p.terms.items():
        term = QI.of(c)
        for i, (v, e) in enumerate(zip(point, expo)):
            if i != keep:
                for _ in range(e):
                    term = term * v
        out[expo[keep]] = out[expo[keep]] + term
    return out


def trim(a: list[QI]) -> list[QI]:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def mul(a: list[QI], b: list[QI]) -> list[QI]:
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return out


def gcd_degree(a: list[QI], b: list[QI]) -> int:
    """Degree of gcd(a, b) by Euclid; -1 when both vanish."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return len(a) - 1


def derivative(a: list[QI]) -> list[QI]:
    return [c * QI(i) for i, c in enumerate(a)][1:]


def squarefree_part(a: list[QI]) -> list[QI]:
    """a / gcd(a, a'), made monic."""
    a = trim(a)
    g, b = a, trim(derivative(a))
    while b:
        g, b = b, divmod_poly(g, b)[1]
    q = divmod_poly(a, g)[0]
    return [c / q[-1] for c in q]


def divmod_poly(a: list[QI], b: list[QI]):
    a, b = trim(a), trim(b)
    q = [ZERO] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[i + shift] = a[i + shift] - c * y
        a = trim(a)
    return trim(q), a


def proportional(a: list[QI], b: list[QI]) -> bool:
    """True when a = u * b for a nonzero constant u."""
    a, b = trim(a), trim(b)
    if len(a) != len(b) or not a:
        return False
    la, lb = a[-1], b[-1]
    return all(x * lb == y * la for x, y in zip(a, b))


def determinant(rows: list[list[QI]]) -> QI:
    m = [list(r) for r in rows]
    n = len(m)
    det = ONE
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return ZERO
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = ZERO - det
        det = det * m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] = m[i][j] - f * m[k][j]
    return det


def sylvester_resultant(f: list[QI], g: list[QI]) -> QI:
    """Res(f, g) from ascending coefficient lists of formal degrees
    len - 1, with the rows of f on top."""
    n, m = len(f) - 1, len(g) - 1
    fd, gd = f[::-1], g[::-1]
    size = n + m
    rows = [[ZERO] * i + fd + [ZERO] * (size - n - 1 - i) for i in range(m)]
    rows += [[ZERO] * i + gd + [ZERO] * (size - m - 1 - i) for i in range(n)]
    return determinant(rows)
