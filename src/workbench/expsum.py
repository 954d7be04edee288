"""Finite sums of rational-times-exponential terms, with exact zero testing.

The factored meromorphic class is closed under products but not sums; the
objects here pick up the slack wherever a sum is unavoidable (evaluating a
polynomial on a tuple of class functions, verifying linear identities,
enumerating zero lattices of unit binomials).  A term is num/den * exp(q)
with exact univariate polynomial data; grouping is by the exact exponent
polynomial.  Sums of terms whose exponents differ by nonzero constants are
never conflated: distinct algebraic exponent values give linearly
independent exponentials, so the exact zero test groups by the full
exponent and requires every group to cancel.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .algebra.euclid import gcd_poly
from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .errors import InvalidInput
from .nevanlinna import MeroFn, _complex_coeffs_desc, common_unit, exp_lattice


def _zero1() -> SparsePoly:
    return SparsePoly.zero(1)


def _one1() -> SparsePoly:
    return SparsePoly.one(1)


@dataclass(frozen=True)
class ExpSumFn:
    """sum_k num_k/den_k * exp(q_k) with exact univariate polynomial data."""

    terms: tuple[tuple[SparsePoly, SparsePoly, SparsePoly], ...]

    @staticmethod
    def from_terms(terms) -> "ExpSumFn":
        grouped: dict[SparsePoly, tuple[SparsePoly, SparsePoly]] = {}
        for num, den, q in terms:
            if not den:
                raise ZeroDivisionError("zero denominator")
            if not num:
                continue
            if q in grouped:
                n0, d0 = grouped[q]
                grouped[q] = (n0 * den + num * d0, d0 * den)
            else:
                grouped[q] = (num, den)
        cleaned = []
        for q, (num, den) in grouped.items():
            if not num:
                continue
            g = gcd_poly(num, den, 0)
            if g.degree_in(0) > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            # normalize the denominator monic, folding the unit into num
            lead = den.terms[max(den.terms)]
            if lead != GaussRat(1):
                den = den.scale(GaussRat(1) / lead)
                num = num.scale(GaussRat(1) / lead)
            cleaned.append((num, den, q))
        cleaned.sort(key=lambda t: (t[2].sort_key(), t[0].sort_key(), t[1].sort_key()))
        return ExpSumFn(tuple(cleaned))

    @staticmethod
    def zero() -> "ExpSumFn":
        return ExpSumFn(())

    @staticmethod
    def constant(c) -> "ExpSumFn":
        c = GaussRat.coerce(c)
        if not c:
            return ExpSumFn.zero()
        return ExpSumFn.from_terms([(SparsePoly.constant(c, 1), _one1(), _zero1())])

    @staticmethod
    def of(f) -> "ExpSumFn":
        """``f`` as an exp-sum: the one coercion from either function type."""
        return f if isinstance(f, ExpSumFn) else ExpSumFn.from_mero(f)

    @staticmethod
    def from_mero(f: MeroFn) -> "ExpSumFn":
        """Convert a factored class function; poles become denominators.

        The factors are monic, squarefree and pairwise coprime, so num/den
        is already reduced with den monic: the term is wrapped as it is,
        without ``from_terms``."""
        if f.is_zero():
            return ExpSumFn.zero()
        num = SparsePoly.constant(f.scalar, 1)
        den = _one1()
        for p, m in f.factors:
            if m > 0:
                num = num * p**m
            else:
                den = den * p ** (-m)
        return ExpSumFn(((num, den, f.exp_part),))

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        """Exact: every exponent group must cancel identically."""
        return not self.terms

    def as_mero(self) -> MeroFn | None:
        """Single-term sums live in the factored class."""
        if not self.terms:
            return MeroFn.constant(0)
        if len(self.terms) == 1:
            num, den, q = self.terms[0]
            factors = [(num, 1)] if not num.is_constant() else []
            scalar = num.constant_value() if num.is_constant() else GaussRat(1)
            if not den.is_constant():
                factors.append((den, -1))
            else:
                scalar = scalar / den.constant_value()
            return MeroFn(scalar=scalar, factors=factors, exp_part=q)
        return None

    @functools.cached_property
    def exp_harmonic(self) -> tuple[float, list[complex]] | None:
        """``MeroFn.exp_harmonic`` of the class-function view, resolved once
        per sum rather than once per radius; only c exp(Q), a single term
        with constant data, has one."""
        if len(self.terms) == 1 and all(p.is_constant() for p in self.terms[0][:2]):
            return self.as_mero().exp_harmonic
        return None

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "ExpSumFn") -> "ExpSumFn":
        return ExpSumFn.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self):
        return ExpSumFn(tuple((-n, d, q) for n, d, q in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "ExpSumFn") -> "ExpSumFn":
        out = []
        for n1, d1, q1 in self.terms:
            for n2, d2, q2 in other.terms:
                out.append((n1 * n2, d1 * d2, q1 + q2))
        return ExpSumFn.from_terms(out)

    def __pow__(self, k: int) -> "ExpSumFn":
        if k < 0:
            raise InvalidInput("negative powers of exp-sums are not closed")
        out = ExpSumFn.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def derivative(self) -> "ExpSumFn":
        out = []
        for n, d, q in self.terms:
            dn, dd, dq = (p.partial_derivative(0) for p in (n, d, q))
            out.append((dn * d - n * dd + n * d * dq, d * d, q))
        return ExpSumFn.from_terms(out)

    # -- evaluation ---------------------------------------------------------------

    def eval(self, z: complex) -> complex:
        acc = 0j
        for n, d, q in self.terms:
            acc += (n.compose([z], complex) / d.compose([z], complex)
                    * cmath.exp(q.compose([z], complex)))
        return acc

    def log_abs(self, zs: np.ndarray) -> np.ndarray:
        # scale out the dominant exponential growth to avoid overflow
        if not self.terms:
            return np.full(np.shape(zs), -np.inf)
        qvals = [np.polyval(_complex_coeffs_desc(q), zs) if q else np.zeros(np.shape(zs))
                 for _, _, q in self.terms]
        qmax = np.maximum.reduce([np.real(qv) for qv in qvals])
        acc = np.zeros(np.shape(zs), dtype=complex)
        for (n, d, _), qv in zip(self.terms, qvals):
            nv = np.polyval(_complex_coeffs_desc(n), zs)
            dv = np.polyval(_complex_coeffs_desc(d), zs)
            acc = acc + nv / dv * np.exp(qv - qmax)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(acc)) + qmax

    # -- zero sets -------------------------------------------------------------------

    def zeros_in_disk(self, r: float) -> list[tuple[complex, int]] | None:
        """The zeros in |z| <= r of a unit polynomial p(e^D) with D linear
        (``nevanlinna.exp_lattice``), or None for any other sum."""
        reduced = self._as_unit_polynomial()
        return None if reduced is None else exp_lattice(*reduced, r)

    def _as_unit_polynomial(self) -> tuple[SparsePoly, SparsePoly] | None:
        """Recognize sum_k c_k exp(m_k D) with constants c_k, integers m_k.

        Returns (p, D) with p(w) = sum c_k w^{m_k - min m} and D linear, or
        None.  The exponents less the first must be integer multiples of one
        D (``common_unit``): remainders that are nonzero constants would
        scale coefficients by transcendental units.  The exponents of the
        terms are distinct, so the powers are too, and p has degree >= 1.
        """
        if len(self.terms) < 2:
            return None
        if not all(n.is_constant() and d.is_constant() for n, d, _ in self.terms):
            return None
        base = self.terms[0][2]
        common = common_unit([q - base for _, _, q in self.terms])
        if common is None:
            return None
        D, powers = common
        shift = min(powers)
        return SparsePoly(1, {(m - shift,): n.constant_value() / d.constant_value()
                              for (n, d, _), m in zip(self.terms, powers)}), D


def eval_poly_on_tuple(P: SparsePoly, fns: tuple) -> ExpSumFn:
    """P(f_0, .., f_{k-1}) for class functions / exp-sums, exactly."""
    comps = [ExpSumFn.of(f) for f in fns]
    if P.num_vars != len(comps):
        raise InvalidInput("component count does not match the polynomial arity")
    return P.compose(comps, ExpSumFn.constant)
