"""Exact Laurent polynomials in two variables.

Keys are (first-exponent, second-exponent) pairs of possibly negative
integers; values are Gaussian rationals.  This is the natural home for the
monomial change of variables used by the exceptional-set construction,
where substitutions like X -> L^a T^b send honest polynomials to Laurent
polynomials before normalization strips the monomial content.
"""

from __future__ import annotations

from typing import Mapping

from .gaussrat import GaussRat
from .poly import SparsePoly

LKey = tuple[int, int]


class LaurentBivar:
    """A two-variable Laurent polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[LKey, GaussRat] | None = None):
        clean: dict[LKey, GaussRat] = {}
        if terms:
            for key, coeff in terms.items():
                key = (int(key[0]), int(key[1]))
                if not isinstance(coeff, GaussRat):
                    coeff = GaussRat.coerce(coeff)
                if coeff:
                    clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentBivar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: SparsePoly) -> "LaurentBivar":
        if p.num_vars != 2:
            raise ValueError("expected a polynomial in two variables")
        return LaurentBivar({(e[0], e[1]): c for e, c in p.terms.items()})

    # -- predicates ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentBivar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def min_exp(self, axis: int) -> int:
        if not self.terms:
            return 0
        return min(k[axis] for k in self.terms)

    def is_polynomial(self) -> bool:
        return self.min_exp(0) >= 0 and self.min_exp(1) >= 0

    # -- monomial maps -------------------------------------------------------------

    def shift(self, d0: int, d1: int) -> "LaurentBivar":
        """Multiply by the monomial v0^d0 * v1^d1."""
        return LaurentBivar({(k0 + d0, k1 + d1): c for (k0, k1), c in self.terms.items()})

    def substitute_monomials(self, image0: LKey, image1: LKey) -> "LaurentBivar":
        """Monomial change of variables.

        Sends the first variable to w0^image0[0] * w1^image0[1] and the
        second to w0^image1[0] * w1^image1[1]; the result lives in the new
        pair of variables (w0, w1).
        """
        terms: dict[LKey, GaussRat] = {}
        for (e0, e1), c in self.terms.items():
            k = (e0 * image0[0] + e1 * image1[0], e0 * image0[1] + e1 * image1[1])
            s = terms.get(k, GaussRat(0)) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return LaurentBivar(terms)

    # -- conversions ----------------------------------------------------------------

    def to_poly(self) -> SparsePoly:
        """Convert to an honest polynomial; requires non-negative exponents."""
        if not self.is_polynomial():
            raise ValueError("Laurent polynomial has negative exponents")
        return SparsePoly(2, {k: c for k, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (e0, e1) in sorted(self.terms):
            c = self.terms[(e0, e1)]
            mono = []
            if e0:
                mono.append(f"v0^{e0}")
            if e1:
                mono.append(f"v1^{e1}")
            body = "*".join(mono) if mono else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__
