"""The logarithmic differential operator on polynomials over formal symbols.

The coefficient ring has generators w_1..w_n (standing for the logarithmic
derivatives u_j'/u_j of the tuple components), lambda with its inverse,
lambda' and s (a formal beta'/beta).  Internally the lambda exponent is a
single integer that may be negative, which makes the relation
lambda * lambda^-1 = 1 hold by construction.

The operator sends a term a * x^i (exponents i_0..i_n against the tuple
u = (1, u_1, .., u_n)) to (a' + a * sum_j i_j w_j) * x^i; it preserves
degree and satisfies the product rule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .algebra.euclid import gcd_poly, is_squarefree, monomial_variables, resultant
from .errors import InvalidInput

# A symbol-ring exponent key: (w-exponents, lambda-exponent, lambda'-exponent,
# s-exponent).  Only the lambda exponent may be negative.
SymKey = tuple[tuple[int, ...], int, int, int]


class DiffSymbolRing:
    """The formal coefficient ring with n logarithmic-derivative symbols."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("need n >= 0 symbols")
        self.n = n

    def generator_names(self) -> list[str]:
        return [f"w{j}" for j in range(1, self.n + 1)] + ["lambda", "lambdainv", "lambdap", "s"]

    # -- element constructors ------------------------------------------------

    def zero(self) -> "DiffRingElem":
        return DiffRingElem(self, {})

    def one(self) -> "DiffRingElem":
        return self.constant(1)

    def constant(self, c) -> "DiffRingElem":
        c = GaussRat.coerce(c)
        key: SymKey = ((0,) * self.n, 0, 0, 0)
        return DiffRingElem(self, {key: c} if c else {})

    def w(self, j: int) -> "DiffRingElem":
        """The symbol w_j = u_j'/u_j, 1-indexed."""
        if not 1 <= j <= self.n:
            raise ValueError(f"w index {j} out of range 1..{self.n}")
        exps = tuple(1 if k == j - 1 else 0 for k in range(self.n))
        return DiffRingElem(self, {(exps, 0, 0, 0): GaussRat(1)})

    def lam(self, power: int = 1) -> "DiffRingElem":
        return DiffRingElem(self, {((0,) * self.n, power, 0, 0): GaussRat(1)})

    def lam_prime(self) -> "DiffRingElem":
        return DiffRingElem(self, {((0,) * self.n, 0, 1, 0): GaussRat(1)})

    def s(self) -> "DiffRingElem":
        return DiffRingElem(self, {((0,) * self.n, 0, 0, 1): GaussRat(1)})

    def __eq__(self, other):
        return isinstance(other, DiffSymbolRing) and other.n == self.n

    def __hash__(self):
        return hash(("DiffSymbolRing", self.n))


class DiffRingElem:
    """An element of the formal symbol ring (Laurent in lambda)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: DiffSymbolRing, terms: Mapping[SymKey, GaussRat]):
        clean = {}
        for key, c in terms.items():
            w, kl, kp, ks = key
            if len(w) != ring.n or any(e < 0 for e in w) or kp < 0 or ks < 0:
                raise ValueError(f"bad symbol exponent {key}")
            if c:
                clean[(tuple(w), kl, kp, ks)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("DiffRingElem is immutable")

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, DiffRingElem):
            if other.ring != self.ring:
                raise ValueError("mixed symbol rings")
            return other
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.ring.constant(other)
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, GaussRat(0)) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return DiffRingElem(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return DiffRingElem(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[SymKey, GaussRat] = {}
        for (w1, l1, p1, s1), c1 in self.terms.items():
            for (w2, l2, p2, s2), c2 in other.terms.items():
                key = (
                    tuple(a + b for a, b in zip(w1, w2)),
                    l1 + l2,
                    p1 + p2,
                    s1 + s2,
                )
                v = terms.get(key, GaussRat(0)) + c1 * c2
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        return DiffRingElem(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only exist for pure lambda monomials")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def one(self):
        return self.ring.one()

    # -- structure -----------------------------------------------------------

    def is_constant(self) -> bool:
        zero_key = ((0,) * self.ring.n, 0, 0, 0)
        return all(k == zero_key for k in self.terms)

    def constant_value(self) -> GaussRat:
        zero_key = ((0,) * self.ring.n, 0, 0, 0)
        if set(self.terms) - {zero_key}:
            raise ValueError("element is not constant")
        return self.terms.get(zero_key, GaussRat(0))

    def derivative(self) -> "DiffRingElem":
        """Formal derivative: constants to 0, lambda^k to k lambda^(k-1) lambda'.

        Only defined on Q(i)[lambda, lambda^-1]; the symbols w_j, lambda'
        and s carry no assigned derivative, so elements containing them are
        rejected.
        """
        terms: dict[SymKey, GaussRat] = {}
        for (w, kl, kp, ks), c in self.terms.items():
            if any(w) or kp or ks:
                raise InvalidInput(
                    "derivative undefined outside the lambda subring "
                    f"(term exponents w={w}, lambda'={kp}, s={ks})"
                )
            if kl == 0:
                continue
            key = (w, kl - 1, kp + 1, ks)
            v = terms.get(key, GaussRat(0)) + c * kl
            if v:
                terms[key] = v
        return DiffRingElem(self.ring, terms)

    def eval(self, w_values, lam_value=None, lam_prime_value=None, s_value=None) -> complex:
        """Numeric evaluation with the listed symbol bindings."""
        total = 0j
        for (w, kl, kp, ks), c in self.terms.items():
            v = complex(c)
            for e, wv in zip(w, w_values):
                if e:
                    v *= wv**e
            if kl:
                v *= complex(lam_value) ** kl
            if kp:
                v *= complex(lam_prime_value) ** kp
            if ks:
                v *= complex(s_value) ** ks
            total += v
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.generator_names()
        parts = []
        for key in sorted(self.terms):
            w, kl, kp, ks = key
            c = self.terms[key]
            factors = []
            for j, e in enumerate(w):
                if e:
                    factors.append(f"w{j+1}^{e}" if e > 1 else f"w{j+1}")
            if kl:
                factors.append(f"lam^{kl}" if kl != 1 else "lam")
            if kp:
                factors.append(f"lam'^{kp}" if kp > 1 else "lam'")
            if ks:
                factors.append(f"s^{ks}" if ks > 1 else "s")
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


@dataclass(frozen=True)
class DiffPoly:
    """A polynomial in x_0..x_n with coefficients in a DiffSymbolRing."""

    ring: DiffSymbolRing
    base: SparsePoly  # coefficients are DiffRingElem

    @staticmethod
    def from_constant_poly(p: SparsePoly, ring: DiffSymbolRing) -> "DiffPoly":
        terms = {e: ring.constant(c) for e, c in p.terms.items()}
        return DiffPoly(ring, SparsePoly(p.num_vars, terms))

    def degree(self) -> int:
        return self.base.total_degree()

    def is_homogeneous(self) -> bool:
        return self.base.is_homogeneous()

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        return DiffPoly(self.ring, self.base + other.base)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return DiffPoly(self.ring, self.base - other.base)

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        return DiffPoly(self.ring, self.base * other.base)

    def __eq__(self, other):
        return (
            isinstance(other, DiffPoly)
            and other.ring == self.ring
            and other.base == self.base
        )

    def __str__(self):
        return self.base.to_string()


def apply_Du(F: DiffPoly) -> DiffPoly:
    """Apply the logarithmic differential operator.

    Term a*x^i (with i = (i_0, .., i_n) measured against u = (1, u_1, ..,
    u_n)) maps to (a' + a * sum_{j>=1} i_j w_j) * x^i; x_0 carries no
    symbol because u_0 = 1.  Degree is preserved; coefficients must lie in
    the differentiable subring.
    """
    ring = F.ring
    n_x = F.base.num_vars
    if n_x != ring.n + 1:
        raise InvalidInput(
            f"polynomial in {n_x} variables needs a symbol ring with {n_x - 1} symbols"
        )
    terms = {}
    for expo, coeff in F.base.terms.items():
        if not isinstance(coeff, DiffRingElem):
            coeff = ring.constant(coeff)
        twist = ring.zero()
        for j in range(1, n_x):
            if expo[j]:
                twist = twist + ring.w(j) * expo[j]
        new_coeff = coeff.derivative() + coeff * twist
        if new_coeff:
            terms[expo] = new_coeff
    return DiffPoly(ring, SparsePoly(n_x, terms))


def check_product_rule(F: DiffPoly, G: DiffPoly) -> bool:
    """Exact symbolic test of D(FG) = D(F) G + F D(G)."""
    lhs = apply_Du(F * G)
    rhs = apply_Du(F) * G + F * apply_Du(G)
    return lhs == rhs


# ---------------------------------------------------------------------------
# coprimality of F with its image (constant coefficients)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoprimalityReport:
    coprime: bool
    relation: tuple[int, ...] | None = None  # exponents (m_1..m_n) when not coprime

    def __bool__(self):
        return self.coprime


def _flatten(F: DiffPoly) -> SparsePoly:
    """Embed a DiffPoly with lambda-free coefficients into a plain polynomial.

    Variable order: the x variables first, then w_1..w_n, then lambda',
    then s.  (Nonzero lambda exponents are rejected; callers clear them.)
    """
    n_x = F.base.num_vars
    n_w = F.ring.n
    total = n_x + n_w + 2
    terms = {}
    for expo, coeff in F.base.terms.items():
        for (w, kl, kp, ks), c in coeff.terms.items():
            if kl != 0:
                raise ValueError("clear lambda powers before flattening")
            key = tuple(expo) + tuple(w) + (kp, ks)
            terms[key] = terms.get(key, GaussRat(0)) + c
    return SparsePoly(total, terms)


def coprime_with_Du(F: SparsePoly) -> CoprimalityReport:
    """Decide whether F is coprime with its operator image.

    ``F`` is a homogeneous polynomial with constant (Gaussian-rational)
    coefficients, with no monomial factors and no repeated factors; the
    preconditions are validated and their violation raises InvalidInput.

    The gcd is attempted first; only a non-constant gcd triggers extraction
    of the obstructing monomial relation(m_1..m_n) from a pair of exponent
    vectors of the common factor, and the relation always satisfies
    sum |m_i| <= 2 deg F.
    """
    if not F or F.is_constant():
        raise InvalidInput("F must be non-constant")
    if not F.is_homogeneous():
        raise InvalidInput("F must be homogeneous")
    if monomial_variables(F):
        raise InvalidInput("F has a monomial factor")
    if not is_squarefree(F):
        raise InvalidInput("F has a repeated factor")
    n_x = F.num_vars
    ring = DiffSymbolRing(n_x - 1)
    DF = apply_Du(DiffPoly.from_constant_poly(F, ring))
    flat_D = _flatten(DF)
    flat_F = _flatten(DiffPoly.from_constant_poly(F, ring))
    g = gcd_poly(flat_F, flat_D, 0)
    if all(g.degree_in(v) == 0 for v in range(n_x)):
        return CoprimalityReport(True)
    # non-constant common factor: compare two of its terms to read off the
    # candidate multiplicative relation between the tuple components
    exps = sorted({e[:n_x] for e in g.terms})
    first, second = exps[0], exps[1] if len(exps) > 1 else exps[0]
    relation = tuple(second[j] - first[j] for j in range(1, n_x))
    return CoprimalityReport(False, relation)


def resultants_with_Du(F: SparsePoly) -> list[SparsePoly]:
    """Resultant of F with its operator image in each x variable (flattened)."""
    n_x = F.num_vars
    ring = DiffSymbolRing(n_x - 1)
    DF = apply_Du(DiffPoly.from_constant_poly(F, ring))
    flat_D = _flatten(DF)
    flat_F = _flatten(DiffPoly.from_constant_poly(F, ring))
    return [resultant(flat_F, flat_D, v) for v in range(n_x)]


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

DIFFPOLY_SCHEMA = "diffpoly/1"


def diffpoly_to_doc(F: DiffPoly) -> dict:
    """Serialize with a symbols header in the fixed generator order
    [w1..wn, lambda, lambdainv, lambdap, s]; negative lambda powers go to
    the lambdainv slot."""
    ring = F.ring
    terms = []
    for expo in sorted(F.base.terms):
        coeff: DiffRingElem = F.base.terms[expo]
        parts = []
        for (w, kl, kp, ks) in sorted(coeff.terms):
            c = coeff.terms[(w, kl, kp, ks)]
            re, im = c.to_strings()
            sym = list(w) + [max(kl, 0), max(-kl, 0), kp, ks]
            parts.append({"exp": sym, "re": re, "im": im})
        terms.append({"exp": list(expo), "coeff": parts})
    return {
        "schema": DIFFPOLY_SCHEMA,
        "vars": F.base.num_vars,
        "symbols": ring.generator_names(),
        "terms": terms,
    }


def diffpoly_from_doc(doc: dict) -> DiffPoly:
    if doc.get("schema") != DIFFPOLY_SCHEMA:
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    names = doc["symbols"]
    n = len(names) - 4
    if n < 0 or names[n:] != ["lambda", "lambdainv", "lambdap", "s"]:
        raise ValueError("symbols header must end with lambda, lambdainv, lambdap, s")
    ring = DiffSymbolRing(n)
    num_vars = int(doc["vars"])
    terms = {}
    for t in doc["terms"]:
        expo = tuple(int(e) for e in t["exp"])
        elem_terms = {}
        for part in t["coeff"]:
            sym = [int(e) for e in part["exp"]]
            w = tuple(sym[:n])
            kl = sym[n] - sym[n + 1]
            kp, ks = sym[n + 2], sym[n + 3]
            coeff = GaussRat.from_strings(part["re"], part.get("im", "0"))
            if coeff:
                elem_terms[(w, kl, kp, ks)] = coeff
        elem = DiffRingElem(ring, elem_terms)
        if elem:
            terms[expo] = elem
    return DiffPoly(ring, SparsePoly(num_vars, terms))


# ---------------------------------------------------------------------------
# numeric confirmation of the defining identity
# ---------------------------------------------------------------------------

def verify_Du_numeric(F: SparsePoly, u: tuple, radius_samples: list[complex],
                      skip_threshold: float = 1e12) -> float:
    """Max relative residual of F(u)' = D_u(F)(u) over the sample points.

    Two independent routes: the left side expands F on the tuple into an
    exact exponential sum and differentiates that; the right side binds the
    formal symbols w_j to the exact logarithmic derivatives u_j'/u_j and
    evaluates term by term.  Components must be class functions with
    u_0 = 1; samples landing on zeros or poles are skipped with a warning.
    """
    import warnings

    from .expsum import eval_poly_on_tuple
    from .nevanlinna import log_derivative

    if F.num_vars != len(u):
        raise InvalidInput("tuple length must match the number of variables")
    if not (u[0].is_constant() and not u[0].exp_part and u[0].scalar.is_one()):
        raise InvalidInput("the first tuple component must be the constant 1")
    lhs_fn = eval_poly_on_tuple(F, tuple(u)).derivative()
    logders = [None] + [log_derivative(uj) for uj in u[1:]]
    worst = 0.0
    for z in radius_samples:
        vals = [uj.eval(z) if j else 1.0 + 0j for j, uj in enumerate(u)]
        if any(not (1e-12 < abs(v) < skip_threshold) for v in vals[1:]):
            warnings.warn(f"sample {z} is too close to a zero/pole; skipped")
            continue
        lhs = lhs_fn.eval(z)
        w = [None] + [ld.eval(z) for ld in logders[1:]]
        rhs = 0j
        for expo, coeff in F.terms.items():
            twist = sum(expo[j] * w[j] for j in range(1, len(u)) if expo[j])
            mono = complex(coeff)
            for v, e in zip(vals, expo):
                if e:
                    mono *= v**e
            rhs += mono * twist
        resid = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, resid)
    return worst
