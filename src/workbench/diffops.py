"""The logarithmic differential operator on polynomials over formal symbols.

The coefficient ring has generators w_1..w_n (standing for the logarithmic
derivatives u_j'/u_j of the tuple components), lambda with its inverse,
lambda' and s (a formal beta'/beta).  A polynomial over it is one flat
``SparsePoly`` in the variables of ``DiffSymbolRing``: x_0..x_n, w_1..w_n,
lambda', s, lambda, lambda^-1.  The Laurent ring K[lambda, lambda^-1] is
the quotient K[lambda, mu]/(lambda mu - 1), so a polynomial is kept reduced
(no term holds both lambda and lambda^-1), and equal elements have equal
terms.

The operator sends a term a * x^i (exponents i_0..i_n against the tuple
u = (1, u_1, .., u_n)) to (a' + a * sum_j i_j w_j) * x^i; it preserves
degree and satisfies the product rule exactly.
"""

from __future__ import annotations

from .algebra.gaussrat import GaussRat
from .algebra.poly import SparsePoly
from .algebra.euclid import gcd_poly, is_squarefree, monomial_variables, resultant
from .algebra.serialize import json_int, refuse_malformed
from .errors import InternalContradiction, InvalidInput

# the generator names after w1..wn, in the order of the diffpoly/1 header
_DOC_SYMBOLS = ["lambda", "lambdainv", "lambdap", "s"]
# verify_Du_numeric skips a sample where some |u_j| falls outside this window
_SAMPLE_WINDOW = (1e-12, 1e12)


class DiffSymbolRing:
    """Variable layout of polynomials in x_0..x_n over n logarithmic symbols.

    x_j has index j, w_j has index n + j, and ``lam_prime``, ``s``, ``lam``
    and ``lam_inv`` are the last four indices.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("need n >= 0 symbols")
        self.n = n
        self.num_vars = 2 * n + 5
        self.lam_prime, self.s, self.lam, self.lam_inv = range(2 * n + 1, 2 * n + 5)

    def w(self, j: int) -> int:
        """The index of the symbol w_j = u_j'/u_j, 1-indexed."""
        if not 1 <= j <= self.n:
            raise ValueError(f"w index {j} out of range 1..{self.n}")
        return self.n + j

    def embed(self, F: SparsePoly) -> SparsePoly:
        """A form in x_0..x_n with constant coefficients, in this layout."""
        pad = (0,) * (self.n + 4)
        return SparsePoly(self.num_vars, {e + pad: c for e, c in F.terms.items()})

    def reduce(self, P: SparsePoly) -> SparsePoly:
        """P with lambda * lambda^-1 = 1 cancelled in every term."""
        terms = {}
        for expo, c in P.terms.items():
            k = min(expo[self.lam], expo[self.lam_inv])
            if k:
                expo = expo[: self.lam] + (expo[self.lam] - k, expo[self.lam_inv] - k)
            terms[expo] = terms[expo] + c if expo in terms else c
        return SparsePoly(self.num_vars, terms)

    def lam_derivative(self, P: SparsePoly) -> SparsePoly:
        """dP/dlambda - lambda^-2 dP/dlambda^-1, the derivation of the
        quotient ring that sends lambda to 1; the result is reduced."""
        mu = SparsePoly.variable(self.lam_inv, self.num_vars)
        return self.reduce(
            P.partial_derivative(self.lam) - mu * mu * P.partial_derivative(self.lam_inv)
        )


def apply_Du(ring: DiffSymbolRing, F: SparsePoly) -> SparsePoly:
    """Apply the logarithmic differential operator.

    D(F) = sum_{j>=1} w_j x_j dF/dx_j + lambda' (dF/dlambda - lambda^-2
    dF/dlambda^-1): a term a*x^i maps to (a' + a * sum_{j>=1} i_j w_j) * x^i,
    where x_0 carries no symbol because u_0 = 1.  Degree is preserved.  The
    symbols w_j, lambda' and s carry no assigned derivative, so a term that
    contains one is rejected.  The result is reduced.
    """
    if F.num_vars != ring.num_vars:
        raise InvalidInput(
            f"polynomial in {F.num_vars} variables needs the layout of "
            f"{ring.num_vars} variables of a ring with {ring.n} symbols"
        )
    for expo in F.terms:
        if any(expo[ring.n + 1 : ring.lam]):
            raise InvalidInput(
                "derivative undefined outside the lambda subring "
                f"(term exponents w={expo[ring.n + 1 : ring.lam_prime]}, "
                f"lambda'={expo[ring.lam_prime]}, s={expo[ring.s]})"
            )

    def var(i):
        return SparsePoly.variable(i, ring.num_vars)

    out = var(ring.lam_prime) * ring.lam_derivative(F)
    for j in range(1, ring.n + 1):
        out = out + var(ring.w(j)) * var(j) * F.partial_derivative(j)
    return ring.reduce(out)


def check_product_rule(ring: DiffSymbolRing, F: SparsePoly, G: SparsePoly) -> bool:
    """Exact symbolic test of D(FG) = D(F) G + F D(G)."""
    lhs = apply_Du(ring, F * G)
    rhs = ring.reduce(apply_Du(ring, F) * G + F * apply_Du(ring, G))
    return lhs == rhs


# ---------------------------------------------------------------------------
# coprimality of F with its image (constant coefficients)
# ---------------------------------------------------------------------------

def _with_image(F: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
    """F and D_u(F) in x, w, lambda', s: the lambda slots, which a
    constant-coefficient form never uses, are dropped."""
    ring = DiffSymbolRing(F.num_vars - 1)
    flat = ring.embed(F)
    pair = (flat, apply_Du(ring, flat))
    return tuple(p.drop_var(ring.lam_inv).drop_var(ring.lam) for p in pair)


def coprime_with_Du(F: SparsePoly) -> bool:
    """Check that F is coprime with its operator image; returns True.

    ``F`` is a homogeneous polynomial with constant (Gaussian-rational)
    coefficients, with no monomial factors and no repeated factors; the
    preconditions are validated and their violation raises InvalidInput.

    Such an F is always coprime with D_u(F).  Let an irreducible A divide
    both F and D_u(F) = sum_j w_j x_j dF/dx_j.  A is free of w, so A divides
    each x_j dF/dx_j.  F is squarefree and has no monomial factor, so A
    divides dA/dx_j, and then dA/dx_j = 0 for every j >= 1.  That makes A
    = x_0, a monomial factor.  The gcd is still computed, and a non-constant
    one raises InternalContradiction.
    """
    if not F or F.is_constant():
        raise InvalidInput("F must be non-constant")
    if not F.is_homogeneous():
        raise InvalidInput("F must be homogeneous")
    if monomial_variables(F):
        raise InvalidInput("F has a monomial factor")
    if not is_squarefree(F):
        raise InvalidInput("F has a repeated factor")
    g = gcd_poly(*_with_image(F), 0)
    if any(g.degree_in(v) for v in range(F.num_vars)):
        raise InternalContradiction(f"F and D_u(F) share the factor {g}")
    return True


def resultants_with_Du(F: SparsePoly) -> list[SparsePoly]:
    """Resultant of F with its operator image in each x variable, as
    polynomials in x_0..x_n, w_1..w_n, lambda', s."""
    flat_F, flat_D = _with_image(F)
    return [resultant(flat_F, flat_D, v) for v in range(F.num_vars)]


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

DIFFPOLY_SCHEMA = "diffpoly/1"


def diffpoly_to_doc(ring: DiffSymbolRing, F: SparsePoly) -> dict:
    """Serialize with a symbols header in the fixed generator order
    [w1..wn, lambda, lambdainv, lambdap, s]; terms are grouped by their x
    exponents, and each group is sorted by the w exponents, the signed
    lambda power, lambda' and s."""
    n = ring.n
    groups: dict[tuple, list] = {}
    for expo, c in ring.reduce(F).terms.items():
        w = expo[n + 1 : ring.lam_prime]
        kp, ks, kl, kinv = expo[ring.lam_prime :]
        groups.setdefault(expo[: n + 1], []).append(
            ((w, kl - kinv, kp, ks), [*w, kl, kinv, kp, ks], c)
        )
    terms = []
    for x in sorted(groups):
        parts = []
        for _, sym, c in sorted(groups[x], key=lambda t: t[0]):
            re, im = c.to_strings()
            parts.append({"exp": sym, "re": re, "im": im})
        terms.append({"exp": list(x), "coeff": parts})
    return {
        "schema": DIFFPOLY_SCHEMA,
        "vars": n + 1,
        "symbols": [f"w{j}" for j in range(1, n + 1)] + _DOC_SYMBOLS,
        "terms": terms,
    }


def diffpoly_from_doc(doc: dict) -> tuple[DiffSymbolRing, SparsePoly]:
    """The ring and the reduced polynomial of a diffpoly/1 document; a
    malformed one raises InvalidInput."""
    with refuse_malformed("diffpoly"):
        if doc.get("schema") != DIFFPOLY_SCHEMA:
            raise ValueError(f"unknown schema {doc.get('schema')!r}")
        names = doc["symbols"]
        n = len(names) - 4
        if n < 0 or names[n:] != _DOC_SYMBOLS:
            raise ValueError("symbols header must end with lambda, lambdainv, lambdap, s")
        if json_int(doc["vars"], "vars", "diffpoly") != n + 1:
            raise ValueError(f"{n} symbols need {n + 1} x variables, not {doc['vars']}")
        ring = DiffSymbolRing(n)
        terms = {}
        for t in doc["terms"]:
            expo = [json_int(e, "exp", "diffpoly") for e in t["exp"]]
            for part in t["coeff"]:
                sym = [json_int(e, "exp", "diffpoly") for e in part["exp"]]
                if len(sym) != n + 4:
                    raise ValueError(f"symbol exponent {sym} needs {n + 4} entries")
                key = tuple(expo + sym[:n] + sym[n + 2 :] + sym[n : n + 2])
                coeff = GaussRat.from_strings(part["re"], part.get("im", "0"))
                terms[key] = terms.get(key, GaussRat(0)) + coeff
        return ring, ring.reduce(SparsePoly(ring.num_vars, terms))


# ---------------------------------------------------------------------------
# numeric confirmation of the defining identity
# ---------------------------------------------------------------------------

def verify_Du_numeric(F: SparsePoly, u: tuple, radius_samples: list[complex]) -> float:
    """Max relative residual of F(u)' = D_u(F)(u) over the sample points.

    Two independent routes: the left side expands F on the tuple into an
    exact exponential sum and differentiates that; the right side evaluates
    ``apply_Du`` of F at x = u, w_j = u_j'/u_j, lambda = lambda^-1 = 1 and
    lambda' = s = 0.  Components must be class functions with u_0 = 1;
    samples landing on zeros or poles are skipped with a warning.
    """
    import warnings

    from .expsum import eval_poly_on_tuple
    from .nevanlinna import log_derivative

    if F.num_vars != len(u):
        raise InvalidInput("tuple length must match the number of variables")
    if not (u[0].is_constant() and not u[0].exp_part and u[0].scalar == 1):
        raise InvalidInput("the first tuple component must be the constant 1")
    ring = DiffSymbolRing(len(u) - 1)
    image = apply_Du(ring, ring.embed(F))
    lhs_fn = eval_poly_on_tuple(F, tuple(u)).derivative()
    logders = [log_derivative(uj) for uj in u[1:]]
    worst = 0.0
    for z in radius_samples:
        vals = [1.0 + 0j] + [uj.eval(z) for uj in u[1:]]
        if any(not (_SAMPLE_WINDOW[0] < abs(v) < _SAMPLE_WINDOW[1]) for v in vals[1:]):
            warnings.warn(f"sample {z} is too close to a zero/pole; skipped")
            continue
        lhs = lhs_fn.eval(z)
        rhs = image.compose(vals + [ld.eval(z) for ld in logders] + [0j, 0j, 1 + 0j, 1 + 0j],
                            complex)
        resid = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, resid)
    return worst
