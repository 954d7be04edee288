"""Structured-text (JSON) formats for exact polynomials.

Polynomial document:
    {"vars": n, "terms": [{"exp": [e0,...], "re": "p/q", "im": "r/s"}, ...]}

Exponents are non-negative integers and coefficient strings are exact
rationals.  A document tagged {"laurent": true} (negative exponents) is
refused.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .gaussrat import GaussRat
from .poly import SparsePoly


def poly_to_doc(p: SparsePoly) -> dict:
    terms = []
    for expo in sorted(p.terms):
        re, im = p.terms[expo].to_strings()
        terms.append({"exp": list(expo), "re": re, "im": im})
    return {"vars": p.num_vars, "terms": terms}


def poly_from_doc(doc: dict) -> SparsePoly:
    if doc.get("laurent"):
        raise ValueError("Laurent document passed where a polynomial was expected")
    n = int(doc["vars"])
    terms = {}
    for t in doc["terms"]:
        expo = tuple(int(e) for e in t["exp"])
        coeff = GaussRat(Fraction(t["re"]), Fraction(t.get("im", "0")))
        if coeff:
            terms[expo] = coeff
    return SparsePoly(n, terms)


def load_poly(path: str) -> SparsePoly:
    with open(path) as fh:
        return poly_from_doc(json.load(fh))


def dump_poly(p: SparsePoly, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(poly_to_doc(p), fh, indent=2)
        fh.write("\n")
