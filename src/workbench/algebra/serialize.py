"""Structured-text (JSON) formats for exact polynomials.

Polynomial document:
    {"vars": n, "terms": [{"exp": [e0,...], "re": "p/q", "im": "r/s"}, ...]}

Exponents are non-negative integers and coefficient strings are exact
rationals.  A document tagged {"laurent": true} (negative exponents) is
refused, as is one that lacks a key, holds a value of the wrong form (a
number that is not a JSON integer where an integer belongs, too),
repeats an exponent or holds one above ``MAX_EXPONENT``, with ``InvalidInput``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

from ..errors import InvalidInput
from .gaussrat import GaussRat
from .poly import SparsePoly


# the largest exponent of a polynomial document (the shipped ones reach 10):
# coefficient lists are dense over the degree, and certifying the roots of one
# factor takes about 2 s at degree 200 and 13 s at degree 400 (2-vCPU host)
MAX_EXPONENT = 200


def poly_to_doc(p: SparsePoly) -> dict:
    terms = []
    for expo in sorted(p.terms):
        re, im = p.terms[expo].to_strings()
        terms.append({"exp": list(expo), "re": re, "im": im})
    return {"vars": p.num_vars, "terms": terms}


@contextmanager
def refuse_malformed(kind: str):
    """Raise InvalidInput, naming the key or the value, for the errors that
    reading a malformed ``kind`` document raises."""
    try:
        yield
    except KeyError as exc:
        raise InvalidInput(f"malformed {kind} document: no key {exc}") from exc
    except ZeroDivisionError as exc:
        raise InvalidInput(f"malformed {kind} document: a denominator is 0") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed {kind} document: {exc}") from exc


def is_json_int(value) -> bool:
    """Whether ``value`` is a JSON integer, that is an ``int`` and not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value, key: str, kind: str) -> int:
    """``value`` when it is a JSON integer; else InvalidInput naming ``key``
    of the ``kind`` document.  A float such as 1.7 is refused, not truncated."""
    if is_json_int(value):
        return value
    raise InvalidInput(f"malformed {kind} document: {key!r} must be an integer, not {value!r}")


def poly_from_doc(doc: dict) -> SparsePoly:
    """The polynomial of a document; a malformed one raises InvalidInput."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"a polynomial document is an object, not {doc!r}")
    if doc.get("laurent"):
        raise InvalidInput("Laurent document passed where a polynomial was expected")
    with refuse_malformed("polynomial"):
        n = json_int(doc["vars"], "vars", "polynomial")
        terms = {}
        for t in doc["terms"]:
            expo = tuple(json_int(e, "exp", "polynomial") for e in t["exp"])
            if max(expo, default=0) > MAX_EXPONENT:
                raise InvalidInput(f"malformed polynomial document: exponent {list(expo)} "
                                   f"is above the cap MAX_EXPONENT = {MAX_EXPONENT}")
            if expo in terms:
                raise InvalidInput(
                    f"malformed polynomial document: exponent {list(expo)} is repeated")
            terms[expo] = GaussRat(Fraction(t["re"]), Fraction(t.get("im", "0")))
        return SparsePoly(n, terms)


def read_doc(path, kind: str):
    """The JSON document in the file at ``path``; a file that cannot be read
    or does not hold JSON raises InvalidInput naming the ``kind`` of document."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read the {kind} document {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InvalidInput(f"malformed {kind} document {path}: {exc}") from exc


def load_poly(path: str) -> SparsePoly:
    return poly_from_doc(read_doc(path, "polynomial"))


def dump_poly(p: SparsePoly, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(poly_to_doc(p), fh, indent=2)
        fh.write("\n")
