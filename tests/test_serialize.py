import json

import pytest

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.serialize import poly_from_doc, poly_to_doc
from workbench.errors import InvalidInput
from workbench.nevanlinna import MeroFn, mero_from_doc, mero_to_doc

from conftest import variables


def test_poly_round_trip():
    x0, x1 = variables(2)
    p = (x0**2).scale(GaussRat("3/7", "-1/2")) + x1 - 5
    doc = poly_to_doc(p)
    assert doc["vars"] == 2
    assert all(set(t) == {"exp", "re", "im"} for t in doc["terms"])
    assert poly_from_doc(json.loads(json.dumps(doc))) == p


def test_laurent_doc_rejected_as_poly():
    doc = {"vars": 2, "laurent": True, "terms": []}
    with pytest.raises(InvalidInput, match="Laurent"):
        poly_from_doc(doc)


def test_mero_round_trip():
    z = SparsePoly.variable(0, 1)
    f = MeroFn(scalar=GaussRat("2/3"), factors=[(z**2 - 1, 3), (z, -1)], exp_part=2 * z)
    doc = mero_to_doc(f)
    g = mero_from_doc(json.loads(json.dumps(doc)))
    assert g == f
