"""Exact algebra kernel: Gaussian-rational sparse polynomials and friends."""

from .gaussrat import GaussRat
from .poly import SparsePoly
from .euclid import (
    canonical_scale,
    content_in,
    gcd_many,
    gcd_poly,
    is_squarefree,
    monomial_variables,
    primitive_part_in,
    pseudo_rem,
    resultant,
)
from .squarefree import squarefree_decompose, squarefree_part
from .roots import (
    AlgebraicRoots,
    RootEnclosure,
    roots_certified,
)
from .certificates import NullstellensatzCertificate, nullstellensatz_certificate
from .serialize import (
    dump_poly,
    load_poly,
    poly_from_doc,
    poly_to_doc,
)

__all__ = [
    "GaussRat",
    "SparsePoly",
    "AlgebraicRoots",
    "RootEnclosure",
    "NullstellensatzCertificate",
    "canonical_scale",
    "content_in",
    "gcd_many",
    "gcd_poly",
    "is_squarefree",
    "monomial_variables",
    "primitive_part_in",
    "pseudo_rem",
    "resultant",
    "squarefree_decompose",
    "squarefree_part",
    "roots_certified",
    "nullstellensatz_certificate",
    "poly_to_doc",
    "poly_from_doc",
    "load_poly",
    "dump_poly",
]
