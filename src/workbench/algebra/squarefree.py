"""Squarefree factorization and gcd-free bases over the Gaussian rationals.

``squarefree_decompose`` runs Yun's method, on univariate polynomials
directly and on multivariate ones with respect to a main variable,
recursing on the content; its factors are pairwise coprime, squarefree,
canonically scaled, and multiply back to the input up to a nonzero
constant.  ``squarefree_part`` is the classical f / gcd(f, df), with one
gcd per occurring variable and no factors.  ``gcd_free_basis`` refines the
factors of several factorizations into one pairwise coprime basis.
"""

from __future__ import annotations

from collections import deque
from operator import add
from typing import Mapping, Sequence

from .euclid import _occurring_vars, _repeated_part, canonical_scale, content_in, gcd_poly
from .poly import SparsePoly


def _yun(f: SparsePoly, var: int) -> list[tuple[SparsePoly, int]]:
    """Yun's algorithm; ``f`` must be primitive with respect to ``var``."""
    df = f.partial_derivative(var)
    a = gcd_poly(f, df, var)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.partial_derivative(var)
    out: list[tuple[SparsePoly, int]] = []
    i = 1
    while b.degree_in(var) > 0:
        g = gcd_poly(b, d, var)
        if g.degree_in(var) > 0:
            out.append((canonical_scale(g), i))
        b = b.exact_div(g)
        c = d.exact_div(g)
        d = c - b.partial_derivative(var)
        i += 1
    return out


def squarefree_decompose(f: SparsePoly) -> list[tuple[SparsePoly, int]]:
    """Squarefree decomposition: list of (factor, multiplicity).

    The product of factor^multiplicity equals f up to a nonzero constant;
    factors are pairwise coprime and squarefree.  Raises on the zero
    polynomial; constants decompose into the empty list.
    """
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    occ = _occurring_vars(f)
    if not occ:
        return []
    var = occ[0]
    cont = content_in(f, var)
    prim = f if cont.is_constant() else f.exact_div(cont)
    out = _yun(prim, var)
    if not cont.is_constant():
        out.extend(squarefree_decompose(cont))
    return out


def squarefree_part(f: SparsePoly) -> SparsePoly:
    """The product of the distinct irreducible factors of f, canonically
    scaled: f divided by its gcd with every partial derivative.  Raises on
    the zero polynomial."""
    if not f:
        raise ValueError("the zero polynomial has no squarefree part")
    return canonical_scale(f.exact_div(_repeated_part(f)))


def gcd_free_basis(factor_maps: Sequence[Mapping[SparsePoly, int]]
                   ) -> dict[SparsePoly, tuple[int, ...]]:
    """One gcd-free basis of the factors of every map, each basis element q
    with its vector (v_1, ..., v_k) of multiplicities in the k maps.

    The elements are non-constant and pairwise coprime, and each map
    prod_p p^(m_p) equals prod_q q^(v_iq) up to a constant.  For the factors
    of a canonical ``MeroFn`` c * prod_p p^(m_p) * exp(Q) (squarefree,
    pairwise coprime, monic) that is c * prod_q q^(v_q) * exp(Q), so a
    product of powers of such functions has the matching integer
    combination of their vectors.

    Worklist factor refinement (Bach, Driscoll and Shallit, "Factor
    refinement", J. Algorithms 15, 1993): each factor meets the basis in
    turn.  A factor equal to a basis element adds its vector to that
    element's; one that shares g = gcd(p, q) with an element q replaces q by
    g, p/g and q/g at the back of the queue, g with the sum of both vectors.
    """
    k = len(factor_maps)
    queue = deque((p, tuple(m if j == i else 0 for j in range(k)))
                  for i, fac in enumerate(factor_maps) for p, m in fac.items())
    basis: dict[SparsePoly, tuple[int, ...]] = {}
    while queue:
        p, v = queue.popleft()
        if p in basis:
            basis[p] = tuple(map(add, basis[p], v))
            continue
        for q in basis:
            g = gcd_poly(p, q)
            if not g.is_constant():
                w = basis.pop(q)
                parts = ((g, tuple(map(add, v, w))),
                         (canonical_scale(p.exact_div(g)), v),
                         (canonical_scale(q.exact_div(g)), w))
                queue.extend((f, u) for f, u in parts if not f.is_constant())
                break
        else:
            basis[p] = v
    return basis
