"""Exact effective constants and dimension counts for the gcd bound.

Everything here is integer / rational arithmetic: binomial-based constants,
the smallest admissible polynomial degree for a target epsilon, dimension
counts of monomial coefficient families (sumset cardinalities), and the
multiplicity threshold.  The least m, and the least b of a simplex family,
are found by doubling and bisection with no cap; any other family walks one
growing sumset, and ``_SUMSET_CAP`` on its points is the one bound left.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import count, islice

from .algebra.serialize import json_int
from .errors import InvalidInput, WorkbenchError

# the most sumset points one walk stores before giving up with a WorkbenchError
_SUMSET_CAP = 2_000_000


def binom(top: int, k: int) -> int:
    """Binomial coefficient with the convention C(top, k) = 0 for top < k."""
    if k < 0 or top < k:
        return 0
    return math.comb(top, k)


@dataclass(frozen=True)
class ConstantsProfile:
    """The exact constants attached to parameters (n, d, m).

    b and N_threshold are filled in by the later selection steps and are
    None until then; eps records the target the profile was built for.
    """

    n: int
    d: int
    m: int
    M: int
    M_prime: int
    c_mnd: int
    L: int
    eps: Fraction | None = None
    b: int | None = None
    w: int | None = None
    u: int | None = None
    N_threshold: int | None = None
    c3: Fraction | None = None  # supplied, not computed

    def as_dict(self) -> dict:
        """The fields that are set, in order, each Fraction as a string."""
        return {f.name: str(v) if isinstance(v, Fraction) else v for f in fields(self)
                if (v := getattr(self, f.name)) is not None}


def constants(n: int, d: int, m: int) -> ConstantsProfile:
    """Exact constant block for dimension n, form degree d, working degree m.

    M = 2 C(m+n-d, n) - C(m+n-2d, n); M' = C(m+n, n) - M;
    c = 2 C(m+n-d, n+1) - C(m+n-2d, n+1); L = ceil(M(M-1) / (2c)).
    Requires n >= 2, d >= 1 and m >= 2d.
    """
    if n < 2 or d < 1:
        raise InvalidInput("need n >= 2 and d >= 1")
    if m < 2 * d:
        raise InvalidInput(f"need m >= 2d = {2 * d}, got {m}")
    M = 2 * binom(m + n - d, n) - binom(m + n - 2 * d, n)
    M_prime = binom(m + n, n) - M
    c = 2 * binom(m + n - d, n + 1) - binom(m + n - 2 * d, n + 1)
    L = -(-M * (M - 1) // (2 * c))  # ceiling; truncation level must be integral
    return ConstantsProfile(n=n, d=d, m=m, M=M, M_prime=M_prime, c_mnd=c, L=L)


def degree_conditions(n: int, d: int, m: int, eps: Fraction) -> tuple[bool, bool]:
    """The two admissibility conditions for the working degree m."""
    p = constants(n, d, m)
    cond1 = Fraction(p.M_prime * m * n, p.M) <= eps / 4
    lhs2 = Fraction(m, n + 1) * binom(m + n, n) - p.c_mnd - p.M_prime * m
    cond2 = Fraction(lhs2, p.M) <= eps / (4 * (n + 1))
    return bool(cond1), bool(cond2)


def _least(holds: Callable[[int], bool], lo: int) -> int:
    """Least k >= lo with holds(k), for a condition that stays true once it
    holds: double the step from lo until it holds, then bisect (Bentley & Yao,
    IPL 5(3), 1976), so O(log k) checks and no cap."""
    bad, step = lo - 1, 1
    while not holds(bad + step):
        bad, step = bad + step, 2 * step
    good = bad + step
    while good - bad > 1:
        mid = (bad + good) // 2
        bad, good = (bad, mid) if holds(mid) else (mid, good)
    return good


def choose_m(eps: Fraction, n: int, d: int) -> int:
    """Smallest m >= 2d satisfying both degree conditions.

    Premise of the search: the first condition's ratio M'mn/M falls strictly
    with m and the left side of the second is never positive, so once both
    hold they hold for every larger m (checked with exact Fractions for every
    m in [2d, 1500) with n, d <= 6, and on 4,000 random pairs (m, m + 1) with
    n <= 8, d <= 10, m <= 10^9).
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidInput("need 0 < eps < 1")
    return _least(lambda m: all(degree_conditions(n, d, m, eps)), 2 * d)


# ---------------------------------------------------------------------------
# monomial coefficient families and their dimension counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialFamily:
    """Coefficient monomials in finitely many free generators.

    Stored as exponent vectors; the zero vector (the mandatory unit
    coefficient) must be present.  Freeness of the generators makes the
    dimension of the span of t-fold products a plain sumset count.
    """

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vs = tuple(sorted({tuple(json_int(e, "vectors", "family") for e in v)
                           for v in self.vectors}))
        if not vs:
            raise InvalidInput("empty family")
        width = len(vs[0])
        if any(len(v) != width for v in vs):
            raise InvalidInput("inconsistent generator counts")
        if any(e < 0 for v in vs for e in v):
            raise InvalidInput("negative exponents")
        if (0,) * width not in vs:
            raise InvalidInput("family must contain the unit (zero vector)")
        object.__setattr__(self, "vectors", vs)

    def reduced_vectors(self) -> tuple[tuple[int, ...], ...]:
        """Vectors with unused coordinates dropped and the zero vector removed."""
        width = len(self.vectors[0])
        used = [i for i in range(width) if any(v[i] for v in self.vectors)]
        return tuple(sorted({tuple(v[i] for i in used) for v in self.vectors}
                            - {(0,) * len(used)}))

    def is_simplex(self) -> bool:
        """True when the nonzero reduced vectors v_1..v_g are linearly
        independent over Q.  With the zero vector they are then the vertices
        of a simplex: the t-fold sums are the sum_i a_i v_i with a_i >= 0 and
        sum_i a_i <= t, distinct a give distinct sums, and |V(t)| = C(t+g, g)."""
        rows = [[Fraction(e) for e in v] for v in self.reduced_vectors()]
        while rows:
            pivot = rows.pop()
            col = next(i for i, e in enumerate(pivot) if e)
            rows = [[a - r[col] / pivot[col] * b for a, b in zip(r, pivot)] for r in rows]
            if not all(any(r) for r in rows):
                return False
        return True


def _sumset_sizes(fam: MonomialFamily) -> Iterator[int]:
    """|V(0)|, |V(1)|, ...: the sizes of the t-fold sumsets of the reduced
    vectors, from one growing set to which each depth adds its frontier's sums
    with every vector.  Raises once more than ``_SUMSET_CAP`` points are stored."""
    vs = fam.reduced_vectors()
    seen = frontier = {(0,) * len(vs[0]) if vs else ()}
    for depth in count():
        yield len(seen)
        frontier = {tuple(a + b for a, b in zip(s, v)) for s in frontier for v in vs} - seen
        seen |= frontier
        if len(seen) > _SUMSET_CAP:
            raise WorkbenchError(f"sumset enumeration exceeded {_SUMSET_CAP} points at depth "
                                 f"{depth}; family growth too fast for exact counting")


def dim_Vt(fam: MonomialFamily, t: int) -> int:
    """Dimension of the span of t-fold coefficient products.

    Equals the cardinality of the t-fold sumset of the exponent vectors
    (free generators make distinct products linearly independent).  Simplex
    families (``is_simplex``) use the closed form, any other family the
    sumset walk.
    """
    if t < 0:
        raise InvalidInput("t must be >= 0")
    if fam.is_simplex():
        g = len(fam.reduced_vectors())
        return binom(t + g, g)
    return next(islice(_sumset_sizes(fam), t, None))


def choose_b(eps: Fraction, m: int, n: int, fam: MonomialFamily, M: int) -> tuple[int, int, int]:
    """Smallest b >= 1 with dim V(Mb)/dim V(Mb-M) - 1 <= eps/(4mn).

    Returns (b, w, u) with w = dim V(Mb) and u = dim V(Mb - M).  A simplex
    family's ratio prod_j (Mb+j)/(Mb-M+j) falls with b: doubling and bisection.
    Any other family steps b through one growing sumset whose sizes are kept,
    so nothing is counted twice; the ratio tends to 1 and |V(t)| >= t + 1, so
    the walk ends or meets ``_SUMSET_CAP``.
    """
    bound = Fraction(eps) / (4 * m * n)
    if fam.is_simplex():
        b = _least(lambda b: Fraction(dim_Vt(fam, M * b), dim_Vt(fam, M * b - M)) - 1 <= bound, 1)
        return b, dim_Vt(fam, M * b), dim_Vt(fam, M * b - M)
    sizes = []
    for t, w in enumerate(_sumset_sizes(fam)):
        sizes.append(w)
        if t and t % M == 0 and Fraction(w, sizes[t - M]) - 1 <= bound:
            return t // M, w, sizes[t - M]


def choose_N(eps: Fraction, n: int, m: int, L: int, M: int, c3: Fraction) -> int:
    """Least integer strictly greater than 4((n+1) m L + c3/M) / eps."""
    eps = Fraction(eps)
    if eps <= 0 or min(n, m, L, M) <= 0 or Fraction(c3) < 0:
        raise InvalidInput("all inputs must be positive (c3 >= 0)")
    value = 4 * ((n + 1) * m * L + Fraction(c3) / M) / eps
    return math.floor(value) + 1


def full_profile(eps: Fraction, n: int, d: int, fam: MonomialFamily | None = None,
                 c3: Fraction = Fraction(0)) -> ConstantsProfile:
    """Run the whole selection pipeline for a target epsilon."""
    eps = Fraction(eps)
    m = choose_m(eps, n, d)
    prof = replace(constants(n, d, m), eps=eps, c3=Fraction(c3))
    if fam is not None:
        b, w, u = choose_b(eps, m, n, fam, prof.M)
        prof = replace(prof, b=b, w=w, u=u)
    N = choose_N(eps, n, m, prof.L, prof.M, Fraction(c3))
    return replace(prof, N_threshold=N)
