"""Exact effective constants and dimension counts for the gcd bound.

Everything here is integer / rational arithmetic: binomial-based constants,
the smallest admissible polynomial degree for a target epsilon, dimension
counts of monomial coefficient families (sumset cardinalities), and the
multiplicity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .algebra.serialize import json_int
from .errors import InvalidInput, WorkbenchError

# search caps: the largest degree m, the largest b, and the most sumset
# points dim_Vt stores, before giving up with a WorkbenchError
_M_CAP = 10**6
_B_CAP = 10**6
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


def choose_m(eps: Fraction, n: int, d: int) -> int:
    """Smallest m >= 2d satisfying both degree conditions, by exact search."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InvalidInput("need 0 < eps < 1")
    m = 2 * d
    while m <= _M_CAP:
        if all(degree_conditions(n, d, m, eps)):
            return m
        m += 1
    raise WorkbenchError(f"degree search exceeded cap {_M_CAP}")


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
        if not self.vectors:
            return ()
        width = len(self.vectors[0])
        used = [i for i in range(width) if any(v[i] for v in self.vectors)]
        out = {tuple(v[i] for i in used) for v in self.vectors}
        out.discard(tuple())
        out.discard((0,) * len(used))
        return tuple(sorted(out))

    def is_simplex(self) -> bool:
        """True when the non-unit generators are exactly distinct basis vectors."""
        vs = self.reduced_vectors()
        if not vs:
            return True
        width = len(vs[0])
        if len(vs) != width:
            return False
        return all(sum(v) == 1 and max(v) == 1 for v in vs)


def dim_Vt(fam: MonomialFamily, t: int) -> int:
    """Dimension of the span of t-fold coefficient products.

    Equals the cardinality of the t-fold sumset of the exponent vectors
    (free generators make distinct products linearly independent).  Simplex
    families use the exact closed form; otherwise a frontier-based exact
    enumeration runs, guarded by ``_SUMSET_CAP`` on the number of stored points.
    """
    if t < 0:
        raise InvalidInput("t must be >= 0")
    vs = fam.reduced_vectors()
    if not vs or t == 0:
        return 1
    if fam.is_simplex():
        g = len(vs)
        return binom(t + g, g)
    width = len(vs[0])
    zero = (0,) * width
    seen = {zero}
    frontier = {zero}
    for _ in range(t):
        new = set()
        for s in frontier:
            for v in vs:
                p = tuple(a + b for a, b in zip(s, v))
                if p not in seen:
                    new.add(p)
        if not new:
            break
        seen |= new
        frontier = new
        if len(seen) > _SUMSET_CAP:
            raise WorkbenchError(
                f"sumset enumeration exceeded {_SUMSET_CAP} points at depth {_}; "
                "family growth too fast for exact counting"
            )
    return len(seen)


def choose_b(eps: Fraction, m: int, n: int, fam: MonomialFamily, M: int) -> tuple[int, int, int]:
    """Smallest b >= 1 with dim V(Mb)/dim V(Mb-M) - 1 <= eps/(4mn).

    Returns (b, w, u) with w = dim V(Mb) and u = dim V(Mb - M).  The search
    is guaranteed to terminate for polynomial-growth families; a cap guards
    against pathological inputs and raises with a diagnostic.
    """
    eps = Fraction(eps)
    bound = eps / (4 * m * n)
    b = 1
    while b <= _B_CAP:
        w = dim_Vt(fam, M * b)
        u = dim_Vt(fam, M * b - M)
        if Fraction(w, u) - 1 <= bound:
            return b, w, u
        b += 1
    raise WorkbenchError(f"b search exceeded cap {_B_CAP} without meeting the ratio bound")


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
