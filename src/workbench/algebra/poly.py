"""Sparse multivariate polynomials over Q(i).

Terms are stored as a map from exponent tuples (length = number of
variables, entries >= 0) to nonzero GaussRat coefficients; the constructor
coerces int and Fraction and refuses anything else with TypeError.  A
polynomial over formal parameters (a coefficient ring Q(i)[y1,...,yk]) is a
SparsePoly in more variables, so resultants and subresultant sequences over
such a ring run on the same arithmetic.

Products and exact quotients run on integer pairs: each operand is
(1/D) * sum (a + b*i) x^e with D the lcm of its denominators, the term
arithmetic is on plain Python integers, and one canonical GaussRat is built
per output term.  A product takes one of three routes:

- a scaling, or a product with a one-term factor, has one coefficient
  product per output term and no sums, so it uses GaussRat ``*``;
- dense operands, with at least ``_PACKED_MIN_PAIRS`` term pairs and no
  more points in the product's exponent box than term pairs, are packed
  into big integers, one slot per point of the box, and multiplied by
  three big-integer products (Kronecker substitution; ``_packed_product``);
- all others run a dict loop over the term pairs.

The routes list the same terms in different orders, and ``eval`` sums in
term order.  The dict loop puts each term where the first product that
made it came; a packed product lists its terms in ascending exponent order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Mapping

from .gaussrat import GaussRat, from_ints, int_pairs

Expo = tuple[int, ...]


class SparsePoly:
    """An exact sparse polynomial in ``num_vars`` variables.

    Instances are treated as immutable values: no method mutates ``terms``
    after construction, so sharing is safe.
    """

    __slots__ = ("num_vars", "terms", "_hash")

    def __init__(self, num_vars: int,
                 terms: Mapping[Expo, int | Fraction | GaussRat] | None = None):
        clean: dict[Expo, GaussRat] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != num_vars:
                    raise ValueError(
                        f"exponent {expo} has length {len(expo)}, expected {num_vars}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                coeff = GaussRat.coerce(coeff)
                if coeff:
                    clean[expo] = coeff
        _set_num_vars(self, num_vars)
        _set_terms(self, clean)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @staticmethod
    def _clean(num_vars: int, terms: dict) -> "SparsePoly":
        """Wrap terms that arithmetic already cleaned: exponent tuples of
        length ``num_vars`` and nonzero coefficients.  ``terms`` is kept."""
        p = _new(SparsePoly)
        _set_num_vars(p, num_vars)
        _set_terms(p, terms)
        _set_hash(p, None)
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value, num_vars: int) -> "SparsePoly":
        return SparsePoly(num_vars, {(0,) * num_vars: value})

    @staticmethod
    def zero(num_vars: int) -> "SparsePoly":
        return SparsePoly(num_vars, {})

    @staticmethod
    def one(num_vars: int) -> "SparsePoly":
        return SparsePoly.constant(1, num_vars)

    @staticmethod
    def variable(index: int, num_vars: int) -> "SparsePoly":
        expo = tuple(1 if j == index else 0 for j in range(num_vars))
        return SparsePoly(num_vars, {expo: GaussRat(1)})

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self):
        """The coefficient of the constant term (zero if absent)."""
        zero_expo = (0,) * self.num_vars
        if set(self.terms) - {zero_expo}:
            raise ValueError("polynomial is not constant")
        return self.terms.get(zero_expo, GaussRat(0))

    def is_homogeneous(self) -> bool:
        degs = {sum(expo) for expo in self.terms}
        return len(degs) <= 1

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(expo) for expo in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(expo[var] for expo in self.terms)

    def min_degree_in(self, var: int) -> int:
        if not self.terms:
            return 0
        return min(expo[var] for expo in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "SparsePoly"):
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"incompatible variable counts {self.num_vars} != {other.num_vars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = SparsePoly.constant(other, self.num_vars)
        self._check_compatible(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            if expo in terms:
                s = terms[expo] + coeff
                if s:
                    terms[expo] = s
                else:
                    del terms[expo]
            else:
                terms[expo] = coeff
        return SparsePoly._clean(self.num_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._clean(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = SparsePoly.constant(other, self.num_vars)
        self._check_compatible(other)
        # one pass over other: the term order is that of self + (-other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            if expo in terms:
                s = terms[expo] - coeff
                if s:
                    terms[expo] = s
                else:
                    del terms[expo]
            else:
                terms[expo] = -coeff
        return SparsePoly._clean(self.num_vars, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        self._check_compatible(other)
        # a one-term factor meets no like terms: each output term is one
        # coefficient product, so there are no partial sums to save
        if len(other.terms) == 1:
            [(e2, c2)] = other.terms.items()
            return SparsePoly._clean(self.num_vars, {
                tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in self.terms.items()})
        if len(self.terms) == 1:
            [(e1, c1)] = self.terms.items()
            return SparsePoly._clean(self.num_vars, {
                tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in other.terms.items()})
        # the dict loop visits every term pair, the packed route every point
        # of the product's exponent box; the two cost about the same when
        # there are as many points as pairs, so dense operands are packed
        term_pairs = len(self.terms) * len(other.terms)
        if term_pairs >= _PACKED_MIN_PAIRS:
            lo1, hi1 = _corners(self.terms)
            lo2, hi2 = _corners(other.terms)
            widths = [h1 - l1 + h2 - l2 + 1 for l1, h1, l2, h2 in zip(lo1, hi1, lo2, hi2)]
            if prod(widths) <= term_pairs:
                return _packed_product(self, other, lo1, lo2, widths)
        d1, pairs1 = int_pairs(self.terms.values())
        d2, pairs2 = int_pairs(other.terms.values())
        rows = [(e2, a2, b2) for e2, (a2, b2) in zip(other.terms, pairs2)]
        # running sums as [re, im] over d1*d2; a sum that reaches zero is
        # deleted, so a term keeps the place of the product that made it
        acc: dict[Expo, list[int]] = {}
        for e1, (a1, b1) in zip(self.terms, pairs1):
            for e2, a2, b2 in rows:
                expo = tuple(map(add, e1, e2))
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                s = acc.get(expo)
                if s is None:
                    acc[expo] = [re, im]
                else:
                    re += s[0]
                    im += s[1]
                    if re or im:
                        s[0] = re
                        s[1] = im
                    else:
                        del acc[expo]
        d = d1 * d2
        return SparsePoly._clean(
            self.num_vars, {e: from_ints(re, im, d) for e, (re, im) in acc.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = GaussRat.coerce(c)
        if not c:
            return SparsePoly.zero(self.num_vars)
        return SparsePoly._clean(self.num_vars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = SparsePoly.one(self.num_vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            other = SparsePoly.constant(other, self.num_vars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num_vars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, var: int) -> "SparsePoly":
        """Formal partial derivative with respect to variable ``var``."""
        if var < 0 or var >= self.num_vars:
            raise ValueError(f"variable index {var} out of range")
        terms: dict[Expo, GaussRat] = {}
        for expo, coeff in self.terms.items():
            e = expo[var]
            if e == 0:
                continue
            new = list(expo)
            new[var] = e - 1
            terms[tuple(new)] = coeff * e
        return SparsePoly._clean(self.num_vars, terms)

    # -- evaluation / substitution --------------------------------------------

    def eval(self, values):
        """Evaluate in floating point at a point of numbers (``eval_exact``
        is the exact evaluator).

        ``values`` is a sequence of length ``num_vars``; each coefficient is
        converted with complex() and the terms are summed in term order.
        """
        if len(values) != self.num_vars:
            raise ValueError("wrong number of values")
        total = None
        for expo, coeff in self.terms.items():
            term = complex(coeff)
            for v, e in zip(values, expo):
                if e:
                    term = term * v**e
            total = term if total is None else total + term
        if total is None:
            return 0j
        return total

    def eval_exact(self, values: Iterable[GaussRat]) -> GaussRat:
        values = [GaussRat.coerce(v) for v in values]
        acc = GaussRat(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, expo):
                if e:
                    term = term * v**e
            acc = acc + term
        return acc

    def specialize(self, var: int, c) -> "SparsePoly":
        """Set variable ``var`` to the exact constant ``c`` and remove it,
        reducing num_vars by one."""
        c = GaussRat.coerce(c)
        terms: dict[Expo, GaussRat] = {}
        for expo, coeff in self.terms.items():
            e = expo[var]
            if e:
                if not c:
                    continue
                coeff = coeff * c**e
            rest = expo[:var] + expo[var + 1 :]
            old = terms.get(rest)
            if old is None:
                terms[rest] = coeff
            else:
                s = old + coeff
                if s:
                    terms[rest] = s
                else:
                    del terms[rest]
        return SparsePoly._clean(self.num_vars - 1, terms)

    def drop_var(self, var: int) -> "SparsePoly":
        """Remove a variable that no longer occurs, reducing num_vars by one."""
        if self.degree_in(var) > 0:
            raise ValueError(f"variable {var} still occurs")
        terms = {}
        for expo, coeff in self.terms.items():
            terms[expo[:var] + expo[var + 1 :]] = coeff
        return SparsePoly._clean(self.num_vars - 1, terms)

    def permute_vars(self, perm: Iterable[int]) -> "SparsePoly":
        """Relabel variables: new variable i is old variable perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.num_vars)):
            raise ValueError("not a permutation")
        terms = {}
        for expo, coeff in self.terms.items():
            terms[tuple(expo[p] for p in perm)] = coeff
        return SparsePoly._clean(self.num_vars, terms)

    # -- univariate views ------------------------------------------------------

    def coeffs_in(self, var: int) -> list["SparsePoly"]:
        """Coefficient list (ascending) of the polynomial viewed in one variable.

        Each coefficient is a SparsePoly in the same ambient variables with
        ``var`` not occurring.
        """
        deg = self.degree_in(var)
        if deg < 0:
            return []
        buckets: list[dict] = [dict() for _ in range(deg + 1)]
        for expo, coeff in self.terms.items():
            rest = list(expo)
            e = rest[var]
            rest[var] = 0
            buckets[e][tuple(rest)] = coeff
        return [SparsePoly._clean(self.num_vars, b) for b in buckets]

    def leading_coeff_in(self, var: int) -> "SparsePoly":
        deg = self.degree_in(var)
        if deg < 0:
            return SparsePoly.zero(self.num_vars)
        return self.coeffs_in(var)[deg]

    # -- exact division ---------------------------------------------------------

    def exact_div(self, other: "SparsePoly") -> "SparsePoly":
        """Exact quotient self / other; raises ValueError if not divisible."""
        if isinstance(other, (int, Fraction, GaussRat)):
            other = SparsePoly.constant(other, self.num_vars)
        self._check_compatible(other)
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        d_num, pairs = int_pairs(self.terms.values())
        d_den, den_pairs = int_pairs(other.terms.values())
        # other = B / d_den with B in Z[i][x], so self / other = d_den * (self / B)
        lead_e = max(other.terms)
        tail = []
        for e, (a, b) in zip(other.terms, den_pairs):
            if e == lead_e:
                lc, li = a, b
            else:
                tail.append((e, a, b))
        norm = lc * lc + li * li
        # the remainder as [re, im] over one denominator r; each step removes
        # its leading term (cancelled exactly by q * lead) and subtracts q * tail
        r = d_num
        rem = {e: [a, b] for e, (a, b) in zip(self.terms, pairs)}
        quot: dict[Expo, tuple[int, int, int]] = {}
        while rem:
            e = max(rem)
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise ValueError("not exactly divisible")
            a, b = rem.pop(e)
            # q = (a + b*i)/r / (lc + li*i) = (x + y*i)/d in lowest terms
            x, y, d = a * lc + b * li, b * lc - a * li, r * norm
            g = gcd(x, y, d)
            x, y, d = x // g, y // g, d // g
            quot[diff] = (x, y, d)
            if r % d:
                # q brings in a denominator the remainder lacks (never on an
                # exact division over Z[i]): move the remainder to the lcm
                grown = lcm(r, d)
                k = grown // r
                for s in rem.values():
                    s[0] *= k
                    s[1] *= k
                r = grown
            k = r // d
            x, y = x * k, y * k
            for te, ta, tb in tail:
                expo = tuple(map(add, diff, te))
                re = x * ta - y * tb
                im = x * tb + y * ta
                s = rem.get(expo)
                if s is None:
                    rem[expo] = [-re, -im]
                else:
                    re = s[0] - re
                    im = s[1] - im
                    if re or im:
                        s[0] = re
                        s[1] = im
                    else:
                        del rem[expo]
        return SparsePoly._clean(
            self.num_vars,
            {e: from_ints(x * d_den, y * d_den, d) for e, (x, y, d) in quot.items()})

    def divides(self, other: "SparsePoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    # -- presentation -------------------------------------------------------------

    def sort_key(self):
        """A deterministic total-order key (used for canonical output)."""
        return tuple(sorted((e, str(c)) for e, c in self.terms.items()))

    def to_string(self, names: list[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.num_vars)]
        parts = []
        for expo in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[expo]
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(expo)
                if e
            )
            cs = str(coeff)
            cs = {"1*i": "i", "-1*i": "-i"}.get(cs, cs)
            if mono:
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                else:
                    cs = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                    parts.append(f"{cs}*{mono}")
            else:
                parts.append(f"({cs})" if "+" in cs[1:] or "-" in cs[1:] else cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __str__ = to_string

    def __repr__(self):
        return f"SparsePoly({self.num_vars}, {self})"


# the fewest term pairs a packed product takes.  Below it, the elimination
# benchmark's products of 100-399 pairs ran 1.3 times faster packed in all
# (6 ms of a 0.9 s pass; Python 3.11, 2-vCPU host) and those under 100 ran
# slower, so the dict loop keeps them and its term order; so do all of the
# exset and suite benchmarks' products (at most 231 pairs)
_PACKED_MIN_PAIRS = 400


def _corners(terms) -> tuple[list[int], list[int]]:
    """The least and the greatest exponent of each variable."""
    cols = list(zip(*terms))
    return list(map(min, cols)), list(map(max, cols))


def _largest_part(pairs) -> int:
    return max(map(abs, chain.from_iterable(pairs)))


def _pack(terms, pairs, lo, strides, width: int, half: int, bias: bytes) -> tuple[int, int]:
    """The real and the imaginary parts of one operand as two packed
    integers: the part at exponent e sits in the slot of index
    sum_j (e_j - lo_j) * strides_j, each slot ``width`` bytes and signed."""
    base = sum(map(mul, lo, strides))
    index = [sum(map(mul, e, strides)) - base for e in terms]
    # each slot holds its part plus half, so the bytes are unsigned; the
    # packed bias is then subtracted once, which borrows across the slots
    empty = bias * (max(index) + 1)
    re, im = bytearray(empty), bytearray(empty)
    for i, (a, b) in zip(index, pairs):
        i *= width
        re[i:i + width] = (a + half).to_bytes(width, "little")
        im[i:i + width] = (b + half).to_bytes(width, "little")
    offset = int.from_bytes(empty, "little")
    return int.from_bytes(re, "little") - offset, int.from_bytes(im, "little") - offset


def _packed_product(p: SparsePoly, q: SparsePoly, lo1, lo2, widths) -> SparsePoly:
    """p * q by Kronecker substitution, for operands of two or more terms.

    ``lo1`` and ``lo2`` hold the least exponent of each variable in p and
    in q, and the product's exponents lie in a box from lo1 + lo2 with
    ``widths`` points per variable.

    The box is indexed in mixed radix with the last variable least
    significant, so the index of e1 + e2 is the sum of the indices of e1
    and e2 (each taken from its operand's least corner), and the packed
    integers multiply as the polynomials do.  The terms come out in
    ascending index order, which is ascending exponent order.
    """
    strides = []
    slots = 1
    for w in reversed(widths):
        strides.append(slots)
        slots *= w
    strides.reverse()
    d1, pairs1 = int_pairs(p.terms.values())
    d2, pairs2 = int_pairs(q.terms.values())
    # an output slot sums at most min(n1, n2) products (a1 + b1*i)(a2 + b2*i),
    # and each part of one is at most 2 * M1 * M2 in absolute value, with M1
    # and M2 the largest part of each operand; a slot holds that bound and a
    # sign bit, so no slot wraps
    bound = 2 * min(len(pairs1), len(pairs2)) * _largest_part(pairs1) * _largest_part(pairs2)
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    bias = half.to_bytes(width, "little")
    a1, b1 = _pack(p.terms, pairs1, lo1, strides, width, half, bias)
    a2, b2 = _pack(q.terms, pairs2, lo2, strides, width, half, bias)
    # Gauss's three products: re = k1 - k3 and im = k1 + k2
    k1 = a2 * (a1 + b1)
    k2 = a1 * (b2 - a2)
    k3 = b1 * (a2 + b2)
    size = slots * width
    offset = int.from_bytes(bias * slots, "little")
    re = (k1 - k3 + offset).to_bytes(size, "little")
    im = (k1 + k2 + offset).to_bytes(size, "little")
    d = d1 * d2
    box = product(*(range(l1 + l2, l1 + l2 + w) for l1, l2, w in zip(lo1, lo2, widths)))
    terms = {}
    for expo, i in zip(box, range(0, size, width)):
        a = re[i:i + width]
        b = im[i:i + width]
        if a != bias or b != bias:
            terms[expo] = from_ints(int.from_bytes(a, "little") - half,
                                    int.from_bytes(b, "little") - half, d)
    return SparsePoly._clean(p.num_vars, terms)


_set_num_vars = SparsePoly.num_vars.__set__
_set_terms = SparsePoly.terms.__set__
_set_hash = SparsePoly._hash.__set__
_new = object.__new__
