"""Division, gcd, and resultant machinery for exact sparse polynomials.

Everything here is fraction-free: pseudo-division plus the subresultant
sequence keep all intermediate values inside the coefficient domain.  One
subresultant PRS serves both the gcd (its last nonzero element) and the
resultant (its degree-zero element).  The resultant sign convention is fixed
once and for all as the determinant of the Sylvester matrix with the rows of
the first argument on top.
"""

from __future__ import annotations

from ..errors import InvalidInput
from .gaussrat import GaussRat
from .poly import SparsePoly


# ---------------------------------------------------------------------------
# pseudo-division
# ---------------------------------------------------------------------------

def pseudo_rem(f: SparsePoly, g: SparsePoly, var: int) -> SparsePoly:
    """Pseudo-remainder of f by g with respect to one variable.

    Satisfies lc(g)^(deg f - deg g + 1) * f = q*g + rem with deg_var rem <
    deg_var g, entirely within the coefficient domain.  The exponent is the
    classical one even when sparse cancellation skips degrees (the missing
    leading-coefficient factors are topped up), which the subresultant
    divisions rely on.
    """
    return _pseudo_divmod(f, g, var)[1]


def _pseudo_divmod(f: SparsePoly, g: SparsePoly, var: int, quotient: bool = False):
    """``(q, rem)`` of ``pseudo_rem``; q is built only when ``quotient`` is set
    (None otherwise), so the remainder-only runs pay nothing for it."""
    dg = g.degree_in(var)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    df = f.degree_in(var)
    n = f.num_vars
    lc = g.leading_coeff_in(var)
    g_tail = SparsePoly._clean(n, {ex: c for ex, c in g.terms.items() if ex[var] < dg})
    rem = f
    q = SparsePoly.zero(n) if quotient else None
    e = 0
    # lc*rem - lead*x^k*g without its leading part, which cancels exactly:
    # body*lc - x^k*(lead*g_tail), with rem = lead*x^dr + body
    while rem and (dr := rem.degree_in(var)) >= dg:
        lead, body = {}, {}
        for ex, c in rem.terms.items():
            if ex[var] == dr:
                lead[ex[:var] + (0,) + ex[var + 1:]] = c
            else:
                body[ex] = c
        step = SparsePoly._clean(n, lead) * g_tail
        k = dr - dg
        shifted = SparsePoly._clean(
            n, {ex[:var] + (ex[var] + k,) + ex[var + 1:]: c for ex, c in step.terms.items()})
        rem = SparsePoly._clean(n, body) * lc - shifted
        if quotient:
            # lc^e*f = q*g + rem turns into lc^(e+1)*f = (lc*q + lead*x^k)*g + rem
            q = q * lc + SparsePoly._clean(
                n, {ex[:var] + (k,) + ex[var + 1:]: c for ex, c in lead.items()})
        e += 1
    if df >= dg and e < df - dg + 1:
        top = lc ** (df - dg + 1 - e)
        rem = rem * top
        if quotient:
            q = q * top
    return q, rem


# ---------------------------------------------------------------------------
# gcd via content/primitive-part recursion + subresultant PRS
# ---------------------------------------------------------------------------

def _occurring_vars(*polys: SparsePoly) -> list[int]:
    n = polys[0].num_vars
    return [v for v in range(n) if any(p.degree_in(v) > 0 for p in polys)]


def canonical_scale(p: SparsePoly) -> SparsePoly:
    """Scale by 1/lead so the lexicographically leading coefficient is 1."""
    if not p:
        return p
    return p.scale(GaussRat(1) / p.terms[max(p.terms)])


def content_in(p: SparsePoly, var: int) -> SparsePoly:
    """gcd of the coefficients of p viewed in ``var`` (a var-free polynomial);
    the content of the zero polynomial is zero."""
    coeffs = [c for c in p.coeffs_in(var) if c]
    return gcd_many(coeffs) if coeffs else p


def primitive_part_in(p: SparsePoly, var: int) -> SparsePoly:
    if not p:
        return p
    c = content_in(p, var)
    if c.is_constant():
        return canonical_scale(p)
    return canonical_scale(p.exact_div(c))


def _subresultant_prs(f: SparsePoly, g: SparsePoly, var: int, cofactors: bool = False):
    """Subresultant PRS of f, g in ``var`` by Cohen's (g, h) recurrence.

    Inputs must satisfy deg f >= deg g >= 1.  The run stops at the first
    zero remainder or degree-zero element and returns ``(last, prev, h,
    sign)``: the last nonzero element, the element before it, the
    subresultant scale h reached with ``last``, and the product of
    (-1)^(deg a * deg b) over the pseudo-divisions prem(a, b) taken.

    With ``cofactors`` set it returns ``(last, a, b)`` with last = a*f + b*g
    instead (the extended subresultant algorithm; Brown, JACM 18(4), 1971).
    Each cofactor pair is divided by the same lead * h^delta as the
    remainder, which keeps it in the coefficient domain.
    """
    one = SparsePoly.one(f.num_vars)
    lead, h, sign = one, one, 1
    if cofactors:
        zero = SparsePoly.zero(f.num_vars)
        (a0, b0), (a1, b1) = (one, zero), (zero, one)
    while True:
        da, db = f.degree_in(var), g.degree_in(var)
        if db == 0:
            return (g, a1, b1) if cofactors else (g, f, h, sign)
        if da % 2 and db % 2:
            sign = -sign
        q, rem = _pseudo_divmod(f, g, var, quotient=cofactors)
        if not rem:
            return (g, a1, b1) if cofactors else (g, f, h, sign)
        delta = da - db
        scale = lead * h**delta
        if cofactors:
            # lc^(delta+1) * f = q*g + rem, so rem has cofactors lc^(delta+1)*(a0, b0) - q*(a1, b1)
            lc_pow = g.leading_coeff_in(var) ** (delta + 1)
            (a0, b0), (a1, b1) = (a1, b1), ((a0 * lc_pow - q * a1).exact_div(scale),
                                            (b0 * lc_pow - q * b1).exact_div(scale))
        f, g = g, rem.exact_div(scale)
        lead = f.leading_coeff_in(var)
        if delta == 1:
            h = lead
        elif delta > 1:
            h = (lead**delta).exact_div(h ** (delta - 1))


def gcd_poly(f: SparsePoly, g: SparsePoly, main_var: int | None = None) -> SparsePoly:
    """A gcd of two exact polynomials, canonically scaled.

    The result is primitive in the main variable; it is a constant (the
    polynomial 1) exactly when f and g are coprime over the fraction field
    of the remaining variables.
    """
    if not f and not g:
        return SparsePoly.zero(f.num_vars)
    if not f:
        return canonical_scale(g)
    if not g:
        return canonical_scale(f)
    occ = _occurring_vars(f, g)
    if not occ:
        return SparsePoly.one(f.num_vars)
    if main_var is None or main_var not in occ:
        main_var = occ[0]
    if f.degree_in(main_var) == 0 or g.degree_in(main_var) == 0:
        # one input is free of the main variable: gcd divides both contents
        cf = f if f.degree_in(main_var) == 0 else content_in(f, main_var)
        cg = g if g.degree_in(main_var) == 0 else content_in(g, main_var)
        return gcd_poly(cf, cg)
    cf, cg = content_in(f, main_var), content_in(g, main_var)
    pf = f.exact_div(cf) if not cf.is_constant() else f
    pg = g.exact_div(cg) if not cg.is_constant() else g
    cont = gcd_poly(cf, cg)
    if pf.degree_in(main_var) < pg.degree_in(main_var):
        pf, pg = pg, pf
    last = _subresultant_prs(pf, pg, main_var)[0]
    if last.degree_in(main_var) == 0:
        return canonical_scale(cont)
    return canonical_scale(cont * primitive_part_in(last, main_var))


def gcd_many(polys: list[SparsePoly]) -> SparsePoly:
    if not polys:
        raise ValueError("gcd of empty list")
    acc = polys[0]
    for p in polys[1:]:
        if acc.is_constant() and acc:
            break
        acc = gcd_poly(acc, p)
    return canonical_scale(acc)


def _repeated_part(p: SparsePoly) -> SparsePoly:
    """gcd of p with each of its partial derivatives: in characteristic zero
    the product of q^(m-1) over the factors q^m of p, up to a constant."""
    g = p
    for v in _occurring_vars(p):
        if g.is_constant():
            break
        g = gcd_poly(g, p.partial_derivative(v))
    return g


def is_squarefree(p: SparsePoly) -> bool:
    """True when p has no repeated factor (characteristic zero test)."""
    return _repeated_part(p).is_constant()


def monomial_variables(p: SparsePoly) -> list[int]:
    """Variables that divide p (i.e. appear in every term)."""
    return [v for v in range(p.num_vars) if p and p.min_degree_in(v) >= 1]


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def resultant(f: SparsePoly, g: SparsePoly, var: int) -> SparsePoly:
    """Resultant of f and g with respect to one variable.

    Read off the degree-zero element of the subresultant PRS, with the sign
    of the Sylvester determinant whose rows of f come first.  The result is
    a polynomial in the remaining variables (with ``var`` no longer
    occurring); it is zero exactly when f and g share a factor of positive
    degree in ``var``.  Degree-zero inputs follow the leading-power
    convention Res(c, g) = c^deg(g).
    """
    if not f and not g:
        raise InvalidInput("resultant requires inputs not both zero")
    if not f or not g:
        return SparsePoly.zero(f.num_vars)
    n, m = f.degree_in(var), g.degree_in(var)
    if n == 0 and m == 0:
        return SparsePoly.one(f.num_vars)
    if n == 0:
        return f**m
    if m == 0:
        return g**n
    sign = 1
    if n < m:
        f, g, sign = g, f, (-1) ** (n * m)
    last, prev, h, prs_sign = _subresultant_prs(f, g, var)
    if last.degree_in(var) > 0:
        return SparsePoly.zero(f.num_vars)
    d = prev.degree_in(var)
    res = last**d if d == 1 else (last**d).exact_div(h ** (d - 1))
    return res if sign * prs_sign > 0 else -res
