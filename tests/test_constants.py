import math
from fractions import Fraction

import pytest

from workbench.constants import (
    MonomialFamily,
    binom,
    choose_N,
    choose_b,
    choose_m,
    constants,
    degree_conditions,
    dim_Vt,
    full_profile,
)
from workbench import constants as constants_module
from workbench.errors import InvalidInput

from conftest import count_calls


def bigint_binomial(top, k):
    """Independent multiplicative oracle, no factorial cancellation."""
    if k < 0 or top < k:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= top - i
        den *= i + 1
    assert num % den == 0
    return num // den


def test_profile_2_2_4():
    p = constants(2, 2, 4)
    assert (p.M, p.M_prime, p.c_mnd, p.L) == (11, 4, 8, 7)


def test_profile_identities_against_oracle():
    for n in (2, 3):
        for d in (1, 2):
            for m in (2 * d, 2 * d + 1, 2 * d + 5):
                p = constants(n, d, m)
                M = 2 * bigint_binomial(m + n - d, n) - bigint_binomial(m + n - 2 * d, n)
                c = 2 * bigint_binomial(m + n - d, n + 1) - bigint_binomial(m + n - 2 * d, n + 1)
                assert p.M == M
                assert p.c_mnd == c
                assert p.M_prime == bigint_binomial(m + n, n) - M
                assert p.L == math.ceil(Fraction(M * (M - 1), 2 * c))


def test_boundary_binomial():
    # C(m + n - 2d, n) at m = 2d is C(n, n) = 1
    assert binom(2, 2) == 1
    assert binom(2, 3) == 0
    assert binom(-1, 0) == 0


def test_m_floor_rejected():
    with pytest.raises(InvalidInput):
        constants(2, 2, 3)


def test_choose_m_example():
    assert choose_m(Fraction(1, 2), 2, 1) == 29


def test_choose_m_minimality():
    eps = Fraction(1, 2)
    m = choose_m(eps, 2, 1)
    assert all(degree_conditions(2, 1, m, eps))
    assert not all(degree_conditions(2, 1, m - 1, eps))


def test_choose_m_lower_clamp():
    # the search starts at the floor m = 2d and never goes below it; for
    # n = 2, d = 1 no admissible epsilon < 1 satisfies the conditions at
    # m = 2 (the first condition would need eps >= 16/5), so the clamp is
    # structural rather than observable
    for eps in (Fraction(99, 100), Fraction(1, 2), Fraction(1, 10)):
        assert choose_m(eps, 2, 1) >= 2
    # relaxing epsilon never increases the chosen degree
    ms = [choose_m(Fraction(k, 10), 2, 1) for k in range(1, 10)]
    assert ms == sorted(ms, reverse=True)


def linear_choose_m(eps, n, d):
    """Reference search: the first m >= 2d at which both conditions hold."""
    m = 2 * d
    while not all(degree_conditions(n, d, m, eps)):
        m += 1
    return m


def test_choose_m_equals_the_linear_search(rng):
    for eps in [Fraction(1, 2), Fraction(99, 100)] + [Fraction(k, 10) for k in range(1, 10)]:
        assert choose_m(eps, 2, 1) == linear_choose_m(eps, 2, 1)
    for _ in range(210):
        n, d, q = rng.randrange(2, 5), rng.randrange(1, 4), rng.randrange(2, 12)
        eps = Fraction(rng.randrange(1, q), q)
        assert choose_m(eps, n, d) == linear_choose_m(eps, n, d), (eps, n, d)


def test_choose_m_makes_logarithmically_many_checks(monkeypatch):
    # doubling then bisection: a linear search from m = 2 checks 15,996 degrees
    m = choose_m(Fraction(1, 1000), 2, 1)
    calls = count_calls(monkeypatch, constants_module, "degree_conditions")
    assert choose_m(Fraction(1, 1000), 2, 1) == m
    assert len(calls) <= 64
    assert all(degree_conditions(2, 1, m, Fraction(1, 1000)))
    assert not all(degree_conditions(2, 1, m - 1, Fraction(1, 1000)))


def test_second_condition_identity_n2_d1():
    # m/(n+1) C(m+n, n) - c - M'm vanishes identically for n=2, d=1
    for m in range(2, 51):
        p = constants(2, 1, m)
        lhs = Fraction(m, 3) * binom(m + 2, 2) - p.c_mnd - p.M_prime * m
        assert lhs == 0
        assert p.M_prime == 1
        assert p.M == Fraction(m * (m + 3), 2)


def brute_force_dim(vectors, t):
    """Independent sumset oracle: enumerate all t-fold products."""
    sums = {tuple(0 for _ in vectors[0])} if vectors else {()}
    width = len(vectors[0])
    sums = {(0,) * width}
    for _ in range(t):
        sums = {tuple(a + b for a, b in zip(s, v)) for s in sums for v in vectors}
    return len(sums)


def test_dim_examples():
    const = MonomialFamily(((0, 0, 0),))
    assert dim_Vt(const, 5) == 1
    one_gen = MonomialFamily(((0,), (1,)))
    assert dim_Vt(one_gen, 7) == 8
    simplex = MonomialFamily(((0, 0), (1, 0), (0, 1)))
    assert dim_Vt(simplex, 2) == 6


def test_dim_against_brute_force(rng):
    # >= 200 cases, families with <= 4 generators, t <= 8
    cases = 0
    while cases < 210:
        g = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        vectors = {(0,) * g}
        for _ in range(k):
            vectors.add(tuple(rng.randrange(0, 3) for _ in range(g)))
        fam = MonomialFamily(tuple(vectors))
        t = rng.randrange(0, 9)
        assert dim_Vt(fam, t) == brute_force_dim(sorted(vectors), t)
        cases += 1


def test_dim_monotone_in_t(rng):
    fam = MonomialFamily(((0, 0), (2, 1), (1, 2)))
    dims = [dim_Vt(fam, t) for t in range(9)]
    assert dims == sorted(dims)


def test_choose_b_examples():
    const = MonomialFamily(((0,),))
    assert choose_b(Fraction(1, 2), 4, 2, const, 11) == (1, 1, 1)
    one_gen = MonomialFamily(((0,), (1,)))
    b, w, u = choose_b(Fraction(1, 2), 4, 2, one_gen, 11)
    # w/u = (11b+1)/(11b-10); smallest b with w/u - 1 <= 1/64
    assert (b, w, u) == (65, 716, 705)
    assert Fraction(w, u) - 1 <= Fraction(1, 64)
    assert Fraction(11 * (b - 1) + 1, 11 * (b - 1) - 10) - 1 > Fraction(1, 64)


def test_choose_b_simplex():
    simplex = MonomialFamily(((0, 0), (1, 0), (0, 1)))
    m = choose_m(Fraction(1, 2), 2, 1)
    M = constants(2, 1, m).M
    b, w, u = choose_b(Fraction(1, 2), m, 2, simplex, M)
    assert w == binom(M * b + 2, 2) and u == binom(M * b - M + 2, 2)
    assert Fraction(w, u) - 1 <= Fraction(1, 2) / (4 * m * 2)


def test_choose_b_walks_one_growing_sumset(monkeypatch):
    # every count of a sumset starts from the family's reduced vectors; one
    # walk reads them once (and is_simplex once), a recount per b reads them
    # again for every b, so the budget stops a quadratic search at once
    reads = []
    real = MonomialFamily.reduced_vectors

    def budgeted(self):
        reads.append(self)
        assert len(reads) <= 4, "sumset counted again"
        return real(self)

    monkeypatch.setattr(MonomialFamily, "reduced_vectors", budgeted)
    fam = MonomialFamily(((0,), (1,), (3,)))
    # the t-fold sums of {0, 1, 3} are 0..3t except 3t - 1, so |V(t)| = 3t for
    # t >= 2 and the ratio is b/(b - 1), as for the simplex {0, 1}
    assert choose_b(Fraction(1, 2), 29, 2, fam, 464) == (465, 3 * 464 * 465, 3 * 464 * 464)


@pytest.mark.parametrize("vectors, b", [
    (((0, 0), (2, 0)), 465),
    (((0, 0), (2, 0), (0, 3)), 930),
], ids=["one-generator", "two-generators"])
def test_a_free_family_answers_in_closed_form(monkeypatch, vectors, b):
    # independent reduced vectors: |V(t)| = C(t + g, g), and no sumset is walked
    def walked(fam):
        raise AssertionError("sumset walked")

    monkeypatch.setattr(constants_module, "_sumset_sizes", walked)
    fam = MonomialFamily(vectors)
    assert fam.is_simplex()
    assert full_profile(Fraction(1, 2), 2, 1, fam).b == b


def test_independence_is_a_rank_test():
    free = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    # no two vectors are parallel, but the last is the sum of the first two
    dependent = ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 2, 1))
    assert MonomialFamily(free).is_simplex()
    assert not MonomialFamily(dependent).is_simplex()
    for t in range(5):
        assert dim_Vt(MonomialFamily(free), t) == brute_force_dim(sorted(free), t) == binom(t + 3, 3)


def test_a_dependent_family_walks_its_sumset(monkeypatch):
    calls = count_calls(monkeypatch, constants_module, "_sumset_sizes")
    fam = MonomialFamily(((0, 0), (1, 0), (2, 0)))
    assert not fam.is_simplex()
    # the t-fold sums of {0, 1, 2} are 0..2t, so |V(t)| = 2t + 1 and the least
    # b with 22/(22b - 21) <= 1/64 is 65
    assert choose_b(Fraction(1, 2), 4, 2, fam, 11) == (65, 2 * 11 * 65 + 1, 2 * 11 * 64 + 1)
    assert len(calls) == 1


def test_choose_N():
    n, m = 2, 29
    prof = constants(2, 1, m)
    N = choose_N(Fraction(1, 2), n, m, 7, prof.M, Fraction(0))
    # exact integral value: strictly greater means +1
    assert N == 4 * 3 * 29 * 7 * 2 + 1
    # c3 = 0 edge: floor formula
    assert N == math.floor(4 * (3 * 29 * 7) / 0.5) + 1
    # doubling eps roughly halves N
    N2 = choose_N(Fraction(1, 4), n, m, 7, prof.M, Fraction(0))
    assert N2 == 2 * (N - 1) + 1


def test_full_profile_pipeline():
    fam = MonomialFamily(((0,), (1,)))
    prof = full_profile(Fraction(1, 2), 2, 1, fam, Fraction(0))
    assert prof.m == 29 and prof.b is not None and prof.N_threshold is not None
    d = prof.as_dict()
    assert d["eps"] == "1/2" and "N_threshold" in d
