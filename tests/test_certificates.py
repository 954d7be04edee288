import random

import pytest

from workbench.algebra.certificates import nullstellensatz_certificate
from workbench.algebra.euclid import gcd_poly
from workbench.algebra.gaussrat import GaussRat
from workbench.errors import CoprimalityError

from conftest import random_poly, variables


def test_coordinate_forms():
    Z, U = variables(2)
    cert = nullstellensatz_certificate(Z, U)
    assert cert.s == 1
    assert cert.R == GaussRat(1)
    assert cert.verify(Z, U)


def test_quadric_times_product():
    Z, U = variables(2)
    F = Z**2 + U**2
    G = Z * U
    cert = nullstellensatz_certificate(F, G)
    assert cert.R  # nonzero constant
    assert cert.R.is_constant()
    assert cert.verify(F, G)


def test_common_factor_raises():
    Z, U = variables(2)
    with pytest.raises(CoprimalityError):
        nullstellensatz_certificate(Z**2, Z * U)
    with pytest.raises(CoprimalityError):
        nullstellensatz_certificate((Z + U) ** 2, (Z + U) * Z)


def _random_coprime_pair(rng):
    Z, U = variables(2)
    while True:
        dF = rng.randrange(1, 4)
        dG = rng.randrange(1, 4)
        F = random_poly(rng, 2, 0, max_terms=4, coeff_range=4, homogeneous_degree=dF)
        G = random_poly(rng, 2, 0, max_terms=4, coeff_range=4, homogeneous_degree=dG)
        if not F or not G:
            continue
        if gcd_poly(F, G, 0).is_constant():
            return F, G


def test_randomized_certificates_verify(rng):
    # >= 50 randomized coprime pairs, verified by exact expansion
    for _ in range(60):
        F, G = _random_coprime_pair(rng)
        cert = nullstellensatz_certificate(F, G)
        assert cert.verify(F, G)
        assert cert.R


def test_nested_coefficient_ring():
    # forms over A = Q(i)[lam, lam', s], as polynomials in (Z, U, lam, lam', s):
    # B-tilde = U^2 + (1 + lam^2) Z^2 and its operator image 2 lam lam' Z^2 + 2 s U^2
    Z, U, lam, lamp, s = variables(5)
    F = U**2 + (1 + lam**2) * Z**2
    G = 2 * lam * lamp * Z**2 + 2 * s * U**2
    cert = nullstellensatz_certificate(F, G)
    assert cert.verify(F, G)
    assert cert.R
    # R lies in A: free of Z and U
    assert cert.R.degree_in(0) == cert.R.degree_in(1) == 0
    assert not cert.R.is_constant()


def test_refuses_forms_not_homogeneous_in_Z_U():
    Z, U, lam = variables(3)
    with pytest.raises(ValueError):
        nullstellensatz_certificate(Z**2 + lam * U, U**2)
    with pytest.raises(ValueError):
        nullstellensatz_certificate(U**2, Z**2 + lam * U)
    # unequal variable counts
    with pytest.raises(ValueError):
        nullstellensatz_certificate(Z**2 + U**2, variables(2)[0] * variables(2)[1])


def test_certificate_R_stays_small(rng):
    # the subresultant scaling keeps R near resultant size: on 40 coprime
    # pairs of degree 5-8 its largest part needs at most 128 bits (an
    # unscaled pseudo-Euclid reaches about 1,400 bits on the same pairs)
    pairs = []
    while len(pairs) < 40:
        dF, dG = rng.randrange(5, 9), rng.randrange(5, 9)
        F = random_poly(rng, 2, 0, coeff_range=6, homogeneous_degree=dF)
        G = random_poly(rng, 2, 0, coeff_range=6, homogeneous_degree=dG)
        if gcd_poly(F, G, 0).is_constant():
            pairs.append((F, G))
    for F, G in pairs:
        R = nullstellensatz_certificate(F, G).R.constant_value()
        parts = (R.re.numerator, R.im.numerator, R.re.denominator, R.im.denominator)
        assert max(abs(p) for p in parts).bit_length() <= 128
