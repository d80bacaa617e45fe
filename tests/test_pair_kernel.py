"""Pairings integral f g dmu, and exp_integral itself, run on one int kernel,
the signed binomial products on an int matmul.  The rational code they
replaced is kept here as the reference they must reproduce exactly: the old
per-rate exp_integral of a product form, sums of Fractions, and generator
sums over matrix indices."""

import math
from fractions import Fraction
from random import Random

import pytest

from moyalbench import observables as obs, uncertainty as unc
from moyalbench.backend import Q, ZERO, qbinom, qfact
from moyalbench.exppoly import ExpPoly, _pair, _pair_rows, exp_integral
from moyalbench.laguerre import (
    basis_matrix,
    binomial_tail_identity,
    laguerre,
    matmul,
    mixed_orthogonality,
)
from moyalbench.phase import hamiltonian, star
from moyalbench.poly import Poly, _homogeneous


# -- the reference: product forms and Fractions ----------------------------------

def exp_integral_reference(f):
    """sum c_k k!/r^(k+1) per rate, by Horner over den * s^(d+1), r = s/t."""
    total = ZERO
    for r, p in f.terms.items():
        s, t = r.numerator, r.denominator
        weighted = [n * math.factorial(k) for k, n in enumerate(p.nums)]
        total += Fraction(t * _homogeneous(weighted, t, s), p.den * s ** (p.degree + 1))
    return total


def pair_reference(f, g):
    return exp_integral_reference(f * g)


def matmul_reference(a, b):
    size = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def mixed_orthogonality_reference(m, n, lam):
    integrand = laguerre(m).scale_arg(Q(1) - lam) * laguerre(n)
    return exp_integral_reference(ExpPoly.single(integrand, 1))


def basis_inversion_reference(lam, size):
    n1 = size + 1
    p, q = lam.numerator, lam.denominator
    m = [obs.binomial_weights(k, lam) + [ZERO] * (size - k) for k in range(n1)]
    inv = [
        [Q(math.comb(i, j) * (p - q) ** (i - j) * q**j, p**i) for j in range(i + 1)]
        + [ZERO] * (size - i)
        for i in range(n1)
    ]
    prod_ok = all(
        sum((m[i][t] * inv[t][j] for t in range(n1)), ZERO)
        == (Q(1) if i == j else ZERO)
        for i in range(n1)
        for j in range(n1)
    )
    negatives = any(c < 0 for row in inv for c in row)
    return obs.BasisInversion(
        matrix=tuple(tuple(r) for r in m),
        inverse=tuple(tuple(r) for r in inv),
        identity_ok=prod_ok,
        has_negative_entries=negatives,
    )


def binomial_tail_reference(n, terms):
    half = Q(1, 2)
    partial = sum((half ** (n + k) * qbinom(n + k, k) for k in range(terms + 1)), ZERO)
    remainder = half ** (n + terms) * sum(
        (qbinom(n + terms + 1, j) for j in range(n + 1)), ZERO
    )
    return partial, remainder, partial + remainder


def basic_distribution_reference(k, lam):
    poly = Poly((0,) * k + (Q(1) / (lam ** (k + 1) * qfact(k)),))
    return ExpPoly.single(poly, Q(1) / lam)


# -- seeded inputs -----------------------------------------------------------------

def random_poly(rng, max_degree=15):
    """Up to max_degree, each coefficient zero about a third of the time, over
    a denominator of its own."""
    deg = rng.randint(0, max_degree)
    den = rng.choice([1, 2, 3, 7, 12, 35, 64, 10**6 + 3])
    return Poly([Q(rng.randint(-9, 9) * rng.choice([0, 1, 1]), den)
                 for _ in range(deg + 1)])


def random_form(rng, rates=3):
    terms = [(random_poly(rng), Q(rng.randint(1, 40), rng.randint(1, 40)))
             for _ in range(rng.randint(0, rates))]
    return ExpPoly(terms)


LAMS = [Q(p, q) for q in (2, 3, 4, 7, 16, 63, 64) for p in (1, q // 2, q - 1)
        if math.gcd(p, q) == 1]


# -- the pairing -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_pair_equals_integral_of_product(seed):
    rng = Random(seed)
    f, g = random_form(rng), random_form(rng)
    assert _pair(f, g) == pair_reference(f, g)
    assert _pair(g, f) == pair_reference(f, g)
    assert exp_integral(f * g) == pair_reference(f, g)
    assert exp_integral(f) == exp_integral_reference(f)


def test_pair_reaches_degree_30_with_shared_rates():
    rng = Random(7)
    for _ in range(10):
        p, q = (Poly([Q(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(15)]
                     + [Q(rng.randint(1, 9), rng.randint(1, 30))]) for _ in range(2))
        r = Q(rng.randint(1, 9), rng.randint(1, 9))
        f = ExpPoly([(p, r), (q, r + 1)])
        g = ExpPoly([(q, 2 * r), (p, 1)])
        assert p.degree + q.degree == 30
        assert _pair(f, g) == pair_reference(f, g)


def test_pair_of_zero_parts_is_zero():
    x = Poly([Q(0), Q(1)])
    assert _pair_rows(Poly(), x, Q(1)) == 0
    assert _pair_rows(x, Poly(), Q(3, 2)) == 0
    assert _pair(ExpPoly.zero(), ExpPoly.single(x, 1)) == 0
    assert _pair(ExpPoly.single(x, 1), ExpPoly.zero()) == 0


def test_pair_rows_is_the_gamma_moment():
    # integral mu^k exp(-c mu) = k!/c^(k+1), split across the two rows
    for k in range(12):
        for c in (Q(1), Q(3, 7), Q(5, 2)):
            for i in range(k + 1):
                v = _pair_rows(Poly.monomial(i), Poly.monomial(k - i), c)
                assert v == Fraction(math.factorial(k)) / c ** (k + 1)


# -- its callers against the product forms -----------------------------------------

@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_mixed_orthogonality_matches_the_fraction_path(lam):
    for m in range(17):
        for n in range(17):
            assert mixed_orthogonality(m, n, lam) == mixed_orthogonality_reference(m, n, lam)


@pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 3), Q(2, 5)], ids=str)
def test_duality_gram_matches_the_product_forms(lam):
    from moyalbench.spectral import projector_closed
    gram = obs.duality_gram(6, lam)
    for n in range(7):
        for m in range(7):
            a = projector_closed(n, lam).form
            b = projector_closed(m, 1 - lam).form
            assert gram[n][m] == pair_reference(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_fourier_laguerre_matches_the_product_forms(seed):
    from moyalbench.spectral import projector_closed
    rng = Random(100 + seed)
    lam = rng.choice(LAMS)
    p = random_form(rng, rates=2)
    coeffs = obs.fourier_laguerre(p, lam, 5)
    assert coeffs == tuple(pair_reference(projector_closed(n, lam).form, p)
                           for n in range(6))


@pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 2), Q(5, 9)], ids=str)
def test_star_square_integral_matches_the_product_form(lam):
    hh = star(hamiltonian(), hamiltonian(), lam)
    coeffs = [ZERO, ZERO, ZERO]
    for (i, _, _), (re, _) in hh.terms.items():
        coeffs[i] += Q(re, hh.den)
    quadratic = unc.radial_square(lam)
    assert quadratic.coeffs == tuple(coeffs)
    for k in (0, 1, 7, 30):
        value = unc.radial_square_moment(k, lam, quadratic)
        expect = exp_integral_reference(basic_distribution_reference(k, lam) * Poly(coeffs))
        assert value == expect == unc.quantum_moments(k, lam)[1]


@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_basic_distribution_matches_the_fraction_path(lam):
    for k in (0, 1, 5, 50):
        assert obs.basic_distribution(k, lam) == basic_distribution_reference(k, lam)


def test_monomial_matches_the_fraction_row():
    for k in (0, 1, 9):
        for c in (Q(1), Q(-3, 4), 5, Q(0)):
            assert Poly.monomial(k, c) == Poly((0,) * k + (Q(c),))


# -- the int matrices ----------------------------------------------------------------

@pytest.mark.parametrize("size", [0, 1, 2, 5, 16, 33])
def test_matmul_matches_the_generator_sum(size):
    rng = Random(size)
    a = [[rng.randint(-50, 50) for _ in range(size)] for _ in range(size)]
    b = [[Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(size)]
         for _ in range(size)]
    assert matmul(a, b) == matmul_reference(a, b)
    sign = basis_matrix(size)
    assert matmul(sign, sign) == matmul_reference(sign, sign)


@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_basis_inversion_matches_the_fraction_path(lam):
    for size in (0, 1, 2, 7, 16):
        assert obs.basis_inversion(lam, size) == basis_inversion_reference(lam, size)


def test_binomial_tail_matches_the_fraction_sums():
    for n in range(11):
        for terms in (0, 1, 5, 80):
            got = binomial_tail_identity(n, terms)
            assert got == binomial_tail_reference(n, terms)
            assert got[2] == 2

