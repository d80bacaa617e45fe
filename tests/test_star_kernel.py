"""The integer kernel of ``star`` and ``*`` against a naive reference.

The reference is the plain double loop over the (r, s) derivative terms:
Fraction weights (1-lam)^r (-lam)^s / (r! s!), tuple keys, one product per
pair of terms.  It lives only here, so the kernel is checked against code
that shares none of its tricks (flat keys, packed Gaussian parts, scaled
weights).
"""

import math
from fractions import Fraction
from random import Random

import pytest

from moyalbench.backend import Q
from moyalbench.phase import PhasePoly, random_phase_poly, star

LAMBDAS = (Q(0), Q(1, 2), Q(1, 3), Q(17, 64), Q(30, 61), Q(1, 64))
POSITION = PhasePoly({(1, 0, 0): (1, 0), (0, 1, 0): (1, 0)}, 2)  # (a + abar)/2
MOMENTUM = PhasePoly({(1, 0, 0): (0, -1), (0, 1, 0): (0, 1)})  # -i(a - abar)


def _derive(terms, r, s, first, second):
    """first^r then second^s, with first/second = 0 (d_a) or 1 (d_abar)."""
    for axis, times in ((first, r), (second, s)):
        for _ in range(times):
            out = {}
            for key, (re, im) in terms.items():
                e = key[axis]
                if e:
                    k = list(key)
                    k[axis] -= 1
                    out[tuple(k)] = (e * re, e * im)
            terms = out
    return terms


def _pairwise(acc, left, right, shift, m):
    for (i1, j1, d1), (re1, im1) in left.items():
        for (i2, j2, d2), (re2, im2) in right.items():
            key = (i1 + i2, j1 + j2, d1 + d2 + shift)
            r0, m0 = acc.get(key, (0, 0))
            acc[key] = (r0 + (re1 * re2 - im1 * im2) * m,
                        m0 + (re1 * im2 + im1 * re2) * m)


def naive_star(f, g, lam):
    lam = Fraction(lam)
    acc, den = {}, 1
    parts = []
    for r in range(max(f.deg_a, 0) + 1):
        for s in range(max(f.deg_abar, 0) + 1):
            c = (1 - lam) ** r * (-lam) ** s / (math.factorial(r) * math.factorial(s))
            if c:
                parts.append((r, s, c))
                den = den * c.denominator // math.gcd(den, c.denominator)
    for r, s, c in parts:
        left = _derive(f.terms, r, s, 0, 1)
        right = _derive(g.terms, r, s, 1, 0)
        _pairwise(acc, left, right, r + s, c.numerator * (den // c.denominator))
    return PhasePoly(acc, f.den * g.den * den)


def naive_mul(f, g):
    acc = {}
    _pairwise(acc, f.terms, g.terms, 0, 1)
    return PhasePoly(acc, f.den * g.den)


def _same(x, y):
    # equal values with the same normalized storage
    assert x.den == y.den and x.terms == y.terms


def _wide_phase_poly(rng, degree, gauss):
    """random_phase_poly's draw with coefficients in -9..9 instead of -3..3."""
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            re = rng.randint(-9, 9)
            im = rng.randint(-9, 9) if gauss else 0
            if re or im:
                terms[(i, j, 0)] = (re, im)
    return PhasePoly(terms, 1)


def _factors(rng, degree, gauss):
    f = _wide_phase_poly(rng, degree, gauss)
    g = random_phase_poly(rng, degree, gauss=not gauss)
    return f, g


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("gauss", [False, True])
def test_star_matches_reference_up_to_degree_8(lam, gauss):
    rng = Random(f"kernel-{lam}-{gauss}")
    for degree in range(9):
        f, g = _factors(rng, degree, gauss)
        _same(star(f, g, lam), naive_star(f, g, lam))
        _same(star(g, f, lam), naive_star(g, f, lam))


@pytest.mark.parametrize("lam", [Q(0), Q(1, 2), Q(23, 57)])
def test_star_matches_reference_at_degree_12_and_16(lam):
    rng = Random(f"kernel-high-{lam}")
    for degree, gauss in ((12, True), (16, False), (16, True)):
        f, g = _factors(rng, degree, gauss)
        _same(star(f, g, lam), naive_star(f, g, lam))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_star_of_factors_that_carry_hbar(lam):
    rng = Random(f"kernel-hbar-{lam}")
    for degree in (2, 3, 5):
        f, g = _factors(rng, degree, True)
        h = random_phase_poly(rng, degree, gauss=False)
        fg = star(f, g, lam)
        assert fg.hbar_degree > 0
        _same(star(fg, h, lam), naive_star(fg, h, lam))
        _same(star(h, fg, lam), naive_star(h, fg, lam))
        _same(star(fg, fg, lam), naive_star(fg, fg, lam))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_star_with_fractional_zero_and_constant_factors(lam):
    rng = Random(f"kernel-den-{lam}")
    q, p = POSITION, MOMENTUM
    f = random_phase_poly(rng, 5, gauss=True) * Q(5, 6)
    special = (q, p, star(q, p, lam), PhasePoly(), PhasePoly.one(),
               PhasePoly.scalar(Q(-3, 7)), PhasePoly.hbar() * Q(1, 9))
    for x in special:
        for y in (f, q, p, PhasePoly(), PhasePoly.scalar(Q(2, 5))):
            _same(star(x, y, lam), naive_star(x, y, lam))
            _same(star(y, x, lam), naive_star(y, x, lam))


def test_pointwise_product_matches_reference():
    rng = Random("kernel-mul")
    for degree in (0, 1, 3, 6, 16):
        for gauss in (False, True):
            f, g = _factors(rng, degree, gauss)
            fg = star(f, g, Q(1, 3)) * Q(1, 4) if degree < 8 else g
            _same(f * g, naive_mul(f, g))
            _same(fg * f, naive_mul(fg, f))
            _same(POSITION * fg, naive_mul(POSITION, fg))
            _same(f * PhasePoly(), PhasePoly())


def test_large_coefficients_keep_their_gaussian_parts():
    # parts far beyond one machine word, of both signs, stay separated
    big = 10**40
    f = PhasePoly({(2, 1, 0): (big, -big), (0, 3, 1): (-7, big), (1, 1, 0): (3, 0)}, 5)
    g = PhasePoly({(1, 2, 0): (-big, big + 1), (3, 0, 0): (big, 0)}, 3)
    for lam in (Q(0), Q(1, 2), Q(13, 64)):
        _same(star(f, g, lam), naive_star(f, g, lam))
        _same(star(g, f, lam), naive_star(g, f, lam))
    _same(f * g, naive_mul(f, g))
