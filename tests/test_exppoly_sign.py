"""Exact signs of mixed-rate exponential polynomials against the interval oracle.

``ExpPoly.sign_at`` forms the exact parts on ints over one denominator and
bounds each exp(-r*mu) with directed rounding, starting at the precision the
argument's denominator calls for.  ``test_poly_kernel.ref_sign_at`` is the
method it replaced: Fraction parts and mpmath interval arithmetic on the
fixed 64...4096-bit ladder.  Every sign here must agree with it.  The
near-cancelling cases put the value below the rounding error of the lower
rungs, so bounds rounded the wrong way for a negative part give a wrong sign.
"""

from fractions import Fraction
from random import Random

import mpmath
import pytest

from moyalbench.exppoly import ExpPoly
from moyalbench.poly import Poly
from moyalbench.spectral import projector_closed

from test_poly_kernel import RefPoly, ref_projector, ref_sign_at


def _form(terms):
    return ExpPoly([(Poly(p.coeffs), r) for r, p in terms])


def _bisection_points(form, bits):
    """Every point a bisection of form's first sign change to 2^-bits asks."""
    s0, lo, hi = form.sign_at(0), Fraction(0), Fraction(1)
    points = [Fraction(0), hi]
    while form.sign_at(hi) == s0:
        lo, hi = hi, 2 * hi
        points.append(hi)
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        points.append(mid)
        s = form.sign_at(mid)
        if s == 0:
            break
        lo, hi = (mid, hi) if s == s0 else (lo, mid)
    return points


def _projector_pairs(seed, count):
    rng = Random(seed)
    out = []
    while len(out) < count:
        n = len(out) % 4
        l1, l2 = sorted(Fraction(rng.randint(1, q // 2), q)
                        for q in (rng.randint(33, 64), rng.randint(33, 64)))
        if l1 != l2:
            out.append((n, l1, l2))
    return out


@pytest.mark.parametrize("n,l1,l2", _projector_pairs(7, 8))
def test_bisection_points_match_the_interval_oracle(n, l1, l2):
    form = projector_closed(n, l1).form - projector_closed(n, l2).form
    r1, p1 = ref_projector(n, l1)
    r2, p2 = ref_projector(n, l2)
    terms = [(r1, p1), (r2, RefPoly([-c for c in p2.coeffs]))]
    points = _bisection_points(form, 300)
    assert len(points) > 300
    for x in points:
        assert form.sign_at(x) == ref_sign_at(terms, x), x


def _random_terms(rng, rates):
    terms = []
    for r in rates:
        bits = rng.choice((3, 20, 60))
        coeffs = [Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
                  for _ in range(rng.randint(1, 5))]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        terms.append((r, RefPoly(coeffs)))
    return terms


def _rates(rng, k):
    rates = set()
    while len(rates) < k:
        rates.add(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
    return sorted(rates)


@pytest.mark.parametrize("seed", range(12))
def test_three_and_four_rate_forms_match_the_interval_oracle(seed):
    rng = Random(seed)
    terms = _random_terms(rng, _rates(rng, 3 + seed % 2))
    form = _form(terms)
    dyadic = [Fraction(rng.randint(1, 2**(m + 4)), 2**m) for m in (0, 3, 40, 300)]
    other = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(4)]
    other += [Fraction(rng.randint(1, 2**200), 3**rng.randint(50, 130)) for _ in range(2)]
    for x in dyadic + other:
        assert form.sign_at(x) == ref_sign_at(terms, x), x


def _near_cancelling(x, fast, slow, k, above):
    """e^(-r x) for r in fast, minus a linear part at rate slow whose value
    at x is sum e^((slow - r) x) rounded to 2^-k, down or up: the exact sign
    is +1 or -1 and the value is about 2^-k e^(-slow x)."""
    with mpmath.workprec(k + 200):
        target = sum(mpmath.exp(mpmath.mpf(e.numerator) / e.denominator)
                     for e in ((slow - r) * x for r in fast))
        c = Fraction(int(mpmath.floor(target * 2**k)) + above, 2**k)
    d = Fraction(3, 7)
    terms = [(r, RefPoly([1])) for r in fast]
    terms.append((slow, RefPoly([-(c - d * x), -d])))
    return terms, -1 if above else 1


NEAR_CASES = [
    (x, fast, slow, k, above)
    for x in (Fraction(1), Fraction(3, 7), Fraction(5, 2**20))
    for fast, slow in (((Fraction(1),), Fraction(2)),
                       ((Fraction(1, 3), Fraction(5, 2)), Fraction(7, 4)),
                       ((Fraction(1, 2), Fraction(2), Fraction(9, 4)), Fraction(3)))
    for k in (150, 400)
    for above in (0, 1)
]


@pytest.mark.parametrize("x,fast,slow,k,above", NEAR_CASES)
def test_near_cancelling_parts_match_the_interval_oracle(x, fast, slow, k, above):
    terms, sign = _near_cancelling(x, fast, slow, k, above)
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == sign


def test_cancelling_parts_at_zero_are_an_exact_zero():
    terms = [(Fraction(1), RefPoly([2, 5])), (Fraction(3), RefPoly([Fraction(-1, 3), 1])),
             (Fraction(7, 2), RefPoly([Fraction(-5, 3), -4]))]
    assert _form(terms).sign_at(0) == ref_sign_at(terms, Fraction(0)) == 0
    terms[0] = (Fraction(1), RefPoly([Fraction(5, 2), 5]))
    assert _form(terms).sign_at(0) == ref_sign_at(terms, Fraction(0)) == 1


@pytest.mark.parametrize("above", [0, 1])
def test_coefficient_within_2_to_the_minus_1000_of_e(above):
    # e^-1 - c e^-2 at 1: the value is (e - c) e^-2, below 2^-1000
    terms, sign = _near_cancelling(Fraction(1), (Fraction(1),), Fraction(2), 1000, above)
    assert _form(terms).sign_at(Fraction(1)) == ref_sign_at(terms, Fraction(1)) == sign


@pytest.mark.parametrize("side", [0, 1])
def test_argument_with_a_denominator_above_4032_bits(side):
    # e^-x - 2 e^-2x vanishes at ln 2; x is within 3^-2550 < 2^-4041 of it
    q = 3**2550
    assert q.bit_length() > 4032
    with mpmath.workprec(4300):
        a = int(mpmath.floor(mpmath.log(2) * q)) + side
    x = Fraction(a, q)
    terms = [(Fraction(1), RefPoly([1])), (Fraction(2), RefPoly([-2]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == (1 if side else -1)


@pytest.mark.parametrize("x", [Fraction(2**100), Fraction(3**80, 7)])
def test_far_argument_with_exponents_spread_over_2_to_the_100_bits(x):
    # the two bounds differ in binary exponent by about 2^100: the terms far
    # below the largest are bounded, not shifted into one int
    terms = [(Fraction(1), RefPoly([-1, 1])), (Fraction(2), RefPoly([-5]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == 1
    terms = [(Fraction(3, 2), RefPoly([1])), (Fraction(1, 2), RefPoly([0, -1]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == -1
