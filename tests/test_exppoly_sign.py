"""Exact signs of mixed-rate exponential polynomials against the interval oracle.

``ExpPoly.sign_at`` forms the exact parts on ints over one denominator and
brackets each exp(-r*mu), starting at the precision the argument's
denominator calls for: the exponent is cut to a dyadic rational, and its exp
is a cached exp of the cut's leading 64 fractional bits, rounded down by
mpmath, times a short Taylor sum of the rest on ints.
``test_poly_kernel.ref_sign_at`` is the method it replaced: Fraction parts
and mpmath interval arithmetic on the fixed 64...4096-bit ladder.  Every sign
here must agree with it.  The near-cancelling cases put the value below the
rounding error of the lower rungs, so bounds rounded the wrong way for a
negative part give a wrong sign.  The brackets themselves are measured
against 4096-bit and wider mpmath values, from a cold and a warm cache.
"""

from fractions import Fraction
from random import Random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

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


def _wide_ref_sign_at(terms, x):
    """ref_sign_at's outward-rounded interval sum on a ladder that goes on
    past 4096 bits, for values below its reach."""
    ctx = mpmath.iv.__class__()
    for prec in (4096, 8192, 16384, 32768):
        ctx.prec = prec
        iv = sum((ctx.mpf(p(x).numerator) / p(x).denominator
                  * ctx.exp(-ctx.mpf((r * x).numerator) / (r * x).denominator)
                  for r, p in terms), ctx.mpf(0))
        if iv.b < 0:
            return -1
        if iv.a > 0:
            return 1
    raise AssertionError("reference sign did not resolve")


@pytest.mark.parametrize("k", [3000, 5000])
def test_value_below_2_to_the_minus_4096_at_a_point_with_a_long_denominator(k):
    # (x - 1) e^-x + e^-2x = x^2/2 + O(x^3) > 0: at x = 2^-k the value is
    # near 2^(-2k - 1), below the 64 + k bits the bounds start at, so they
    # must double to a precision above both 4096 bits and the start
    terms = [(Fraction(1), RefPoly([-1, 1])), (Fraction(2), RefPoly([1]))]
    x = Fraction(1, 2**k)
    assert _form(terms).sign_at(x) == _wide_ref_sign_at(terms, x) == 1


@pytest.mark.parametrize("x", [Fraction(2**100), Fraction(3**80, 7), Fraction(2**200),
                               Fraction(2**200 + 1, 3), Fraction(2**199 + 5, 2**7)])
def test_far_argument_with_exponents_spread_over_2_to_the_100_bits(x):
    # the two bounds differ in binary exponent by about 2^100 (2^200): the
    # terms far below the largest are bounded, not shifted into one int
    terms = [(Fraction(1), RefPoly([-1, 1])), (Fraction(2), RefPoly([-5]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == 1
    terms = [(Fraction(3, 2), RefPoly([1])), (Fraction(1, 2), RefPoly([0, -1]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == -1
    # each faster part is below the slowest one by a factor under exp(-2^96),
    # however large its coefficients
    big = Fraction(2**1000)
    terms = [(Fraction(1), RefPoly([-1])), (Fraction(3, 2), RefPoly([big, big]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == -1
    terms = [(Fraction(5, 7), RefPoly([1, -1, 1])), (Fraction(6, 7), RefPoly([0, -big])),
             (Fraction(9, 2), RefPoly([-big, 0, -big]))]
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == 1


# -- dividing out the slowest rate ---------------------------------------------

def _vanishing_at(x, rate):
    """A part at rate whose polynomial factor, 5 (mu - x) (mu + 1), is 0 at x."""
    return rate, RefPoly([-5 * x, 5 - 5 * x, 5])


@pytest.mark.parametrize("x,fast,slow,k,above", NEAR_CASES[::3])
def test_slowest_part_vanishing_at_the_point_is_left_out(x, fast, slow, k, above):
    # the new slowest part is 0 at x, so the slowest rate among the parts that
    # are nonzero there is the next one up
    terms, sign = _near_cancelling(x, fast, slow, k, above)
    terms.append(_vanishing_at(x, Fraction(1, 9)))
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == sign


@pytest.mark.parametrize("x", [Fraction(1), Fraction(3, 7), Fraction(2**60 + 1, 2**20)])
def test_slowest_part_vanishing_leaves_one_sign_or_two_rates(x):
    # nonzero at x: two parts of one sign, or two of opposite signs
    one_sign = [_vanishing_at(x, Fraction(1, 4)), (Fraction(1), RefPoly([2])),
                (Fraction(3), RefPoly([0, 7]))]
    two_rates = one_sign[:2] + [(Fraction(2), RefPoly([-3, 0, -1]))]
    assert _form(one_sign).sign_at(x) == ref_sign_at(one_sign, x) == 1
    assert _form(two_rates).sign_at(x) == ref_sign_at(two_rates, x)


# -- the cached sign plan --------------------------------------------------------

PLAN_ROOT = Fraction(3, 8)  # a dyadic root of the slowest part
PLAN_POINTS = [PLAN_ROOT, Fraction(3, 7), Fraction(1), Fraction(5, 2**20), Fraction(0),
               Fraction(2**60 + 1, 2**20), Fraction(3**190 + 1, 2**300),
               Fraction(10**6, 999_983), Fraction(2**200 + 1, 3**120)]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_the_cached_plan_gives_the_interval_oracle_signs_in_any_order(order):
    # three rates with rows of degrees 2, 1 and 0, so the plan pads; at
    # PLAN_ROOT the slowest part vanishes and the next entry is divided out
    terms, _ = _near_cancelling(PLAN_ROOT, (Fraction(1, 3), Fraction(5, 2)), Fraction(7, 4),
                                150, 0)
    terms.append(_vanishing_at(PLAN_ROOT, Fraction(1, 9)))
    form = _form(terms)
    assert not hasattr(form, "_plan")  # the constructor builds no plan
    for x in PLAN_POINTS[::order]:
        assert form.sign_at(x) == ref_sign_at(terms, x), x
    assert hasattr(form, "_plan")
    fresh = _form(terms)
    assert form == fresh and hash(form) == hash(fresh)
    for name in ("terms", "_plan"):
        with pytest.raises(AttributeError):
            setattr(form, name, None)


# rates whose differences all have odd denominators > 1: no exponent
# -(r - r0) mu is a dyadic rational at a dyadic mu, so every cut is inexact
ODD_RATES = (Fraction(2, 3), Fraction(5, 7), Fraction(9, 11), Fraction(13, 5))


@pytest.mark.parametrize("x", [Fraction(1), Fraction(5, 2**20), Fraction(3, 7)])
@pytest.mark.parametrize("count", [3, 4])
@pytest.mark.parametrize("above", [0, 1])
def test_non_dyadic_rate_differences_match_the_interval_oracle(x, count, above):
    rates = ODD_RATES[:count]
    assert all((r - rates[0]).denominator % 2 for r in rates[1:])
    terms, sign = _near_cancelling(x, rates[1:], rates[0], 300, above)
    assert _form(terms).sign_at(x) == ref_sign_at(terms, x) == sign


# -- the bounds themselves -----------------------------------------------------

def _cut_cases(seed, count, prec):
    """(num, den) exponents num/den < 0 of seeded sizes, plus the first ones
    found where exp at the cut's lower end, rounded up at prec bits, is still
    below exp(num/den): there only the upper end gives an upper bound."""
    from mpmath import libmp

    rng = Random(seed)
    plain, tight = [], []
    s = prec + 8
    while len(plain) < count or len(tight) < 4:
        den = rng.randint(1, 2**rng.choice((3, 40, 200)))
        num = -rng.randint(1, 4 * den)
        if len(plain) < count:
            plain.append((num, den))
        q, _ = divmod(num << s, den)
        low = libmp.mpf_exp(libmp.from_man_exp(q, -s), prec, "c")
        with mpmath.workprec(prec + 200):
            if mpmath.mpf(low) < mpmath.exp(mpmath.mpf(num) / den):
                tight.append((num, den))
    return plain + tight[:4]


def _floor_4096(parts):
    """floor of sum n exp(num/den) over parts, from its 4096-bit value."""
    with mpmath.workprec(4096):
        v = mpmath.fsum(n * mpmath.exp(mpmath.mpf(num) / den) for n, num, den in parts)
        return int(mpmath.floor(v))


@pytest.mark.parametrize("prec", [24, 64, 365])
@pytest.mark.parametrize("sign", [1, -1])
def test_bound_sign_brackets_the_4096_bit_value(prec, sign):
    # n = +-2^(prec + 40) puts the bounds' rounding far above 1.  The value V
    # of the parts is irrational, so with n0 = -floor(V) the sum lies in
    # (0, 1) and with n0 = -floor(V) - 1 in (-1, 0): a bound rounded or cut
    # the wrong way gives the wrong sign there
    from moyalbench.exppoly import _bound_signs

    n = sign << (prec + 40)
    cases = _cut_cases(prec, 40, prec)
    groups = [[c] for c in cases] + [cases[i:i + 3] for i in range(0, 30, 3)]
    for exps in groups:
        parts = [(n if i % 2 == 0 else -n // 3, num, den) for i, (num, den) in enumerate(exps)]
        m = _floor_4096(parts)
        for n0, true in ((-m, 1), (-m - 1, -1)):
            lower, upper = _bound_signs(n0, parts, prec)
            assert lower <= true <= upper, (n0, parts)


def _rounded_exp(num, den, prec):
    """(M, e): exp at the cut of num/den to prec + 8 bits, rounded down at
    prec bits, as M 2^e with M exactly prec bits long."""
    from mpmath import libmp

    s = prec + 8
    _, man, e, bc = libmp.mpf_exp(libmp.from_man_exp((num << s) // den, -s), prec, "f")
    return man << (prec - bc), e - (prec - bc)


@pytest.mark.parametrize("prec", [24, 64, 365])
@pytest.mark.parametrize("sign", [1, -1])
def test_bound_signs_keep_a_part_whose_upper_end_alone_reaches_the_floor(prec, sign):
    # the second part's lower end |n2| M2 2^e2 lies under 2^floor, 2*prec bits
    # below the largest part's larger end, but its larger end, under
    # |n2| 2^(prec + 1 + e2), does not: sized by its lower end it would be
    # dropped as -2^floor, which holds its lower end but not its upper one
    from moyalbench.exppoly import _bound_signs

    n1, (num1, den1), (num2, den2) = sign << (3 * prec), (-1, 3), (-29, 7)
    m1, e1 = _rounded_exp(num1, den1, prec)
    m2, e2 = _rounded_exp(num2, den2, prec)
    floor = n1.bit_length() + prec + 1 + e1 - 2 * prec
    n2 = -sign * ((1 << (floor - prec - e2 - 1)) + 1)  # bits(n2) + prec + 1 + e2 = floor + 1
    assert abs(n2) * m2 < 2**(floor - e2) <= abs(n2) << (prec + 1)
    parts = [(n1, num1, den1), (n2, num2, den2)]
    m = _floor_4096(parts)
    for n0, true in ((-m, 1), (-m - 1, -1)):
        lower, upper = _bound_signs(n0, parts, prec)
        assert lower <= true <= upper, (n0, parts)


def _counting(monkeypatch):
    """Clear the prefix cache and wrap _bound_signs, _cut_exp, mpf_exp and
    from_rational: [(parts, prec, brackets), ...] per precision level, the
    mpmath exps, and the from_rational calls."""
    from mpmath import libmp

    from moyalbench import exppoly

    calls, brackets, exps, rationals = [], [], [], []
    bounds, cut_exp = exppoly._bound_signs, exppoly._cut_exp
    exp, from_rational = libmp.mpf_exp, libmp.from_rational

    def counted_bounds(n0, parts, prec):
        before = len(brackets)
        out = bounds(n0, parts, prec)
        calls.append((parts, prec, len(brackets) - before))
        return out

    monkeypatch.setattr(exppoly, "_bound_signs", counted_bounds)
    monkeypatch.setattr(exppoly, "_cut_exp", lambda *a: brackets.append(1) or cut_exp(*a))
    monkeypatch.setattr(libmp, "mpf_exp", lambda *a, **k: exps.append(1) or exp(*a, **k))
    monkeypatch.setattr(libmp, "from_rational",
                        lambda *a, **k: rationals.append(1) or from_rational(*a, **k))
    exppoly._exp_prefix.cache_clear()
    return calls, exps, rationals


K = 64  # the fractional bits of an exponent's cached prefix


def _prefix_key(num, den, prec):
    """(h, class) of a cut: h = floor(num/den 2^K), and the class is the least
    multiple of 64 at least prec + 16."""
    s = prec + 8
    return ((num << s) // den) >> (s - K), (prec + 79) & -64


def test_two_rate_bisection_makes_one_exp_per_bound(monkeypatch):
    # each bound forms one bracket, whose exp is a prefix exp from the cache
    # or from mpmath: mpmath runs one exp per (prefix, class), not per bound
    n, l1, l2 = _projector_pairs(7, 1)[0]
    form = projector_closed(n, l1).form - projector_closed(n, l2).form
    points = _bisection_points(form, 300)
    s0 = form.sign_at(0)
    hi = next(x for x in points[1:] if form.sign_at(x) != s0)  # the doubling's end
    calls, exps, rationals = _counting(monkeypatch)
    asked = []  # bounds asked up to each point
    for x in points:
        form.sign_at(x)
        asked.append(len(calls))
    assert len(calls) > 300
    assert all(len(parts) == brackets == 1 for parts, _, brackets in calls)
    assert not rationals
    keys = {_prefix_key(num, den, prec) for parts, prec, _ in calls for _, num, den in parts}
    assert len(exps) == len(keys)
    # after the i-th midpoint every later point lies in a bracket W 2^-i wide,
    # W = hi - hi/2 or 1, and its exponent -(r1 - r0) x in one (r1 - r0) W 2^-i
    # wide.  Once that is at most 2^-K, the later points share at most two
    # prefixes h, each asked at every class their bounds reach; before it,
    # each bound may ask its own
    r0, r1 = sorted(form.terms)
    width = (r1 - r0) * (hi / 2 if hi > 1 else 1)
    i = next(i for i in range(1000) if width / 2**i <= Fraction(1, 2**K))
    last = points.index(hi) + i  # the i-th midpoint
    classes = {_prefix_key(num, den, prec)[1]
               for parts, prec, _ in calls[asked[last]:] for _, num, den in parts}
    assert len(exps) <= asked[last] + 2 * len(classes) < len(calls) / 4


@pytest.mark.parametrize("seed", range(4))
def test_k_rate_forms_make_k_minus_1_exps_per_bound_on_negative_exponents(
        seed, monkeypatch):
    # k - 1 brackets per precision level, one for each rate but the slowest,
    # each with its one prefix exp
    rng = Random(seed)
    terms, _ = _near_cancelling(Fraction(3, 7), ODD_RATES[1:2 + seed % 3], ODD_RATES[0],
                                150 * (1 + seed), seed % 2)
    terms.append(_vanishing_at(Fraction(3, 7), Fraction(1, 2)))  # the slowest rate
    form = _form(terms)
    calls, exps, rationals = _counting(monkeypatch)
    for x in [Fraction(3, 7)] + [Fraction(rng.randint(1, 2**80), 2**rng.randint(1, 70))
                                 for _ in range(6)]:
        del calls[:]
        form.sign_at(x)
        k = sum(1 for _, p in terms if p(x))  # the rates nonzero at x
        assert calls and all(len(parts) == brackets == k - 1 for parts, _, brackets in calls)
        # the slowest nonzero part is divided out: every other exponent is < 0
        assert all(num < 0 < den for parts, _, _ in calls for _, num, den in parts)
    assert not rationals


# -- the cut exp: a cached prefix times a Taylor tail on ints ----------------------

PRECS = [24, 64, 365, 1500, 4096]  # s = prec + 8 <= K at 24


def _clear_prefixes():
    from moyalbench.exppoly import _exp_prefix

    _exp_prefix.cache_clear()


def _assert_cut_bracket(q, prec):
    """_cut_exp(q, prec) holds exp(q 2^-s) and exp((q + 1) 2^-s), s = prec + 8,
    measured at max(4096, 2 prec + 256) bits, and is under one ulp wide at
    prec bits."""
    from moyalbench.exppoly import _cut_exp

    s = prec + 8
    lo, hi, e = _cut_exp(q, prec)
    assert 0 < lo < hi and (hi - lo) << prec < lo
    with mpmath.workprec(max(4096, 2 * prec + 256)):
        near = 1 - mpmath.ldexp(1, 32 - mpmath.mp.prec)  # the reference's own error
        assert mpmath.ldexp(lo, e) <= mpmath.exp(mpmath.ldexp(q, -s)) * near
        assert mpmath.exp(mpmath.ldexp(q + 1, -s)) <= mpmath.ldexp(hi, e) * near
    return lo, hi, e


def _corner(h, l, prec):
    """(q, prec): the cut h 2^(s - K) + l, with l capped at 2^(s - K) - 1; when
    s <= K, the cut whose prefix is h rounded down to a multiple of 2^(K - s)."""
    cut = prec + 8 - K
    return (h << cut) + min(l, (1 << cut) - 1) if cut > 0 else h >> -cut, prec


@st.composite
def _cuts(draw):
    prec = draw(st.sampled_from(PRECS))
    h = draw(st.one_of(st.just(-1), st.integers(-2**72, -1),
                       st.integers(-2**100 - 2**20, -2**100 + 2**20)))
    top = (1 << max(prec + 8 - K, 0)) - 1
    return _corner(h, draw(st.one_of(st.just(0), st.just(top), st.integers(0, top))), prec)


CORNERS = [pytest.param(*_corner(h, l, prec), id=f"{prec}-{name}-l{'max' if l else 0}")
           for prec in PRECS
           for h, name in ((-1, "h-1"), (-2**100, "h-2^100"), (-2**100 + 1, "h-2^100+1"),
                           (-(5 << 61) - 3, "h-5*2^61-3"))
           for l in (0, 2**5000)]


@settings(max_examples=60, deadline=None)
@given(_cuts())
def test_cut_exp_holds_the_cut_within_one_ulp(cut):
    _clear_prefixes()
    _assert_cut_bracket(*cut)


@pytest.mark.parametrize("q,prec", CORNERS)
def test_cut_exp_holds_the_cut_at_the_corners(q, prec):
    # l = 0 and l = 2^(s - K) - 1, h = -1 and near -2^100, and s <= K at 24 bits
    _clear_prefixes()
    _assert_cut_bracket(q, prec)


@pytest.mark.parametrize("precs", [(64, 365), (365, 64), (200, 240), (1500, 24)],
                         ids=["low-then-high", "high-then-low", "one-class", "s-above-and-below-K"])
def test_a_prefix_asked_at_two_classes_is_as_narrow_as_from_a_cold_cache(precs):
    # one prefix h, asked first at one precision and then at another: the
    # second bracket is the one a cold cache gives, and both hold the cut
    from moyalbench.exppoly import _cut_exp

    h = -(5 << 61) - (3 << 32)  # a multiple of 2^(K - s) at 24 bits, s = 32
    cuts = [_corner(h, 7**400 % (1 << max(p + 8 - K, 0)), p) for p in precs]
    cold = []
    for q, p in cuts:
        _clear_prefixes()
        cold.append(_cut_exp(q, p))
    _clear_prefixes()
    assert [_assert_cut_bracket(q, p) for q, p in cuts] == cold


def test_a_300_bit_bisection_gives_the_oracle_signs_cold_warm_and_reversed():
    n, l1, l2 = _projector_pairs(11, 1)[0]
    r1, p1 = ref_projector(n, l1)
    r2, p2 = ref_projector(n, l2)
    terms = [(r1, p1), (r2, RefPoly([-c for c in p2.coeffs]))]

    def form():
        return projector_closed(n, l1).form - projector_closed(n, l2).form

    points = _bisection_points(form(), 300)
    assert len(points) > 300
    ref = [ref_sign_at(terms, x) for x in points]
    _clear_prefixes()
    f = form()
    assert [f.sign_at(x) for x in points] == ref  # cold
    assert [f.sign_at(x) for x in points] == ref  # warm
    _clear_prefixes()
    f = form()
    assert [f.sign_at(x) for x in reversed(points)] == ref[::-1]
