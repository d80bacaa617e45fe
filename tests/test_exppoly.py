import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from moyalbench.backend import Q
from moyalbench.errors import IntegrabilityError
from moyalbench.exppoly import ExpPoly, _wide_decayed, exp_integral, mu_times
from moyalbench.poly import Poly

coeff = st.integers(-5, 5).map(Q)
small_poly = st.lists(coeff, min_size=1, max_size=4).map(Poly)
rate = st.integers(1, 4).flatmap(
    lambda d: st.integers(1, 8).map(lambda n: Q(n, d))
)
exppolys = st.lists(st.tuples(small_poly, rate), min_size=0, max_size=3).map(ExpPoly)


def test_unit_exponential():
    assert exp_integral(ExpPoly.single(Poly([Q(1)]), 1)) == 1


def test_gamma_three():
    assert exp_integral(ExpPoly.single(Poly.monomial(2), 1)) == 2


def test_level_one_gm_projector_mass():
    # (1 - 4 mu) * (-2) e^{-2 mu}: term-by-term k!/c^(k+1) gives -2(1/2) + 8(1/4) = 1
    f = ExpPoly.single(Poly([Q(-2), Q(8)]), 2)
    assert exp_integral(f) == 1


def test_nonpositive_rate_rejected():
    with pytest.raises(IntegrabilityError):
        ExpPoly.single(Poly([Q(1)]), 0)
    with pytest.raises(IntegrabilityError):
        ExpPoly.single(Poly([Q(1)]), Q(-1, 2))


def test_canonical_merge():
    a = ExpPoly([(Poly([Q(1)]), 1), (Poly([Q(2)]), 1)])
    b = ExpPoly.single(Poly([Q(3)]), 1)
    assert a == b
    assert (a - b).is_zero


@given(exppolys, exppolys, exppolys)
@settings(max_examples=50)
def test_ring_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@given(exppolys, exppolys, coeff, coeff)
@settings(max_examples=50)
def test_integral_linearity(f, g, a, b):
    lhs = exp_integral(a * f + b * g)
    assert lhs == a * exp_integral(f) + b * exp_integral(g)


@given(exppolys)
@settings(max_examples=50)
def test_integration_by_parts(f):
    # integral of f' over [0, inf) telescopes to -f(0)
    assert exp_integral(f.derivative()) == -f.at_zero()


def test_mu_times():
    f = ExpPoly.single(Poly([Q(1)]), 1)
    assert exp_integral(mu_times(f)) == 1
    assert exp_integral(mu_times(f, 3)) == 6


def test_sign_at_exact():
    g = ExpPoly([(Poly([Q(1)]), 1), (Poly([Q(-1)]), 2)])  # e^-x - e^-2x
    assert g.sign_at(0) == 0
    assert g.sign_at(Q(1)) == 1
    assert (Q(-1) * g).sign_at(Q(3, 7)) == -1
    single = ExpPoly.single(Poly([Q(1), Q(-1)]), 1)  # (1 - mu) e^-mu
    assert single.sign_at(Q(1)) == 0
    assert single.sign_at(Q(2)) == -1


def test_nonneg_single_rate_decidable():
    f = ExpPoly.single(Poly([Q(1), Q(-2), Q(1)]), 1)  # (mu-1)^2 e^-mu
    assert f.nonneg_on_nonneg() == (True, None)
    g = ExpPoly.single(Poly([Q(1), Q(-2), Q(1, 2)]), 1)
    ok, w = g.nonneg_on_nonneg()
    assert ok is False and g.sign_at(w) < 0


def test_nonneg_multi_rate_witness():
    # 2 e^{-2mu} - e^{-mu}: negative for large mu
    f = ExpPoly([(Poly([Q(2)]), 2), (Poly([Q(-1)]), 1)])
    ok, w = f.nonneg_on_nonneg()
    assert ok is False and f.sign_at(w) < 0


def test_json_round_trip():
    f = ExpPoly([(Poly([Q(1, 3), Q(2)]), Q(5, 2)), (Poly([Q(-1)]), 1)])
    assert ExpPoly.from_json_obj(f.to_json_obj()) == f


def test_derivative_closed():
    f = ExpPoly.single(Poly([Q(0), Q(1)]), 2)  # mu e^{-2mu}
    expect = ExpPoly.single(Poly([Q(1), Q(-2)]), 2)
    assert f.derivative() == expect


class _NoSharedIntervals:
    def __getattr__(self, name):
        raise AssertionError(f"mpmath.iv.{name} touched")


def test_sign_at_leaves_the_shared_interval_context_alone(monkeypatch):
    import mpmath

    # e^-1 - c e^-2 with c within 2^-97 of e: the sign needs >= 128 bits
    with mpmath.workprec(200):
        man, exp = mpmath.mpf(mpmath.e).man_exp  # e = man * 2^exp
    ulp = Q(1, 2 ** (-exp - 100))
    below = (man >> 100) * ulp  # e rounded down to a multiple of 2^-97
    above = below + ulp
    monkeypatch.setattr(mpmath, "iv", _NoSharedIntervals())
    g = ExpPoly([(Poly([Q(1)]), 1), (Poly([Q(-1)]), 2)])
    assert g.sign_at(Q(1)) == 1
    assert (Q(-1) * g).sign_at(Q(3, 7)) == -1
    assert ExpPoly([(Poly([Q(1)]), 1), (Poly([-below]), 2)]).sign_at(Q(1)) == 1
    assert ExpPoly([(Poly([Q(1)]), 1), (Poly([-above]), 2)]).sign_at(Q(1)) == -1


def test_threads_on_near_root_points_return_the_serial_signs():
    import random
    import sys
    import threading

    from moyalbench.spectral import projector_closed

    # pi_2^(17/40) - pi_2^(23/48) changes sign; points within 2^-300 of the
    # change need up to 365 bits, a precision each call picks for itself
    form = projector_closed(2, Q(17, 40)).form - projector_closed(2, Q(23, 48)).form
    s0, lo, hi = form.sign_at(0), Q(0), Q(1)
    while form.sign_at(hi) == s0:
        lo, hi = hi, 2 * hi
    points = [lo, hi]
    while hi - lo > Q(1, 2**300):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if form.sign_at(mid) == s0 else (lo, mid)
        points.append(mid)
    serial = {x: form.sign_at(x) for x in points}
    assert set(serial.values()) == {-1, 1}
    results = [None] * 8

    def worker(k):
        mine = points[:]
        random.Random(k).shuffle(mine)
        results[k] = {x: form.sign_at(x) for x in mine}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert all(r == serial for r in results)


def test_value_beyond_the_float_range_is_a_typed_error():
    from moyalbench.errors import AccuracyError

    # 10^400 e^-1 exceeds every float; 10^400 e^-1000 is a normal one
    with pytest.raises(AccuracyError):
        ExpPoly.single(Poly([Q(10) ** 400]), 1)(1)
    v = ExpPoly.single(Poly([Q(10) ** 400]), 1)(1000)
    assert v == pytest.approx(10.0 ** (400 - 1000 / math.log(10)), rel=1e-9)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_value_at_a_non_finite_float_is_a_typed_error(mu):
    from moyalbench.errors import DomainError

    with pytest.raises(DomainError):
        ExpPoly.single(Poly([Q(1), Q(-1)]), 1)(mu)


def test_subnormal_exp_keeps_the_digits_of_the_term():
    import mpmath

    from moyalbench.spectral import projector_closed

    # exp(-r mu) is about 1.1e-322, a subnormal with three significant
    # digits; the float product with the 1.6e296 polynomial part kept only
    # those and read 1.84127e-26
    form = projector_closed(381, Q(10, 41)).form
    mu = Q(1121, 2)
    (rate, poly), = form.terms.items()
    assert 0.0 < math.exp(-float(rate * mu)) < 2.3e-308
    with mpmath.workprec(300):
        c, e = poly(mu), rate * mu
        ref = mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(-mpmath.mpf(e.numerator) / e.denominator)
        assert form(mu) == float(ref)
    assert f"{form(mu):.11e}" == "1.83782170856e-26"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("rate", [Q(1000), Q(3001, 3)])
def test_wide_decay_at_the_bottom_of_the_floats(rate, sign):
    # num e^-rate = 1.3 * 2^bits from 2^-1080 to 2^-1070, clear of the ties
    # between subnormals: a signed 0.0 below 2^-1075, half the least
    # subnormal, and within one subnormal of the value above it
    with mpmath.workprec(600):
        decay = mpmath.exp(-mpmath.mpf(rate.numerator) / rate.denominator)
        for bits in range(-1080, -1069):
            num = sign * int(mpmath.floor(mpmath.ldexp(1.3, bits) / decay))
            value = num * decay
            out = _wide_decayed(num, 1, rate)
            if abs(value) < mpmath.ldexp(1, -1075):
                assert out == 0.0 and math.copysign(1.0, out) == sign
            else:
                assert out != 0.0 and abs(out - value) <= mpmath.ldexp(1, -1074)
