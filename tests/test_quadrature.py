import math

import pytest

from moyalbench.backend import Q
from moyalbench import laguerre, quadrature, verify
from moyalbench.errors import AccuracyError, MoyalBenchError
from moyalbench.exppoly import ExpPoly
from moyalbench.poly import Poly
from moyalbench.quadrature import integrate_decay


def test_unit_exponential():
    res = integrate_decay(lambda z: math.exp(-z), tol=1e-10)
    assert abs(res.value - 1.0) < 1e-10
    assert res.panels >= 32
    assert res.est_error < 1e-10


def test_first_moment():
    res = integrate_decay(lambda z: z * math.exp(-z), tol=1e-10)
    assert abs(res.value - 1.0) < 1e-10


def test_slow_rate_expands_window():
    res = integrate_decay(lambda z: 0.25 * math.exp(-z / 4.0), tol=1e-9,
                          t_max=200.0)
    assert res.t_max >= 200.0
    assert abs(res.value - 1.0) < 1e-8


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 3)
    with pytest.raises(AccuracyError, match="within 3 doublings"):
        integrate_decay(lambda z: math.exp(-z), tol=1e-300)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate_decay(lambda z: math.exp(-z), tol=0.0)


def test_nan_integrand_fails_on_first_grid():
    calls = []

    def f(z):
        calls.append(z)
        return math.nan

    with pytest.raises(AccuracyError):
        integrate_decay(f)
    assert len(calls) <= 17


@pytest.mark.parametrize("f", [
    lambda z: 1e308,
    lambda z: math.inf if z < 25.0 else -math.inf,
], ids=["overflowing-sum", "mixed-infinities"])
def test_non_finite_sums_are_accuracy_errors(f):
    with pytest.raises(AccuracyError, match="integrand not finite"):
        integrate_decay(f)


def test_range_errors_are_typed():
    with pytest.raises(MoyalBenchError):
        ExpPoly([(Poly([Q(1)]), 1), (Poly([Q(-1)]), 2)]).sign_at(Q(-1, 3))
    with pytest.raises(MoyalBenchError):
        integrate_decay(lambda z: math.exp(-z), tol=0.0)


def test_a_run_evaluates_f_once_per_grid_point():
    # values are reused across doublings: f runs at the final grid's
    # panels + 1 points and nowhere else
    calls = []

    def f(z):
        calls.append(z)
        return math.exp(-z)

    res = integrate_decay(f, tol=1e-10)
    assert len(calls) == res.panels + 1
    assert sorted(calls) == [k * (50.0 / res.panels) for k in range(res.panels + 1)]


def _sqrt_l1(z):
    # sqrt(z) L_1(z) e^-z, whose integral is -sqrt(pi)/4
    return math.sqrt(z) * (1.0 - z) * math.exp(-z)


# (float.hex(value), float.hex(est_error), panels) of every integrate_decay
# call: the raw-Simpson sums must stay bit for bit.  Recorded with math.fsum,
# which gives these bits on CPython 3.11, 3.12 and 3.13 alike.
PINNED_RUNS = [
    (lambda: quadrature.integrate_decay(_sqrt_l1, tol=1e-7), [
        ("-0x1.c5bf8ae690cbfp-2", "0x1.a3deaf7800000p-25", 1048576),
    ]),
    (verify.check_gamma_quadrature, [
        ("-0x1.c5bf891b4ef6ap-2", "0x1.9100000000000p-46", 64),
    ]),
    (lambda: laguerre.gamma_moment(Q(5, 2), 1), [
        ("-0x1.09de3a5600449p+3", "0x1.b118000000000p-36", 64),
    ]),
]


@pytest.mark.parametrize("call, expected", PINNED_RUNS, ids=[
    "sqrt-L1-to-1e-7", "check_gamma_quadrature", "gamma_moment(5/2, 1)"])
def test_simpson_sums_are_pinned_bit_for_bit(monkeypatch, call, expected):
    runs = []

    def recording(*args, **kwargs):
        res = integrate_decay(*args, **kwargs)
        runs.append((float.hex(res.value), float.hex(res.est_error), res.panels))
        return res

    monkeypatch.setattr(quadrature, "integrate_decay", recording)
    call()
    assert runs == expected


def test_navot_estimates_are_pinned_bit_for_bit(monkeypatch):
    # the three Simpson estimates the gamma check draws from the doubling
    # loop that integrate_decay runs
    drawn = []

    def recording(f, T):
        for n, s in quadrature._simpson_doublings(f, T):
            drawn.append((n, float.hex(s)))
            yield n, s

    monkeypatch.setattr(verify, "_simpson_doublings", recording)
    verify.check_gamma_quadrature()
    assert drawn[6:] == [
        (1024, "-0x1.c6a9407df5635p-2"),
        (2048, "-0x1.c6116cfdc54b5p-2"),
        (4096, "-0x1.c5dc5c9e5ca8bp-2"),
    ]
    assert [n for n, _ in drawn] == [16 << k for k in range(9)]
