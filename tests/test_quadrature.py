import math

import pytest

from moyalbench.backend import Q
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
                          decay_rate=0.25)
    assert res.t_max >= 200.0
    assert abs(res.value - 1.0) < 1e-8


def test_budget_exhaustion_raises():
    with pytest.raises(AccuracyError):
        integrate_decay(lambda z: math.exp(-z), tol=1e-300, max_doublings=3)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate_decay(lambda z: math.exp(-z), tol=0.0)
    with pytest.raises(ValueError):
        integrate_decay(lambda z: math.exp(-z), decay_rate=0.0)


def test_nan_integrand_fails_on_first_grid():
    calls = []

    def f(z):
        calls.append(z)
        return math.nan

    with pytest.raises(AccuracyError):
        integrate_decay(f)
    assert len(calls) <= 17


def test_range_errors_are_typed():
    with pytest.raises(MoyalBenchError):
        ExpPoly([(Poly([Q(1)]), 1), (Poly([Q(-1)]), 2)]).sign_at(Q(-1, 3))
    with pytest.raises(MoyalBenchError):
        integrate_decay(lambda z: math.exp(-z), tol=0.0)
    with pytest.raises(MoyalBenchError):
        integrate_decay(lambda z: math.exp(-z), decay_rate=-1.0)
