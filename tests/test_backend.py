import pytest

from moyalbench.backend import Q, qbinom, qfact, rational_str, rceil


def test_q_construction_and_strings():
    assert rational_str(Q(3, 4)) == "3/4"
    assert rational_str(Q(-3, 4)) == "-3/4"
    assert rational_str(Q(8, 4)) == "2"
    assert Q("  -5/7 ") == Q(-5, 7)
    assert Q("12") == 12


def test_q_rejects_floats():
    with pytest.raises(TypeError):
        Q(0.5)
    with pytest.raises(TypeError):
        Q(1, 2.0)


def test_exactness_no_rounding():
    x = Q(1, 3)
    assert x + x + x == 1
    assert (Q(1, 10) + Q(2, 10)) * 10 == 3


def test_binom_fact_helpers():
    assert qbinom(5, 2) == 10
    assert qbinom(3, 5) == 0
    assert qfact(6) == 720


def test_rceil():
    assert rceil(Q(1, 3)) == 1
    assert rceil(Q(-1, 3)) == 0
    assert rceil(Q(2)) == 2
    assert rceil(Q(7, 2)) == 4
