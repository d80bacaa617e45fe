import pytest

from moyalbench.backend import Q, qbinom, qfact, rational_str, rceil
from moyalbench.errors import DomainError


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


@pytest.mark.parametrize("args, shown", [
    (("1/0",), "Q('1/0')"),
    ((" -3/0",), "Q('-3/0')"),
    ((1, 0), "Q(1, 0)"),
    ((Q(1, 2), 0), "Q(Fraction(1, 2), 0)"),
], ids=["string", "signed-string", "ints", "rational"])
def test_q_zero_denominator_is_a_domain_error(args, shown):
    with pytest.raises(DomainError) as info:
        Q(*args)
    assert str(info.value) == f"{shown} has a zero denominator"
    assert isinstance(info.value, ValueError)  # argparse reports a ValueError


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
