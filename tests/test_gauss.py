import math

import pytest
from hypothesis import given, strategies as st

from moyalbench.gauss import format_gauss, parse_gauss


def reduced(re, im, den):
    g = math.gcd(re, im, den)
    return re // g, im // g, den // g


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 60))
def test_string_round_trip(re, im, den):
    assert parse_gauss(format_gauss(re, im, den)) == reduced(re, im, den)


FORMS = [
    ((0, 0, 7), "0"),
    ((4, 0, 6), "2/3"),
    ((0, 1, 1), "i"),
    ((0, -3, 3), "-i"),
    ((0, 2, 3), "2/3i"),
    ((3, -2, 6), "1/2-1/3i"),
    ((-2, 1, 1), "-2+i"),
    ((5, -5, 4), "5/4-5/4i"),
]


def test_string_forms():
    for triple, text in FORMS:
        assert format_gauss(*triple) == text
        assert parse_gauss(text) == reduced(*triple)


def test_parse_accepts_spaces_and_signs():
    assert parse_gauss(" +1/2 - i ") == (1, -2, 2)
    assert parse_gauss("-3/4+i") == (-3, 4, 4)
    with pytest.raises(ValueError):
        parse_gauss("  ")
