from hypothesis import given, strategies as st

from moyalbench.backend import Q
from moyalbench.gauss import GaussScalar, format_gauss, parse_gauss

rationals = st.builds(
    Q, st.integers(-50, 50), st.integers(1, 20)
)
gauss = st.builds(GaussScalar, rationals, rationals)


@given(gauss)
def test_string_round_trip(x):
    assert parse_gauss(format_gauss(x)) == x


def test_string_forms():
    assert format_gauss(GaussScalar(0, 1)) == "i"
    assert format_gauss(GaussScalar(0, -1)) == "-i"
    assert format_gauss(GaussScalar(Q(1, 2), Q(-1, 3))) == "1/2-1/3i"
    assert parse_gauss("-i") == GaussScalar(0, -1)
    assert parse_gauss("2/3") == GaussScalar(Q(2, 3))


def test_equality_with_rationals():
    assert GaussScalar(Q(1, 2)) == Q(1, 2)
    assert GaussScalar(Q(1, 2), Q(1)) != Q(1, 2)
