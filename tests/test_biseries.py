import pytest
from hypothesis import given, settings, strategies as st

from moyalbench.backend import Q
from moyalbench.biseries import BiSeries, binom_inverse_power

coeff = st.integers(-4, 4).map(Q)


@st.composite
def small_series(draw, kx=6, ky=6, max_deg=3):
    coeffs = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            c = draw(coeff)
            if c:
                coeffs[(i, j)] = c
    return BiSeries(coeffs, kx, ky)


@given(small_series(), small_series())
@settings(max_examples=50)
def test_mul_matches_polynomial_product_below_truncation(a, b):
    # inputs have total degree <= 3, so the product is exact below order 6
    prod = a * b
    for i in range(7):
        for j in range(7 - i):
            direct = Q(0)
            for (i1, j1), c1 in a.coeffs.items():
                c2 = b.coeffs.get((i - i1, j - j1))
                if c2 is not None:
                    direct += c1 * c2
            assert prod.coeff(i, j) == direct


def test_orders_propagate_as_min():
    a = BiSeries.constant(1, 8, 4)
    b = BiSeries.constant(1, 5, 9)
    assert (a * b).kx == 5 and (a * b).ky == 4
    assert (a + b).kx == 5 and (a + b).ky == 4


def test_geometric_inverts_one_minus_x():
    one = BiSeries.constant(1, 8, 8)
    x = BiSeries.var_x(8, 8)
    geometric = BiSeries({(i, 0): 1 for i in range(9)}, 8, 8)
    assert geometric * (one - x) == one
    assert (one - x).inverse() == geometric


def test_binom_inverse_power():
    one = BiSeries.constant(1, 6, 6)
    x = BiSeries.var_x(6, 6)
    for m in range(4):
        assert binom_inverse_power(m, 6, 6) * (one - x) ** m == one


def test_exp_homomorphism():
    x, y = BiSeries.var_x(6, 6), BiSeries.var_y(6, 6)
    s = x * Q(2) + y * Q(-1) + x * y
    assert s.exp() * (-s).exp() == BiSeries.constant(1, 6, 6)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        BiSeries.constant(1, 4, 4).exp()


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        BiSeries.var_x(4, 4).inverse()
