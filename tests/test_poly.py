from fractions import Fraction

from hypothesis import given, settings, strategies as st

from moyalbench.backend import Q
from moyalbench.poly import Poly, _homogeneous, divmod_poly, poly_gcd
from moyalbench.rootisolate import (
    cauchy_bound,
    count_roots,
    nonneg_on_nonneg,
    odd_multiplicity_part,
    squarefree_decomposition,
)

coeff = st.integers(-6, 6).map(Q)
polys = st.lists(coeff, min_size=0, max_size=6).map(Poly)


def test_degree_and_trim():
    assert Poly([Q(1), Q(0), Q(0)]).degree == 0
    assert Poly().degree == -1
    assert Poly([Q(0)]).is_zero


def test_product_degree_adds():
    p = Poly([Q(1), Q(2)])
    q = Poly([Q(0), Q(0), Q(3)])
    assert (p * q).degree == p.degree + q.degree


def test_eval_and_scale():
    p = Poly([Q(1), Q(-2), Q(1, 2)])  # 1 - 2x + x^2/2
    assert p(Q(2)) == Q(-1)
    assert p.scale_arg(Q(3))(Q(1)) == p(Q(3))


@given(polys, polys)
@settings(max_examples=60)
def test_divmod_property(a, b):
    if b.is_zero:
        return
    q, r = divmod_poly(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys, polys)
@settings(max_examples=40)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
        return
    for p in (a, b):
        _, rem = divmod_poly(p, g)
        assert rem.is_zero


def test_sturm_counts():
    p = Poly([Q(3), Q(-4), Q(1)])  # (x-1)(x-3)
    assert count_roots(p, Q(0), Q(2)) == 1
    assert count_roots(p, Q(0), Q(4)) == 2
    assert count_roots(p, Q(1), Q(3)) == 1  # half-open (1, 3] captures x=3 only


def test_cauchy_bound_contains_roots():
    p = Poly([Q(3), Q(-4), Q(1)])
    assert cauchy_bound(p) > 3


def test_squarefree_decomposition():
    # (x-1)^2 (x-2)
    p = Poly([Q(-2), Q(5), Q(-4), Q(1)])
    dec = squarefree_decomposition(p)
    assert sorted(m for _, m in dec) == [1, 2]
    odd = odd_multiplicity_part(p)
    assert odd(Q(2)) == 0 and odd(Q(1)) != 0


def test_nonneg_verdicts():
    assert nonneg_on_nonneg(Poly([Q(1), Q(-2), Q(1)])) == (True, None)  # (x-1)^2
    ok, w = nonneg_on_nonneg(Poly([Q(1), Q(-2), Q(1, 2)]))
    assert not ok and Poly([Q(1), Q(-2), Q(1, 2)])(w) < 0
    # negative only between adjacent isolating intervals
    ok, w = nonneg_on_nonneg(Poly([Q(2), Q(-3), Q(1)]))
    assert not ok and Q(1) < w < Q(2)
    # touching zero at origin then positive
    assert nonneg_on_nonneg(Poly([Q(0), Q(0), Q(1)])) == (True, None)
    # negative leading coefficient
    ok, w = nonneg_on_nonneg(Poly([Q(1), Q(0), Q(-1)]))
    assert not ok and Poly([Q(1), Q(0), Q(-1)])(w) < 0


@given(polys)
@settings(max_examples=80)
def test_nonneg_witness_is_sound(p):
    ok, w = nonneg_on_nonneg(p)
    assert ok == (w is None)
    if not ok:
        assert w >= 0
        assert p(w) < 0


# -- the shift Horner at dyadic points -------------------------------------------

big_rows = st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=13)  # degree <= 12


def _product_form(nums, a, b):
    """sum nums[j] a^j b^(d-j), term by term."""
    d = len(nums) - 1
    return sum(n * a**j * b ** (d - j) for j, n in enumerate(nums))


@given(big_rows, st.integers(-(2**300), 2**300), st.integers(0, 400))
@settings(max_examples=200, deadline=None)
def test_shift_horner_matches_the_product_form(nums, a, k):
    assert _homogeneous(nums, a, 2**k) == _product_form(nums, a, 2**k)
    # the generic Horner on an odd b next to it, and b = 1
    assert _homogeneous(nums, a, 2**k + 1) == _product_form(nums, a, 2**k + 1)
    assert _homogeneous(nums, a, 1) == _product_form(nums, a, 1)


@given(big_rows, st.integers(-(2**300), 2**300), st.integers(0, 400))
@settings(max_examples=100, deadline=None)
def test_poly_sign_at_dyadic_points_matches_the_exact_value(nums, a, k):
    x = Fraction(a, 2**k)
    value = sum(Fraction(n, 7) * x**j for j, n in enumerate(nums))
    assert Poly([Fraction(n, 7) for n in nums]).sign_at(x) == (value > 0) - (value < 0)
