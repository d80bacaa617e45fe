"""BiSeries on phase's integer kernel against a naive reference.

The reference is the Fraction-dict BiSeries the kernel replaced: one
Fraction per coefficient, sums and products as dict loops that skip every
exponent above the orders.  It shares none of the kernel's tricks (one
denominator, flat exponent keys, the cut after each result).
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from moyalbench.backend import Q, ZERO, qbinom, qfact, rational_str
from moyalbench.biseries import BiSeries, binom_inverse_power
from moyalbench.errors import DomainError
import moyalbench.biseries as biseries_module
from moyalbench.laguerre import projector_identity_lhs, projector_identity_rhs

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
    power = one  # (1 - x)^m
    for m in range(4):
        assert binom_inverse_power(m, 6, 6) * power == one
        power = power * (one - x)


def test_exp_homomorphism():
    x, y = BiSeries.var_x(6, 6), BiSeries.var_y(6, 6)
    s = x * Q(2) + y * Q(-1) + x * y
    assert s.exp() * (-s).exp() == BiSeries.constant(1, 6, 6)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        BiSeries.constant(1, 4, 4).exp()


def test_negative_exponents_rejected():
    # the old Fraction-dict series kept them as Laurent terms
    with pytest.raises(DomainError, match="exponent must be >= 0"):
        BiSeries({(-1, 0): 1, (0, 0): 2}, 2, 2)


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        BiSeries.var_x(4, 4).inverse()


# -- the naive reference -------------------------------------------------------


class RefBiSeries:
    __slots__ = ("coeffs", "kx", "ky")

    def __init__(self, coeffs, kx: int, ky: int):
        if kx < 0 or ky < 0:
            raise ValueError("truncation orders must be nonnegative")
        clean = {}
        for (i, j), c in coeffs.items():
            if i <= kx and j <= ky and c:
                clean[(i, j)] = Q(c)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)

    def __setattr__(self, *_):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def constant(cls, c, kx: int, ky: int) -> "RefBiSeries":
        return cls({(0, 0): Q(c)}, kx, ky)

    @classmethod
    def monomial(cls, i: int, j: int, c, kx: int, ky: int) -> "RefBiSeries":
        return cls({(i, j): Q(c)}, kx, ky)

    @classmethod
    def var_x(cls, kx: int, ky: int) -> "RefBiSeries":
        return cls.monomial(1, 0, Q(1), kx, ky)

    @classmethod
    def var_y(cls, kx: int, ky: int) -> "RefBiSeries":
        return cls.monomial(0, 1, Q(1), kx, ky)

    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _orders_with(self, other):
        return min(self.kx, other.kx), min(self.ky, other.ky)

    def __add__(self, other):
        other = _ref_coerce(other, self.kx, self.ky)
        kx, ky = self._orders_with(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, ZERO) + c
        return RefBiSeries(out, kx, ky)

    __radd__ = __add__

    def __neg__(self):
        return RefBiSeries({k: -c for k, c in self.coeffs.items()}, self.kx, self.ky)

    def __sub__(self, other):
        return self + (-_ref_coerce(other, self.kx, self.ky))

    def __mul__(self, other):
        if not isinstance(other, RefBiSeries):
            return RefBiSeries(
                {k: c * other for k, c in self.coeffs.items()}, self.kx, self.ky
            )
        kx, ky = self._orders_with(other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= kx and j <= ky:
                    key = (i, j)
                    out[key] = out.get(key, ZERO) + c1 * c2
        return RefBiSeries(out, kx, ky)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RefBiSeries):
            return NotImplemented
        return (
            self.kx == other.kx
            and self.ky == other.ky
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.kx, self.ky, tuple(sorted(self.coeffs.items()))))

    def exp(self) -> "RefBiSeries":
        """exp(s) for a series with zero constant term (nilpotent truncation)."""
        if self.coeff(0, 0):
            raise ValueError("exp needs a zero constant term")
        out = RefBiSeries.constant(Q(1), self.kx, self.ky)
        term = RefBiSeries.constant(Q(1), self.kx, self.ky)
        bound = self.kx + self.ky
        for m in range(1, bound + 1):
            term = term * self
            if term.is_zero:
                break
            out = out + term * (Q(1) / qfact(m))
        return out

    def inverse(self) -> "RefBiSeries":
        """1/s when the constant term is a nonzero rational."""
        c = self.coeff(0, 0)
        if not c:
            raise ValueError("series with zero constant term is not invertible")
        t = self * (Q(1) / c) - RefBiSeries.constant(Q(1), self.kx, self.ky)
        out = RefBiSeries.constant(Q(1), self.kx, self.ky)
        term = RefBiSeries.constant(Q(1), self.kx, self.ky)
        for m in range(1, self.kx + self.ky + 1):
            term = term * t
            if term.is_zero:
                break
            out = out + term * Q(-1) ** m
        return out * (Q(1) / c)

    def __repr__(self):
        if self.is_zero:
            return f"BiSeries(0; kx={self.kx}, ky={self.ky})"
        bits = [
            f"({rational_str(c)})x^{i}y^{j}"
            for (i, j), c in sorted(self.coeffs.items())
        ]
        return f"BiSeries({' + '.join(bits)}; kx={self.kx}, ky={self.ky})"


def _ref_coerce(x, kx, ky):
    if isinstance(x, RefBiSeries):
        return x
    return RefBiSeries.constant(Q(x), kx, ky)


def ref_binom_inverse_power(m: int, kx: int, ky: int) -> RefBiSeries:
    """(1-x)^(-m) expanded by the negative binomial series, m >= 0."""
    if m == 0:
        return RefBiSeries.constant(Q(1), kx, ky)
    return RefBiSeries(
        {(i, 0): qbinom(m - 1 + i, i) for i in range(kx + 1)}, kx, ky
    )


# -- the differential tests ------------------------------------------------------

ORDERS = [(0, 0), (0, 5), (6, 2), (12, 12)]
# (largest |numerator|, largest denominator) of the drawn coefficients
SMALL, BIG = (9, 6), (10**30, 2**64)


def _draw(rng, kx, ky, dense, size):
    """The same coefficients as a BiSeries and a RefBiSeries.

    Keys reach one past each order, so construction has terms to drop; a
    sparse draw keeps three keys, and one drawn key is set to an exact 0.
    """
    top, den = size
    keys = [(i, j) for i in range(kx + 2) for j in range(ky + 2)]
    if not dense:
        keys = rng.sample(keys, 3)
    coeffs = {k: Fraction(rng.randint(-top, top), rng.randint(1, den)) for k in keys}
    coeffs[rng.choice(keys)] = 0
    return BiSeries(coeffs, kx, ky), RefBiSeries(coeffs, kx, ky)


def _same(new, ref):
    assert isinstance(new, BiSeries)
    assert (new.kx, new.ky) == (ref.kx, ref.ky)
    assert new.coeffs == ref.coeffs
    assert new.is_zero == ref.is_zero
    assert repr(new) == repr(ref)
    for i in range(new.kx + 2):
        for j in range(new.ky + 2):
            assert new.coeff(i, j) == ref.coeff(i, j)


def _unit(pair):
    """The pair with its constant term moved to 3/7 (invertible)."""
    new, ref = pair
    c = new.coeff(0, 0)
    return new - c + Q(3, 7), ref - c + Q(3, 7)


def _nilpotent(pair):
    """The pair with its constant term removed (exp is defined)."""
    new, ref = pair
    c = new.coeff(0, 0)
    return new - c, ref - c


def _ring_ops(x, y):
    (a, ra), (b, rb) = x, y
    scalar = Q(-5, 3)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(-a, -ra)
    _same(a + scalar, ra + scalar)
    _same(scalar + a, scalar + ra)
    _same(a - scalar, ra - scalar)
    _same(a * scalar, ra * scalar)
    _same(scalar * a, scalar * ra)
    _same(a * 0, ra * 0)
    _same(a * b, ra * rb)
    _same(b * a, rb * ra)
    assert (a == b) == (ra == rb)
    assert a == BiSeries(ra.coeffs, ra.kx, ra.ky)
    assert a - a == BiSeries({}, a.kx, a.ky)


@pytest.mark.parametrize("orders", ORDERS)
@pytest.mark.parametrize("dense", [True, False])
def test_ring_ops_match_reference(orders, dense):
    rng = Random(f"biseries-ring-{orders}-{dense}")
    size = SMALL if dense and orders == (12, 12) else BIG
    x = _draw(rng, *orders, dense, size)
    y = _draw(rng, *orders, dense, size)
    _same(*x)
    _ring_ops(x, y)


@pytest.mark.parametrize("left, right", [
    ((0, 0), (0, 5)), ((0, 5), (6, 2)), ((6, 2), (12, 12)), ((12, 12), (0, 5)),
    ((3, 9), (7, 1)),
])
def test_operands_of_different_orders(left, right):
    rng = Random(f"biseries-mixed-{left}-{right}")
    for dense in (True, False):
        x = _draw(rng, *left, dense, BIG if dense else SMALL)
        y = _draw(rng, *right, not dense, SMALL if dense else BIG)
        _ring_ops(x, y)
        _ring_ops(y, x)


@pytest.mark.parametrize("orders", ORDERS)
@pytest.mark.parametrize("dense", [True, False])
def test_exp_and_inverse_match_reference(orders, dense):
    rng = Random(f"biseries-exp-{orders}-{dense}")
    size = BIG if orders != (12, 12) or not dense else SMALL
    x = _draw(rng, *orders, dense, size)
    new, ref = _nilpotent(x)
    _same(new.exp(), ref.exp())
    new, ref = _unit(x)
    _same(new.inverse(), ref.inverse())
    assert new * new.inverse() == BiSeries.constant(1, *orders)


@pytest.mark.parametrize("n", range(4))
def test_projector_identity_sides_match_reference(n, monkeypatch):
    lhs, rhs = projector_identity_lhs(n, 12, 12), projector_identity_rhs(n, 12, 12)
    # the sides import both names from biseries when called; BiSeries's own
    # methods read them there too, so the patch ends before the comparisons
    with monkeypatch.context() as patch:
        patch.setattr(biseries_module, "BiSeries", RefBiSeries)
        patch.setattr(biseries_module, "binom_inverse_power", ref_binom_inverse_power)
        ref_lhs = projector_identity_lhs(n, 12, 12)
        ref_rhs = projector_identity_rhs(n, 12, 12)
    assert isinstance(ref_rhs, RefBiSeries)
    _same(lhs, ref_lhs)
    _same(rhs, ref_rhs)
    assert lhs == rhs


@pytest.mark.parametrize("left, right", [
    ((12, 12), (5, 9)), ((3, 9), (7, 1)), ((0, 6), (6, 0)), ((8, 2), (2, 8)),
])
def test_cut_product_is_the_uncut_product_truncated(left, right):
    # the cut product forms only the pairs that land within the orders; the
    # full pointwise product of phase, cut afterwards, must agree with it
    rng = Random(f"biseries-cut-{left}-{right}")
    kx, ky = min(left[0], right[0]), min(left[1], right[1])
    for dense in (True, False):
        a, _ = _draw(rng, *left, dense, BIG)
        b, _ = _draw(rng, *right, not dense, SMALL)
        uncut = biseries_module._series(a.poly * b.poly, kx, ky)
        assert a * b == uncut and b * a == uncut
        assert (a * b).poly.terms == uncut.poly.terms
