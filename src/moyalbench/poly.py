"""Dense univariate polynomials with exact rational coefficients.

A Poly is int numerators ``nums`` (ascending degree) over one denominator
``den`` > 0, as FLINT's fmpq_poly, kept canonical (nonzero leading numerator,
gcd(den, *nums) == 1, zero = ((), 1)).  Arithmetic costs one gcd per result, a
value one Fraction, a sign none; ``coeffs`` builds Fractions on each read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .backend import Q, ZERO, content_gcd, is_rational
from .params import nonneg_int


def _row(nums, den: int) -> "Poly":
    """The canonical Poly of int numerators over den > 0."""
    while nums and not nums[-1]:
        nums = nums[:-1]
    g = content_gcd(den, nums)
    p = object.__new__(Poly)
    # from a list: tuple(generator) resizes, and fills the tuple free lists
    object.__setattr__(p, "nums", tuple(nums) if g == 1 else tuple([x // g for x in nums]))
    object.__setattr__(p, "den", den // g)
    return p


def _homogeneous(nums, a: int, b: int) -> int:
    """sum nums[k] a^k b^(d-k): b^d times the row's value at a/b.

    At a dyadic point, b = 2^k (every bisection midpoint), the powers of b
    are shifts: Horner adds nums[d-j] << (k j) in place of nums[d-j] b^j."""
    acc = 0
    if b & (b - 1):
        bp = 1
        for n in reversed(nums):
            acc = acc * a + n * bp
            bp *= b
        return acc
    k = b.bit_length() - 1
    s = 0
    for n in reversed(nums):
        acc = acc * a + (n << s)
        s += k
    return acc


class Poly:
    __slots__ = ("nums", "den")

    def __new__(cls, coeffs=()):
        """From exact rational coefficients by ascending degree."""
        qs = [c if isinstance(c, Fraction) else Q(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in qs])
        return _row([c.numerator * (den // c.denominator) for c in qs], den)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=Q(1)) -> "Poly":
        c = Q(c)
        return _row([0] * nonneg_int("k", k) + [c.numerator], c.denominator)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built on each read."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self.nums, other.nums, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a = [n * (den // self.den) for n in a]
            b = [n * (den // other.den) for n in b]
        return _row([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __neg__(self):
        return _row([-n for n in self.nums], self.den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.nums, other.nums
            out = [0] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    out[j] += x * y
            return _row(out, self.den * other.den)
        if is_rational(other):
            n, d = other.numerator, other.denominator
            return _row([c * n for c in self.nums], self.den * d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        n, d = scalar.numerator, scalar.denominator
        if not n:
            raise ZeroDivisionError("polynomial division by zero")
        if n < 0:
            n, d = -n, -d
        return _row([c * d for c in self.nums], self.den * n)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self):
        return bool(self.nums)

    def derivative(self) -> "Poly":
        nums = self.nums
        return _row([k * nums[k] for k in range(1, len(nums))], self.den)

    def __call__(self, x):
        """Exact value at a rational x; at a float x, Horner over the
        correctly rounded float(coefficient), as float(Fraction) gives."""
        nums, den = self.nums, self.den
        if isinstance(x, float):
            acc = nums[-1] / den if nums else 0.0
            for k in range(len(nums) - 2, -1, -1):
                acc = acc * x + nums[k] / den
            return acc
        if not nums:
            return ZERO
        b = x.denominator
        return Fraction(_homogeneous(nums, x.numerator, b), den * b ** (len(nums) - 1))

    def sign_at(self, x) -> int:
        """Sign of the value at a rational x: -1, 0 or +1, on ints only."""
        v = _homogeneous(self.nums, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def scale_arg(self, c) -> "Poly":
        """p(c*x), c = a/b: nums[k] a^k b^(d-k) over den * b^d."""
        a, b = c.numerator, c.denominator
        out, ap, bp = list(self.nums), 1, 1
        for k in range(len(out)):
            out[k] *= ap
            out[-1 - k] *= bp
            ap *= a
            bp *= b
        return _row(out, self.den * b ** max(len(out) - 1, 0))

    def shift(self, k: int) -> "Poly":
        """p(x) * x^k."""
        nonneg_int("k", k)
        return _row((0,) * k + self.nums, self.den) if self.nums else self

    def monic(self) -> "Poly":
        return self / self.leading if self.nums else self

    def primitive(self) -> "Poly":
        """The int row divided by the gcd of its entries: self times a
        positive rational, over den 1, with every sign kept."""
        g = math.gcd(*self.nums)
        return _row([n // g for n in self.nums], 1) if g else self

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})*x^{k}" if k else f"({c})")
        return "Poly(" + " + ".join(parts) + ")"


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if is_rational(x):
        return Poly.const(Q(x))
    return NotImplemented


def divmod_poly(num: Poly, den: Poly):
    """Exact (quotient, remainder) by int pseudo-division m*A = q*B + r of
    the rows of num = A/da, den = B/db: q db/(m da) and r/(m da).  Each step
    scales by |lc(B)|/gcd, never negative, so r keeps the remainder's signs."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    b, db = den.nums, den.degree
    lc_abs, s = abs(b[-1]), 1 if b[-1] > 0 else -1
    r, q, m = list(num.nums), [0] * max(num.degree - db + 1, 0), 1
    for k in range(len(r) - 1, db - 1, -1):
        top = r.pop()
        if not top:
            continue
        g = math.gcd(top, lc_abs)
        if lc_abs != g:
            f = lc_abs // g
            r, q, m = [x * f for x in r], [x * f for x in q], m * f
        c = s * top // g
        q[k - db] = c
        for j in range(db):
            r[k - db + j] -= c * b[j]
    return _row([c * den.den for c in q], m * num.den), _row(r, m * num.den)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (Euclid on primitive int rows)."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:
        _, r = divmod_poly(a, b)
        a, b = b, r.primitive()
    return a.monic()
