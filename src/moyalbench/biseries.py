"""Truncated bivariate power series with exact rational coefficients.

A BiSeries keeps the coefficients c[i][j] of x^i y^j for i <= kx, j <= ky
and discards everything above; binary operations propagate orders as the
min over operands.  Below the truncation orders the arithmetic is exact, so
two convergent expansions agree iff all retained coefficients match.

The coefficients live in a real, hbar-free PhasePoly (x -> a, y -> abar),
so sums run on phase's integer arithmetic and are cut back to their orders.
A product forms only the pairs of terms that land within its orders.
"""

from __future__ import annotations

from fractions import Fraction

from .backend import Q, ZERO, qbinom, qfact, rational_str
from .errors import DomainError
from .params import nonneg_int
from .phase import PhasePoly, _poly


def _series(poly: PhasePoly, kx: int, ky: int) -> "BiSeries":
    """The series of poly's terms with i <= kx and j <= ky."""
    kept = {k: v for k, v in poly.terms.items() if k[0] <= kx and k[1] <= ky}
    return _wrap(poly if len(kept) == len(poly.terms) else _poly(kept, poly.den), kx, ky)


def _wrap(poly: PhasePoly, kx: int, ky: int) -> "BiSeries":
    """The series of a poly with no term beyond the orders."""
    out = object.__new__(BiSeries)
    object.__setattr__(out, "poly", poly)
    object.__setattr__(out, "kx", kx)
    object.__setattr__(out, "ky", ky)
    return out


def _cut_product(f: PhasePoly, g: PhasePoly, kx: int, ky: int) -> "BiSeries":
    """The series of f * g to orders (kx, ky), formed from only the pairs of
    terms whose exponents sum within them (f and g real and hbar-free)."""
    rows = [[] for _ in range(kx + 1)]  # g's terms by x-power, sorted by y-power
    for (i, j, _), (c, _) in sorted(g.terms.items()):
        if i <= kx and j <= ky:
            rows[i].append((j, c))
    width = ky + 1
    acc = [0] * ((kx + 1) * width)
    for (i, j, _), (c, _) in f.terms.items():
        if i > kx or j > ky:
            continue
        room = ky - j
        for x, row in enumerate(rows[: kx - i + 1], i):  # x = i + g's x-power
            base = x * width + j
            for j2, c2 in row:
                if j2 > room:
                    break
                acc[base + j2] += c * c2
    terms = {(*divmod(k, width), 0): (v, 0) for k, v in enumerate(acc) if v}
    return _wrap(_poly(terms, f.den * g.den), kx, ky)


class BiSeries:
    __slots__ = ("poly", "kx", "ky")

    def __new__(cls, coeffs, kx: int, ky: int):
        """From {(i, j): rational}; terms above the orders are dropped."""
        nonneg_int("kx", kx)
        nonneg_int("ky", ky)
        return _series(PhasePoly.build(coeffs), kx, ky)

    def __setattr__(self, *_):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def constant(cls, c, kx: int, ky: int) -> "BiSeries":
        return cls({(0, 0): Q(c)}, kx, ky)

    @classmethod
    def monomial(cls, i: int, j: int, c, kx: int, ky: int) -> "BiSeries":
        return cls({(i, j): Q(c)}, kx, ky)

    @classmethod
    def var_x(cls, kx: int, ky: int) -> "BiSeries":
        return cls.monomial(1, 0, Q(1), kx, ky)

    @classmethod
    def var_y(cls, kx: int, ky: int) -> "BiSeries":
        return cls.monomial(0, 1, Q(1), kx, ky)

    @property
    def coeffs(self) -> dict:
        """{(i, j): c} for the nonzero coefficients, built on each read."""
        den = self.poly.den
        return {
            (i, j): Fraction(re, den) for (i, j, _), (re, _im) in self.poly.terms.items()
        }

    def coeff(self, i: int, j: int):
        v = self.poly.terms.get((i, j, 0))
        return ZERO if v is None else Fraction(v[0], self.poly.den)

    @property
    def is_zero(self) -> bool:
        return not self.poly.terms

    def _operand(self, other):
        """other's PhasePoly, or a rational for PhasePoly's scalar operators,
        and the orders of the result."""
        if isinstance(other, BiSeries):
            return other.poly, min(self.kx, other.kx), min(self.ky, other.ky)
        return Q(other), self.kx, self.ky

    def __add__(self, other):
        poly, kx, ky = self._operand(other)
        return _series(self.poly + poly, kx, ky)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(-self.poly, self.kx, self.ky)

    def __sub__(self, other):
        poly, kx, ky = self._operand(other)
        return _series(self.poly - poly, kx, ky)

    def __mul__(self, other):
        if isinstance(other, BiSeries):
            return _cut_product(self.poly, other.poly,
                                min(self.kx, other.kx), min(self.ky, other.ky))
        return _wrap(self.poly * Q(other), self.kx, self.ky)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.kx == other.kx and self.ky == other.ky and self.poly == other.poly

    def __hash__(self):
        return hash((self.kx, self.ky, self.poly))

    def exp(self) -> "BiSeries":
        """exp(s) for a series with zero constant term (nilpotent truncation)."""
        if self.coeff(0, 0):
            raise DomainError("exp needs a zero constant term")
        out = BiSeries.constant(Q(1), self.kx, self.ky)
        term = BiSeries.constant(Q(1), self.kx, self.ky)
        bound = self.kx + self.ky
        for m in range(1, bound + 1):
            term = term * self
            if term.is_zero:
                break
            out = out + term * (Q(1) / qfact(m))
        return out

    def inverse(self) -> "BiSeries":
        """1/s when the constant term is a nonzero rational."""
        c = self.coeff(0, 0)
        if not c:
            raise DomainError("series with zero constant term is not invertible")
        t = self * (Q(1) / c) - BiSeries.constant(Q(1), self.kx, self.ky)
        out = BiSeries.constant(Q(1), self.kx, self.ky)
        term = BiSeries.constant(Q(1), self.kx, self.ky)
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


def binom_inverse_power(m: int, kx: int, ky: int) -> BiSeries:
    """(1-x)^(-m) expanded by the negative binomial series, m >= 0."""
    if m == 0:
        return BiSeries.constant(Q(1), kx, ky)
    return BiSeries(
        {(i, 0): qbinom(m - 1 + i, i) for i in range(kx + 1)}, kx, ky
    )
