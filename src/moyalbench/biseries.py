"""Truncated bivariate power series with exact rational coefficients.

A BiSeries keeps the coefficients c[i][j] of x^i y^j for i <= kx, j <= ky
and discards everything above; binary operations propagate orders as the
min over operands.  Below the truncation orders the arithmetic is exact, so
two convergent expansions agree iff all retained coefficients match.
"""

from __future__ import annotations

from .backend import Q, ZERO, qbinom, qfact, rational_str


class BiSeries:
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

    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _orders_with(self, other):
        return min(self.kx, other.kx), min(self.ky, other.ky)

    def __add__(self, other):
        other = _coerce(other, self.kx, self.ky)
        kx, ky = self._orders_with(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, ZERO) + c
        return BiSeries(out, kx, ky)

    __radd__ = __add__

    def __neg__(self):
        return BiSeries({k: -c for k, c in self.coeffs.items()}, self.kx, self.ky)

    def __sub__(self, other):
        return self + (-_coerce(other, self.kx, self.ky))

    def __rsub__(self, other):
        return _coerce(other, self.kx, self.ky) - self

    def __mul__(self, other):
        if not isinstance(other, BiSeries):
            return BiSeries(
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
        return BiSeries(out, kx, ky)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use inverse() for negative powers")
        out = BiSeries.constant(Q(1), self.kx, self.ky)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (
            self.kx == other.kx
            and self.ky == other.ky
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.kx, self.ky, tuple(sorted(self.coeffs.items()))))

    def exp(self) -> "BiSeries":
        """exp(s) for a series with zero constant term (nilpotent truncation)."""
        if self.coeff(0, 0):
            raise ValueError("exp needs a zero constant term")
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
            raise ValueError("series with zero constant term is not invertible")
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


def _coerce(x, kx, ky):
    if isinstance(x, BiSeries):
        return x
    return BiSeries.constant(Q(x), kx, ky)


def binom_inverse_power(m: int, kx: int, ky: int) -> BiSeries:
    """(1-x)^(-m) expanded by the negative binomial series, m >= 0."""
    if m == 0:
        return BiSeries.constant(Q(1), kx, ky)
    return BiSeries(
        {(i, 0): qbinom(m - 1 + i, i) for i in range(kx + 1)}, kx, ky
    )
