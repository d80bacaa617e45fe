"""Exponential polynomials: finite sums of p(mu) * exp(-r*mu) with r > 0.

This class carries every radial quantity in the workbench (spectral
projectors, energy distributions).  It is closed under +, *, d/dmu, and is
exactly integrable over [0, inf) via Gamma moments:

    integral of mu^k exp(-c mu)  =  k! / c^(k+1).

Rates are exact positive rationals; terms with equal rates are merged and
zero polynomials dropped, so equality is decidable by comparing canonical
forms.
"""

from __future__ import annotations

import math

import mpmath

from .backend import Q, ZERO, is_rational, qfact, rational_str
from .errors import AccuracyError, IntegrabilityError
from .poly import Poly
from . import rootisolate


class ExpPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """terms: iterable of (poly, rate); rates must be positive rationals."""
        merged = {}
        for poly, rate in terms:
            rate = Q(rate)
            if rate <= 0:
                raise IntegrabilityError(
                    f"rate {rational_str(rate)} <= 0 is not integrable on [0, inf)"
                )
            if not isinstance(poly, Poly):
                poly = Poly.const(Q(poly))
            if poly.is_zero:
                continue
            if rate in merged:
                merged[rate] = merged[rate] + poly
            else:
                merged[rate] = poly
        object.__setattr__(
            self, "terms", {r: p for r, p in merged.items() if not p.is_zero}
        )

    def __setattr__(self, *_):
        raise AttributeError("ExpPoly is immutable")

    @classmethod
    def single(cls, poly, rate) -> "ExpPoly":
        return cls([(poly, rate)])

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def rates(self):
        return sorted(self.terms)

    @property
    def is_single_rate(self) -> bool:
        return len(self.terms) == 1

    def poly_factor(self, rate) -> Poly:
        return self.terms.get(Q(rate), Poly())

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(
            [(p, r) for r, p in self.terms.items()]
            + [(p, r) for r, p in other.terms.items()]
        )

    def __neg__(self):
        return ExpPoly([(-p, r) for r, p in self.terms.items()])

    def __sub__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            out = []
            for r1, p1 in self.terms.items():
                for r2, p2 in other.terms.items():
                    out.append((p1 * p2, r1 + r2))
            return ExpPoly(out)
        if is_rational(other):
            return ExpPoly([(p * other, r) for r, p in self.terms.items()])
        if isinstance(other, Poly):
            return ExpPoly([(p * other, r) for r, p in self.terms.items()])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return ExpPoly([(p / scalar, r) for r, p in self.terms.items()])

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted((r, p.coeffs) for r, p in self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def derivative(self) -> "ExpPoly":
        """d/dmu, exact: (p e^{-r mu})' = (p' - r p) e^{-r mu}."""
        return ExpPoly(
            [(p.derivative() - p * r, r) for r, p in self.terms.items()]
        )

    def at_zero(self):
        """Exact value at mu = 0."""
        return sum((p(ZERO) for p in self.terms.values()), ZERO)

    def __call__(self, mu) -> float:
        """Float value at mu; polynomial parts evaluate exactly first."""
        x = Q(mu) if not isinstance(mu, float) else mu
        total = 0.0
        for r, p in self.terms.items():
            total += float(p(x)) * math.exp(-float(r) * float(x))
        return total

    def sign_at(self, mu) -> int:
        """Exact sign at rational mu >= 0: -1, 0, or +1.

        The values exp(-r*mu) for distinct positive r*mu are linearly
        independent over the rationals, so the value is zero iff every
        polynomial factor vanishes at mu; otherwise outward-rounded interval
        evaluation terminates at some precision.
        """
        x = Q(mu)
        if x < 0:
            raise ValueError("sign_at is defined on [0, inf)")
        # merge by exponent value: at x = 0 every term lands on exp(0) = 1
        # and the value collapses to one exact rational
        by_exp: dict = {}
        for r, p in self.terms.items():
            e = r * x
            by_exp[e] = by_exp.get(e, ZERO) + p(x)
        parts = [(c, e) for e, c in by_exp.items() if c]
        if not parts:
            return 0
        if len(parts) == 1:
            return 1 if parts[0][0] > 0 else -1
        if all(c > 0 for c, _ in parts):
            return 1
        if all(c < 0 for c, _ in parts):
            return -1
        saved = mpmath.iv.prec
        try:
            for prec in (64, 128, 256, 512, 1024, 2048, 4096):
                mpmath.iv.prec = prec
                iv = mpmath.iv.mpf(0)
                for c, e in parts:
                    coeff = mpmath.iv.mpf(c.numerator) / mpmath.iv.mpf(c.denominator)
                    expo = mpmath.iv.exp(
                        -mpmath.iv.mpf(e.numerator) / mpmath.iv.mpf(e.denominator)
                    )
                    iv += coeff * expo
                if iv.b < 0:
                    return -1
                if iv.a > 0:
                    return 1
        finally:
            mpmath.iv.prec = saved
        raise AccuracyError("sign did not resolve at 4096 bits")  # pragma: no cover

    def nonneg_on_nonneg(self):
        """Exact verdict when decidable: (True|False|None, witness).

        Single-rate forms are fully decidable by root isolation on the
        polynomial factor.  For mixed rates: all factors nonnegative is
        sufficient; the slowest rate dominates as mu grows, so a negative
        leading coefficient there yields a witness by doubling; otherwise
        candidate points are sign-checked exactly and None means undecided.
        """
        if self.is_zero:
            return True, None
        checks = [rootisolate.nonneg_on_nonneg(p) for p in self.terms.values()]
        if all(ok for ok, _ in checks):
            return True, None
        if self.is_single_rate:
            (_, witness), = checks
            return False, witness
        slowest = min(self.terms)
        if self.terms[slowest].leading < 0:
            x = Q(1)
            for _ in range(1024):
                if self.sign_at(x) < 0:
                    return False, x
                x *= 2
        for ok, witness in checks:
            if not ok and self.sign_at(witness) < 0:
                return False, witness
        return None, None

    def to_json_obj(self):
        out = []
        for r in sorted(self.terms):
            p = self.terms[r]
            out.append(
                {
                    "coeffs": [rational_str(c) for c in p.coeffs],
                    "rate": rational_str(r),
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj) -> "ExpPoly":
        return cls(
            [
                (Poly([Q(c) for c in t["coeffs"]]), Q(t["rate"]))
                for t in obj
            ]
        )

    def __repr__(self):
        if self.is_zero:
            return "ExpPoly(0)"
        bits = [
            f"[{p!r}]*exp(-{rational_str(r)}*mu)" for r, p in sorted(self.terms.items())
        ]
        return "ExpPoly(" + " + ".join(bits) + ")"


def exp_integral(f: ExpPoly):
    """Exact integral of f over [0, inf)."""
    total = ZERO
    for r, p in f.terms.items():
        if r <= 0:
            raise IntegrabilityError("nonpositive rate")
        for k, c in enumerate(p.coeffs):
            if c:
                total += c * qfact(k) / r ** (k + 1)
    return total


def mu_times(f: ExpPoly, power: int = 1) -> ExpPoly:
    """mu^power * f, exact."""
    return ExpPoly([(p.shift(power), r) for r, p in f.terms.items()])
