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

import functools
import math
import sys
from fractions import Fraction
from operator import mul

from .backend import Q, ZERO, is_rational, rational_str
from .errors import AccuracyError, DomainError, IntegrabilityError
from .params import nonneg_int
from .poly import Poly, _homogeneous, _row

_ONE = _row([1], 1)


def _decayed(num: int, den: int, rate) -> float:
    """num/den * exp(-rate) for ints num, den > 0 and an exact rational rate.

    The float product is used while rate and num/den convert (correctly
    rounded, whether or not num/den is in lowest terms) and exp(-rate) is a
    normal float; otherwise the product is formed in mpmath's exponent range.
    """
    try:
        decay = math.exp(-float(rate))
        if decay >= sys.float_info.min:
            return num / den * decay
    except OverflowError:
        pass
    return _wide_decayed(num, den, rate)


def _wide_decayed(num: int, den: int, rate) -> float:
    """num/den * exp(-rate) formed in mpmath's exponent range, with guard
    bits for the size of rate (see _wide_exp).  A value past the largest
    float raises AccuracyError; one below the floats rounds as to_float
    rounds it, to a subnormal or to a signed 0.0 (e^-800 gives 0.0).  A
    value that bit lengths alone put under 2^-1076 is that 0.0 without the
    product, which at a huge rate divides ints of a million bits."""
    from mpmath import libmp
    prec, scale = _wide_exp(rate)
    _, _, exp, bc = scale  # exp(-rate) < 2^(exp + bc)
    if num.bit_length() - den.bit_length() + 1 + exp + bc <= -1076:
        return -0.0 if num < 0 else 0.0
    v = libmp.mpf_mul(libmp.from_rational(num, den, prec), scale, prec)
    out = libmp.to_float(v)
    if not math.isfinite(out):
        raise AccuracyError(f"{libmp.to_str(v, 5)} exceeds the float range")
    return out


@functools.lru_cache(maxsize=8)
def _wide_exp(rate):
    """(prec, exp(-rate) at prec bits), prec = 64 + the bits of rate's int
    part.  Kept for the last few rates: partition_of_unity asks one rate at
    every level, and at an integer rate past 2^536 mpmath's exp takes a
    power path about 100 times slower than at a non-integer one."""
    from mpmath import libmp
    prec = 64 + (rate.numerator // rate.denominator).bit_length()
    return prec, libmp.mpf_exp(libmp.from_rational(-rate.numerator, rate.denominator, prec), prec)


@functools.lru_cache(maxsize=64)
def _exp_prefix(h: int, cls: int):
    """(lo, e): exp(h 2^-64) lies in [lo 2^e, (lo + 3) 2^e], 2^(cls - 2) <
    lo < 2^cls, from one exp rounded down at cls bits.  mpmath rounds an
    approximation carried with 14 guard bits, which can lie a hair to either
    side of the value, so the rounded M 2^e gives lo = M - 1 and lo + 3.
    Kept per (h, cls): past its first steps a bisection's exponents share
    their leading 64 fractional bits, and a class lasts it 64 steps.  Only
    a miss imports mpmath."""
    from mpmath import libmp
    _, man, e, bc = libmp.mpf_exp(libmp.from_man_exp(h, -64), cls, "f")
    return (man << (cls - bc)) - 1, e - (cls - bc)


def _cut_exp(q: int, prec: int):
    """(lo, hi, e): exp(x) lies in [lo 2^e, hi 2^e] for every x in
    [q 2^-s, (q + 1) 2^-s], s = prec + 8, q < 0, and hi - lo is a small int,
    under an ulp at prec bits.

    q splits as h 2^(s - 64) + l, 0 <= l < 2^(s - 64) (l = 0 when s <= 64),
    so exp(q 2^-s) = exp(h 2^-64) exp(l 2^-s), the second under exp(2^-64).
    The first is _exp_prefix's [p, p + 3] at the class cls, the least
    multiple of 64 at least prec + 16, so its rounding lies 16 bits under
    the ulp.  The second is a Taylor sum on ints started at p, each term
    floored from the one before: the sum lo is a lower bound, each of its j
    terms lies under its true value by less than a unit and a hair, and the
    terms left out add less than a hair, so p exp(l 2^-s) < lo + j + 1.  The
    prefix's upper end p + 3 adds under 4 units, and the cut factor
    exp(2^-s) < 1 + 2^-s + 2^-2s takes v = lo + j + 5 to under
    v + (v >> s) + (v >> 2s) + 2."""
    s = prec + 8
    cut = s - 64
    if cut > 0:
        h, l = q >> cut, q & ((1 << cut) - 1)
    else:
        h, l = q << -cut, 0
    lo, e = _exp_prefix(h, (prec + 79) & -64)
    term = lo
    j = 0
    while term:
        j += 1
        term = (term * l >> s) // j
        lo += term
    v = lo + j + 5
    return lo, v + (v >> s) + (v >> 2 * s) + 2, e


def _bound_signs(n0: int, parts, prec: int):
    """Signs of a lower and an upper bound of n0 + sum n exp(num/den) over
    parts, on ints, for exponents num/den < 0.

    Each exponent is cut by one int division to s = prec + 8 fractional
    bits, q = floor(num 2^s / den), and _cut_exp brackets exp over [q 2^-s,
    (q + 1) 2^-s] as [lo 2^e, hi 2^e]: the cached prefix's bracket times a
    Taylor tail's, whose width hi - lo is a small int.  The lower bound, sum
    n lo 2^e for n > 0 and n hi 2^e for n < 0, and the width, sum |n| (hi -
    lo) 2^e, are summed in one pass; the upper bound is their sum.  A part
    whose larger end |n| hi 2^e lies below 2^floor, 2*prec bits under the
    largest, counts as -2^floor and widens the sum by 2^(floor + 1), so no
    shift grows with the exponents' spread."""
    s = prec + 8
    ends = []
    top = n0.bit_length()
    for n, num, den in parts:
        lo, hi, e = _cut_exp((num << s) // den, prec)
        size = n.bit_length() + hi.bit_length() + e  # |n| hi 2^e < 2^size
        if size > top:
            top = size
        ends.append((n * (lo if n > 0 else hi), abs(n) * (hi - lo), e, size))
    floor = top - 2 * prec
    base = min(floor, 0)
    for _, _, e, size in ends:
        if size > floor and e < base:
            base = e
    if n0.bit_length() > floor:
        low, dropped = n0 << -base, 0
    else:
        low, dropped = 0, 1
    wide = 0
    for end, wid, e, size in ends:
        if size > floor:
            low += end << (e - base)
            wide += wid << (e - base)
        else:
            dropped += 1
    low -= dropped << (floor - base)
    high = low + wide + (dropped << (floor + 1 - base))
    return (low > 0) - (low < 0), (high > 0) - (high < 0)


class ExpPoly:
    __slots__ = ("terms", "_plan")

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
    def is_single_rate(self) -> bool:
        return len(self.terms) == 1

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
        """Float value at mu, polynomial parts exact (a float mu is read as
        the rational it is).  A term whose exp is subnormal or whose float
        product overflows is formed in mpmath's exponent range; the rest keep
        their bytes, even a 0 from an exp that underflowed (ROADMAP item 3)."""
        if isinstance(mu, float) and not math.isfinite(mu):
            raise DomainError(f"mu = {mu} is not a finite number")
        x = Fraction(mu) if isinstance(mu, float) else Q(mu)
        total = 0.0
        for r, p in self.terms.items():
            c = p(x)
            try:
                decay = math.exp(-float(r) * float(x))
                if not 0.0 < decay < sys.float_info.min:
                    total += float(c) * decay
                    continue
            except OverflowError:
                pass
            total += _wide_decayed(c.numerator, c.denominator, r * x)
        return total

    def sign_at(self, mu) -> int:
        """Exact sign at rational mu >= 0: -1, 0, or +1.

        The values exp(-r*mu) for distinct positive r*mu are linearly
        independent over the rationals, so the value is zero iff every
        polynomial factor vanishes at mu.  Otherwise the parts, exact ints
        over one denominator, are divided by exp(-r0*mu) > 0, r0 the slowest
        rate whose part is nonzero at mu: that part is the exact int n0, and
        each other exponent -(r - r0)*a/b < 0 is formed on ints.  Each other
        part's exp is bracketed under an ulp wide: a cached exp of the cut
        exponent's leading 64 fractional bits, whose bracket holds mpmath's
        rounding, times a short Taylor sum of the rest on ints, whose bracket
        holds the floors and the cut (see _cut_exp).  The brackets bound the
        sum from both sides (see _bound_signs) until a bound decides the
        sign.  A point a/b can lie within about 2^-bits(b) of a root, so the
        bounds start at 64 + bits(b) bits and double up to max(4096, 4 *
        start); a bisection's exponents share their leading bits after its
        first steps, so it asks mpmath for an exp about once per 64-bit
        prefix and class, not once per point.

        What no point changes is built on the first multi-rate call and
        kept in the _plan slot (see _sign_plan): the rows over one
        denominator and padded to one degree, slowest rate first, and the
        rate differences.  It depends on terms alone, so it never goes stale.
        """
        x = Q(mu)
        a, b = x.numerator, x.denominator
        if a < 0:
            raise DomainError("sign_at is defined on [0, inf)")
        terms = self.terms
        if len(terms) == 1:  # one exact part: its sign, on ints
            return next(iter(terms.values())).sign_at(x)
        if not a:  # every term lands on exp(0) = 1: one exact rational
            v = self.at_zero()
            return (v > 0) - (v < 0)
        try:
            rows, exps = self._plan
        except AttributeError:
            rows, exps = self._sign_plan()
        # b^deg times each part at a/b, over the common denominator; distinct
        # rates keep distinct exponents r*x, so no parts merge
        parts = [_homogeneous(row, a, b) * scale for row, scale in rows]
        for i, n0 in enumerate(parts):  # the slowest nonzero part
            if n0:
                break
        else:
            return 0
        later = parts[i + 1:]
        if min(later, default=0) >= 0 if n0 > 0 else max(later, default=0) <= 0:  # one sign
            return 1 if n0 > 0 else -1
        rest = [(n, d * a, e * b) for n, (d, e) in zip(later, exps[i]) if n]
        prec = 64 + b.bit_length()
        top = max(4096, 4 * prec)
        while True:
            lower, upper = _bound_signs(n0, rest, prec)
            if lower > 0:
                return 1
            if upper < 0:
                return -1
            if prec >= top:
                raise AccuracyError(f"sign did not resolve at {top} bits")  # pragma: no cover
            prec = min(2 * prec, top)

    def _sign_plan(self):
        """sign_at's per-form setup, kept in the _plan slot: (rows, exps),
        slowest rate first.  rows holds each factor's int row, padded with
        zero coefficients up to the largest degree so that _homogeneous
        gives every part times the same b^deg, and its scale to the common
        denominator lcm(den_r); a padded row shares the factor's ints.
        exps[i] holds, for each faster rate u'/v' after the i-th rate u/v,
        the pair (u v' - u' v, v v'): the exponent -(u'/v' - u/v) a/b is
        (u v' - u' v) a / (v v' b)."""
        terms = sorted(self.terms.items())
        size = max([len(p.nums) for _, p in terms])
        den = math.lcm(*[p.den for _, p in terms])
        rows = tuple([(p.nums + (0,) * (size - len(p.nums)), den // p.den) for _, p in terms])
        exps = tuple([
            tuple([(r.numerator * s.denominator - s.numerator * r.denominator,
                    r.denominator * s.denominator) for s, _ in terms[i + 1:]])
            for i, (r, _) in enumerate(terms)])
        object.__setattr__(self, "_plan", (rows, exps))
        return rows, exps

    def nonneg_on_nonneg(self):
        """Exact verdict when decidable: (True|False|None, witness).

        Single-rate forms are fully decidable by root isolation on the
        polynomial factor.  For mixed rates: all factors nonnegative is
        sufficient; the slowest rate dominates as mu grows, so a negative
        leading coefficient there yields a witness by doubling; otherwise
        candidate points are sign-checked exactly and None means undecided.
        """
        from . import rootisolate
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


@functools.lru_cache(maxsize=1024)
def _gamma_weights(a: int, b: int, top: int) -> tuple:
    """W_k = k! b^(k+1) a^(top-k), k = 0..top: a^(top+1) k!/c^(k+1), c = a/b,
    the integral of mu^k exp(-c mu) over [0, inf) over one denominator."""
    w, t, ap = [], b, a**top
    for k in range(top + 1):
        w.append(t * ap)
        t, ap = t * (k + 1) * b, ap // a
    return tuple(w)


def _pair_rows(p: Poly, q: Poly, rate):
    """Exact integral of p(mu) q(mu) exp(-rate mu) over [0, inf), on ints and
    with no product row: for rate = a/b and D = deg p + deg q, the sum over i, j
    of P_i Q_j W_(i+j) over den_p den_q a^(D+1), W = _gamma_weights(a, b, D).
    The zeros of p are skipped, so the sparser or shorter row goes first."""
    P, R = p.nums, q.nums
    if not P or not R:
        return ZERO
    a, n = rate.numerator, len(R)
    w = _gamma_weights(a, rate.denominator, len(P) + n - 2)
    total = sum([x * sum(map(mul, R, w[i:i + n])) for i, x in enumerate(P) if x])
    return Fraction(total, p.den * q.den * a ** len(w))


def _pair(f: ExpPoly, g: ExpPoly):
    """Exact integral of f g over [0, inf): _pair_rows over the rate pairs."""
    return sum([_pair_rows(p, q, r + s) for r, p in f.terms.items()
                for s, q in g.terms.items()], ZERO)


def exp_integral(f: ExpPoly):
    """Exact integral of f over [0, inf): each part paired with 1."""
    return sum([_pair_rows(_ONE, p, r) for r, p in f.terms.items()], ZERO)


def mu_times(f: ExpPoly, power: int = 1) -> ExpPoly:
    """mu^power * f, exact."""
    nonneg_int("power", power)
    return ExpPoly([(p.shift(power), r) for r, p in f.terms.items()])
