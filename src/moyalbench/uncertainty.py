"""Classical vs quantum energy moments and the uncertainty selection scan.

For the basic distribution p_k under the lam-quantization the classical
moments are Gamma-moment integrals and the quantum ones sums over levels
with binomial weights C(k,n) lam^n (1-lam)^{k-n}.  Their closed forms, which
the verify catalog and the tests compare them with, are

    classical:  mean lam(k+1),  second lam^2(k+1)(k+2),  variance lam^2(k+1)
    quantum:    mean (k+1) lam  (identical: the energy identity),
                second (k^2+k+1) lam^2 + k lam,  variance k lam (1-lam).

Requiring quantum variance < classical variance gives k lam(1-lam) <
(k+1) lam^2, i.e. lam > k/(2k+1) for every k, which on the canonical range
(0, 1/2] singles out lam = 1/2 (the Groenewold-Moyal form).  There the
variance gap is the constant 1/4 and the uncertainty gap (sqrt(k+1) -
sqrt(k))/2 tends to zero; for any fixed lam < 1/2 it does not.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .backend import Q, rceil
from .errors import AccuracyError
from .exppoly import _pair_rows, exp_integral, mu_times
from .observables import basic_distribution, binomial_weight_ints
from .params import as_lambda, nonneg_int
from .poly import _row


def classical_moments(k: int, lam):
    """(mean, second, variance) of mu under p_k, exact: the Gamma-moment
    integrals of mu p_k and mu^2 p_k."""
    form = basic_distribution(k, lam)
    mean, second = exp_integral(mu_times(form)), exp_integral(mu_times(form, 2))
    return mean, second, second - mean * mean


def quantum_moments(k: int, lam):
    """(mean, second, variance) of the level energies n + lam, exact.

    Binomial-weighted sums: with lam = p/q the j-th moment is
    sum (nq + p)^j w_n over q^(k+j), on ints.
    """
    lam = as_lambda(lam, lo_open=True)
    p, q = lam.numerator, lam.denominator
    w, den = binomial_weight_ints(k, lam)
    e = range(p, p + q * len(w), q)  # nq + p, n = 0..k
    s1 = sum(map(mul, e, w))
    s2 = sum(map(mul, map(mul, e, e), w))
    return (Fraction(s1, den * q), Fraction(s2, den * q * q),
            Fraction(s2 * den - s1 * s1, (den * q) ** 2))


def radial_square(lam):
    """(H *_lam H)/(hbar omega)^2 on the radial line, as a row in mu: the
    quadratic comes out of the phase-space product itself (dimensionless
    units, s = hbar mu with hbar set to 1)."""
    from .phase import hamiltonian, star
    h = hamiltonian()
    hh = star(h, h, lam)
    nums = [0, 0, 0]
    for (i, _, _), (re, _) in hh.terms.items():
        nums[i] += re  # (a abar)^i hbar^d, with hbar -> 1 (dimensionless)
    return _row(nums, hh.den)


def radial_square_moment(k: int, lam, quadratic):
    """integral of quadratic(mu) p_k(mu) dmu over [0, inf), exact.  With
    quadratic = radial_square(lam) it is the quantum second moment of p_k."""
    (rate, poly), = basic_distribution(k, lam).terms.items()
    return _pair_rows(poly, quadratic, rate)


# -- the selection inequality -----------------------------------------------

class SelectionVerdict(NamedTuple):
    k: int
    lam: object
    quantum_variance: object
    classical_variance: object
    passes: bool
    boundary: bool


def _variance_numerators(k: int, p: int, q: int):
    """k lam(1-lam) and (k+1) lam^2 for lam = p/q, as numerators over q^2."""
    return k * p * (q - p), (k + 1) * p * p


_FLOAT_END = (1 << 1024) - (1 << 970)  # the least magnitude that rounds to inf


def _std_gap(qv: int, cv: int, q: int) -> float:
    """(sqrt(cv) - sqrt(qv))/q for ints cv >= 1, qv >= 0, as the quotient
    (cv - qv)/(q (sqrt(cv) + sqrt(qv))), which does not cancel."""
    if qv == cv:
        return 0.0
    num = (cv - qv) << 64
    den = q * (math.isqrt(cv << 128) + math.isqrt(qv << 128))
    if abs(num) < den * _FLOAT_END and abs(v := num / den) >= sys.float_info.min:
        return v
    raise AccuracyError("the std gap is outside the normal floats")


def selection_inequality(k: int, lam) -> SelectionVerdict:
    """Strict test  k lam (1-lam) < (k+1) lam^2, with boundary equality flagged."""
    nonneg_int("k", k)
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    p, q = lam.numerator, lam.denominator
    qv, cv = _variance_numerators(k, p, q)
    return SelectionVerdict(
        k=k,
        lam=lam,
        quantum_variance=Q(qv, q * q),
        classical_variance=Q(cv, q * q),
        passes=qv < cv,
        boundary=qv == cv,
    )


def threshold_k(lam):
    """Least k at which the inequality fails: ceil(lam/(1-2 lam)); None at 1/2."""
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    if lam == Q(1, 2):
        return None
    return rceil(lam / (1 - 2 * lam))


class ScanEntry(NamedTuple):
    lam: object
    first_fail_k: object  # int or None (no failure up to k_max)
    predicted_k: object
    matches_prediction: bool
    boundary_at_fail: bool


def default_lambda_grid(max_denominator: int = 64) -> list:
    """All reduced rationals in (0, 1/2] with denominator <= max_denominator."""
    nonneg_int("max_denominator", max_denominator)
    return sorted(
        Q(p, q)
        for q in range(2, max_denominator + 1)
        for p in range(1, q // 2 + 1)
        if math.gcd(p, q) == 1
    )


def scan_lambda(grid, k_max: int) -> tuple:
    """One ScanEntry per lam on the grid: its first failing k up to k_max,
    against the exact threshold."""
    nonneg_int("k_max", k_max)
    entries = []
    for lam in grid:
        lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
        predicted = threshold_k(lam)
        first_fail = None
        boundary = False
        limit = k_max if predicted is None else min(k_max, predicted + 2)
        p, q = lam.numerator, lam.denominator
        for k in range(limit + 1):
            qv, cv = _variance_numerators(k, p, q)
            if qv >= cv:
                first_fail = k
                boundary = qv == cv
                break
        matches = (
            first_fail == predicted
            if predicted is not None and predicted <= k_max
            else first_fail is None
        )
        entries.append(
            ScanEntry(
                lam=lam,
                first_fail_k=first_fail,
                predicted_k=predicted,
                matches_prediction=matches,
                boundary_at_fail=boundary,
            )
        )
    return tuple(entries)


# -- Groenewold-Moyal asymptotics ----------------------------------------------

class GMRow(NamedTuple):
    k: int
    classical_variance: object
    quantum_variance: object
    variance_difference: object
    uncertainty_difference: float


def gm_asymptotics(k_max: int) -> list:
    """Exact variance gap 1/4 at lam = 1/2, plus the shrinking std gap."""
    nonneg_int("k_max", k_max)
    nums = (_variance_numerators(k, 1, 2) for k in range(k_max + 1))
    return [GMRow(k, Fraction(cv, 4), Fraction(qv, 4), Fraction(cv - qv, 4), _std_gap(qv, cv, 2))
            for k, (qv, cv) in enumerate(nums)]


def uncertainty_gap(lam, k: int) -> float:
    """classical std - quantum std at level-count parameter k, a float within
    one ulp for every int k >= 0: with lam = p/q it is the quotient
    (cv - qv)/(q (sqrt(cv) + sqrt(qv))) of cv = (k+1) p^2 and qv = k p (q-p),
    roots as int floors at 64 guard bits, one rounding int division; exactly
    0.0 at k = p/(q - 2p).  Past k = 2^2040 the gap can leave the normal
    floats, which raises AccuracyError."""
    nonneg_int("k", k)
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    q = lam.denominator
    return _std_gap(*_variance_numerators(k, lam.numerator, q), q)
