"""Adaptive composite Simpson quadrature for exponentially decaying integrands.

Truncates [0, inf) to [0, T], T = t_max or 50 (for a unit decay rate the
tail is then below ~2e-22 relative; a slower integrand passes a larger
t_max), and doubles the panel count until two successive
composite estimates differ by less than the tolerance.  Function values are
reused across doublings: a run that stops at n panels evaluates f exactly
n + 1 times.  A composite estimate that is not finite stops the refinement
at once.
Points are summed by ``math.fsum``, correctly rounded and so the same bits
on every CPython (the builtin ``sum`` of floats changed in 3.12).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AccuracyError, DomainError

_DEFAULT_T = 50.0
_MAX_DOUBLINGS = 22


class QuadResult(NamedTuple):
    value: float
    panels: int
    est_error: float
    t_max: float


def _fsum(values, n: int) -> float:
    """math.fsum, which raises where a plain sum gives inf or nan (as does an
    integrand that overflows or is undefined): a non-finite integrand."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise AccuracyError(f"integrand not finite: {exc} on {n} panels") from exc


def _simpson_doublings(f, T: float):
    """The composite Simpson estimates of the integral of f over [0, T] on
    16, 32, 64, ... panels, as (panels, estimate).  Each doubling evaluates f
    only at the new odd points."""
    n = 16
    h = T / n
    ends = f(0.0) + f(T)
    # int * h is the same float as (2k+1) * h, with no generator frame per point
    odd = _fsum(map(f, map(h.__mul__, range(1, n, 2))), n)
    even = _fsum(map(f, map(h.__mul__, range(2, n, 2))), n)
    while True:
        yield n, h / 3.0 * (ends + 4.0 * odd + 2.0 * even)
        n *= 2
        h = T / n
        new_odd = _fsum(map(f, map(h.__mul__, range(1, n, 2))), n)
        # old odd+even interior points all become even points of the finer grid
        even = even + odd
        odd = new_odd


def integrate_decay(
    f,
    tol: float = 1e-10,
    t_max: float | None = None,
) -> QuadResult:
    """Integrate f over [0, inf) as the integral over [0, t_max]; f must have
    decayed below tol by t_max (default 50, for exp(-mu) tails)."""
    if not tol > 0:  # also NaN, which no estimate would ever meet
        raise DomainError("tolerance must be positive")
    T = _DEFAULT_T if t_max is None else t_max
    if not (math.isfinite(T) and T > 0):
        raise DomainError(f"t_max must be finite and positive, got {T}")

    steps = _simpson_doublings(f, T)
    n, estimate = next(steps)
    for _ in range(_MAX_DOUBLINGS):
        if not math.isfinite(estimate):
            raise AccuracyError(f"integrand not finite: {estimate} on {n} panels")
        n, refined = next(steps)
        diff = abs(refined - estimate)
        estimate = refined
        if diff < tol:
            return QuadResult(value=refined, panels=n, est_error=diff, t_max=T)
    raise AccuracyError(
        f"no convergence to {tol:g} within {_MAX_DOUBLINGS} doublings "
        f"({n} panels)"
    )
