"""Adaptive composite Simpson quadrature for exponentially decaying integrands.

Truncates [0, inf) to [0, T] with decay_rate * T >= 50 (the tail is then
below ~2e-22 relative), and doubles the panel count until two successive
composite estimates differ by less than the tolerance.  Function values are
reused across doublings, so the total cost is ~2x the final grid.  A
composite estimate that is not finite stops the refinement at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AccuracyError

_MIN_RATE_T = 50.0


@dataclass(frozen=True)
class QuadResult:
    value: float
    panels: int
    est_error: float
    t_max: float


def integrate_decay(
    f,
    tol: float = 1e-10,
    decay_rate: float = 1.0,
    t_max: float | None = None,
    start_panels: int = 16,
    max_doublings: int = 22,
) -> QuadResult:
    """Integrate f over [0, inf) assuming |f| <~ exp(-decay_rate * mu) tails."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if decay_rate <= 0 and t_max is None:
        raise ValueError("need a positive decay_rate or an explicit t_max")
    T = t_max if t_max is not None else max(_MIN_RATE_T / decay_rate, 1.0)

    n = start_panels
    h = T / n
    ends = f(0.0) + f(T)
    odd = sum(f((2 * k + 1) * h) for k in range(n // 2))
    even = sum(f(2 * k * h) for k in range(1, n // 2))
    estimate = h / 3.0 * (ends + 4.0 * odd + 2.0 * even)

    for _ in range(max_doublings):
        if not math.isfinite(estimate):
            raise AccuracyError(f"integrand not finite: {estimate} on {n} panels")
        n *= 2
        h = T / n
        new_odd = sum(f((2 * k + 1) * h) for k in range(n // 2))
        # old odd+even interior points all become even points of the finer grid
        even = even + odd
        odd = new_odd
        refined = h / 3.0 * (ends + 4.0 * odd + 2.0 * even)
        diff = abs(refined - estimate)
        estimate = refined
        if diff < tol:
            return QuadResult(value=refined, panels=n, est_error=diff, t_max=T)
    raise AccuracyError(
        f"no convergence to {tol:g} within {max_doublings} doublings "
        f"({n} panels)"
    )
