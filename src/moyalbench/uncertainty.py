"""Classical vs quantum energy moments and the uncertainty selection scan.

For the basic distribution p_k under the lam-quantization:

    classical:  mean lam(k+1),  second lam^2(k+1)(k+2),  variance lam^2(k+1)
    quantum:    sum over levels with binomial weights C(k,n) lam^n (1-lam)^{k-n},
                mean (k+1) lam  (identical: the energy identity),
                second (k^2+k+1) lam^2 + k lam,  variance k lam (1-lam).

Requiring quantum variance < classical variance gives k lam(1-lam) <
(k+1) lam^2, i.e. lam > k/(2k+1) for every k, which on the canonical range
(0, 1/2] singles out lam = 1/2 (the Groenewold-Moyal form).  There the
variance gap is the constant 1/4 and the uncertainty gap (sqrt(k+1) -
sqrt(k))/2 tends to zero; for any fixed lam < 1/2 it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import Q, ZERO, rceil
from .exppoly import exp_integral, mu_times
from .observables import basic_distribution, binomial_weights
from .params import as_lambda, nonneg_int
from .phase import hamiltonian, star
from .poly import Poly


def classical_moments(k: int, lam):
    """(mean, second, variance) of mu under p_k, exact.

    Closed formulas, cross-checked against direct Gamma-moment integration.
    """
    lam = as_lambda(lam, lo_open=True)
    mean = lam * (k + 1)
    second = lam**2 * (k + 1) * (k + 2)
    form = basic_distribution(k, lam).form
    if exp_integral(mu_times(form)) != mean:  # pragma: no cover
        raise AssertionError("classical mean mismatch")
    if exp_integral(mu_times(form, 2)) != second:  # pragma: no cover
        raise AssertionError("classical second moment mismatch")
    return mean, second, second - mean * mean


def quantum_moments(k: int, lam):
    """(mean, second, variance) of the level energies n + lam, exact.

    Binomial-weighted sums, cross-checked against the closed formulas.
    """
    lam = as_lambda(lam, lo_open=True)
    w = binomial_weights(k, lam)
    mean = sum(((n + lam) * c for n, c in enumerate(w)), ZERO)
    second = sum(((n + lam) ** 2 * c for n, c in enumerate(w)), ZERO)
    if mean != (k + 1) * lam:  # pragma: no cover
        raise AssertionError("quantum mean mismatch")
    if second != (k * k + k + 1) * lam**2 + k * lam:  # pragma: no cover
        raise AssertionError("quantum second moment mismatch")
    variance = second - mean * mean
    if variance != k * lam * (Q(1) - lam):  # pragma: no cover
        raise AssertionError("quantum variance mismatch")
    return mean, second, variance


@dataclass(frozen=True)
class MomentReport:
    k: int
    lam: object
    classical_mean: object
    classical_second: object
    classical_variance: object
    quantum_mean: object
    quantum_second: object
    quantum_variance: object
    classical_std: float
    quantum_std: float


def moment_report(k: int, lam) -> MomentReport:
    cm, cs, cv = classical_moments(k, lam)
    qm, qs, qv = quantum_moments(k, lam)
    return MomentReport(
        k=k,
        lam=as_lambda(lam, lo_open=True),
        classical_mean=cm,
        classical_second=cs,
        classical_variance=cv,
        quantum_mean=qm,
        quantum_second=qs,
        quantum_variance=qv,
        classical_std=math.sqrt(float(cv)),
        quantum_std=math.sqrt(float(qv)),
    )


@dataclass(frozen=True)
class StarSquareReport:
    k: int
    lam: object
    quadratic: tuple  # mu-polynomial coefficients of H*H / (hbar omega)^2
    integral_value: object
    weighted_sum: object
    equal: bool


def star_square_cross_check(k: int, lam) -> StarSquareReport:
    """Link the deformed square of H to the quantum second moment, exactly:

        integral (H *_lam H)/(hbar omega)^2 |_{radial} p_k dmu
            = sum_n (n+lam)^2 C(k,n) lam^n (1-lam)^{k-n}.

    The radial quadratic comes out of the phase-space product itself
    (dimensionless units, s = hbar mu with hbar set to 1).
    """
    lam = as_lambda(lam, lo_open=True)
    hh = star(hamiltonian(), hamiltonian(), lam)
    series = hh.radial_series(8, 8)  # keys: (s-power, hbar-power)
    coeffs = [ZERO, ZERO, ZERO]
    for (i, d), c in series.coeffs.items():
        coeffs[i] += c  # hbar -> 1 in dimensionless mode
    quadratic = Poly(coeffs)
    form = basic_distribution(k, lam).form
    integral_value = exp_integral(form * quadratic)
    _, second, _ = quantum_moments(k, lam)
    return StarSquareReport(
        k=k,
        lam=lam,
        quadratic=tuple(coeffs),
        integral_value=integral_value,
        weighted_sum=second,
        equal=(integral_value == second),
    )


# -- the selection inequality -----------------------------------------------

@dataclass(frozen=True)
class SelectionVerdict:
    k: int
    lam: object
    quantum_variance: object
    classical_variance: object
    passes: bool
    boundary: bool


def selection_inequality(k: int, lam) -> SelectionVerdict:
    """Strict test  k lam (1-lam) < (k+1) lam^2, with boundary equality flagged."""
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    qv = k * lam * (Q(1) - lam)
    cv = (k + 1) * lam**2
    return SelectionVerdict(
        k=k,
        lam=lam,
        quantum_variance=qv,
        classical_variance=cv,
        passes=qv < cv,
        boundary=qv == cv,
    )


def threshold_k(lam):
    """Least k at which the inequality fails: ceil(lam/(1-2 lam)); None at 1/2."""
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    if lam == Q(1, 2):
        return None
    return rceil(lam / (1 - 2 * lam))


@dataclass(frozen=True)
class ScanEntry:
    lam: object
    first_fail_k: object  # int or None (no failure up to k_max)
    predicted_k: object
    matches_prediction: bool
    boundary_at_fail: bool


@dataclass(frozen=True)
class ScanResult:
    k_max: int
    entries: tuple

    @property
    def half_passes_all(self) -> bool:
        return all(
            e.first_fail_k is None for e in self.entries if e.lam == Q(1, 2)
        )


def default_lambda_grid(max_denominator: int = 64) -> list:
    """All reduced rationals in (0, 1/2] with denominator <= max_denominator."""
    grid = {Q(1, 2)}
    for q in range(2, max_denominator + 1):
        for p in range(1, q // 2 + 1):
            if math.gcd(p, q) == 1:
                grid.add(Q(p, q))
    return sorted(grid)


def scan_lambda(grid, k_max: int) -> ScanResult:
    """First failing k for each lam on the grid, against the exact threshold."""
    nonneg_int("k_max", k_max)
    entries = []
    for lam in grid:
        lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
        predicted = threshold_k(lam)
        first_fail = None
        boundary = False
        limit = k_max if predicted is None else min(k_max, predicted + 2)
        for k in range(limit + 1):
            v = selection_inequality(k, lam)
            if not v.passes:
                first_fail = k
                boundary = v.boundary
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
    return ScanResult(k_max=k_max, entries=tuple(entries))


# -- Groenewold-Moyal asymptotics ----------------------------------------------

@dataclass(frozen=True)
class GMRow:
    k: int
    classical_variance: object
    quantum_variance: object
    variance_difference: object
    uncertainty_difference: float


def gm_asymptotics(k_max: int) -> list:
    """Exact variance gap 1/4 at lam = 1/2, plus the shrinking std gap."""
    nonneg_int("k_max", k_max)
    half = Q(1, 2)
    rows = []
    for k in range(k_max + 1):
        cv = half**2 * (k + 1)
        qv = k * half * half
        rows.append(
            GMRow(
                k=k,
                classical_variance=cv,
                quantum_variance=qv,
                variance_difference=cv - qv,
                uncertainty_difference=(math.sqrt(k + 1) - math.sqrt(k)) / 2.0,
            )
        )
    return rows


def uncertainty_gap(lam, k: int) -> float:
    """classical std - quantum std at level-count parameter k (float)."""
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    lf = float(lam)
    return math.sqrt(lf * lf * (k + 1)) - math.sqrt(k * lf * (1 - lf))
