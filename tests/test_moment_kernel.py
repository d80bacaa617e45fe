"""The binomial weights, the level moments and the selection inequality run on
ints over q^k for lam = p/q.  The rational code they replaced is kept here
as the reference they must reproduce exactly."""

import math

import pytest

from moyalbench import observables as obs, uncertainty as unc
from moyalbench.backend import Q, ZERO, qbinom
from moyalbench.params import as_lambda, nonneg_int
from moyalbench.uncertainty import (
    ScanEntry,
    SelectionVerdict,
    default_lambda_grid,
    threshold_k,
)


# -- the reference: rational sums, one Fraction per operation -----------------

def binomial_weights(k: int, lam) -> list:
    """Closed-form coefficients C(k,n) lam^n (1-lam)^{k-n}, n = 0..k."""
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("k", k)
    return [qbinom(k, n) * lam**n * (Q(1) - lam) ** (k - n) for n in range(k + 1)]


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


def selection_inequality(k: int, lam) -> SelectionVerdict:
    """Strict test  k lam (1-lam) < (k+1) lam^2, with boundary equality flagged."""
    nonneg_int("k", k)
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


def scan_lambda(grid, k_max: int) -> tuple:
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
    return tuple(entries)


# -- the int kernel against it -------------------------------------------------

GRID_64 = default_lambda_grid(64)  # every reduced p/q in (0, 1/2], q <= 64
LARGE = [(k, lam) for k in (200, 1000) for lam in (Q(1, 2), Q(17, 64), Q(30, 61))]
BOUNDARY = [(k, Q(k, 2 * k + 1)) for k in (*range(1, 61), 200, 1000)]


def assert_same(k, lam):
    nums, den = obs.binomial_weight_ints(k, lam)
    assert den == lam.denominator**k
    assert all(type(w) is int for w in nums)
    weights = binomial_weights(k, lam)
    assert [Q(w, den) for w in nums] == weights
    assert obs.binomial_weights(k, lam) == weights
    assert unc.quantum_moments(k, lam) == quantum_moments(k, lam)
    assert unc.selection_inequality(k, lam) == selection_inequality(k, lam)


# The rational moment sums cost about 100 s over all 630 x 61 pairs, so every
# lambda is paired with every k only in the selection inequality; the sums
# take every lambda at the smallest and the largest k, and every k at the
# small denominators.
@pytest.mark.parametrize("q", range(2, 65))
def test_every_lambda_with_denominator_up_to_64(q):
    for lam in (lam for lam in GRID_64 if lam.denominator == q):
        for k in range(61):
            assert unc.selection_inequality(k, lam) == selection_inequality(k, lam)
        for k in (0, 1, 2, 3, 60):
            assert_same(k, lam)


@pytest.mark.parametrize("lam", [lam for lam in GRID_64 if lam.denominator <= 8],
                         ids=str)
def test_every_k_up_to_60(lam):
    for k in range(61):
        assert_same(k, lam)


@pytest.mark.parametrize("k, lam", LARGE, ids=[f"k{k}-{lam}" for k, lam in LARGE])
def test_large_k(k, lam):
    assert_same(k, lam)


@pytest.mark.parametrize("k, lam", BOUNDARY, ids=[f"k{k}" for k, _ in BOUNDARY])
def test_boundary_pairs(k, lam):
    # lam = k/(2k+1) is where k lam(1-lam) = (k+1) lam^2
    v = unc.selection_inequality(k, lam)
    assert v.boundary and not v.passes
    assert v == selection_inequality(k, lam)
    if k <= 60:  # the rational sums at q = 2001 alone take seconds
        assert_same(k, lam)


def test_boundary_lambdas_scan_to_a_boundary_failure():
    grid = [lam for _, lam in BOUNDARY]
    entries = unc.scan_lambda(grid, 1000)
    assert entries == scan_lambda(grid, 1000)
    assert all(e.boundary_at_fail and e.matches_prediction for e in entries)


def test_scan_of_the_catalog_grid_entry_by_entry():
    grid = default_lambda_grid(64)
    new, ref = unc.scan_lambda(grid, 1000), scan_lambda(grid, 1000)
    assert len(new) == len(ref) == len(grid)
    for a, b in zip(new, ref):
        assert a == b


def test_weight_numerators_are_the_binomial_terms():
    nums, den = obs.binomial_weight_ints(5, Q(2, 7))
    assert den == 7**5
    assert nums == [math.comb(5, n) * 2**n * 5 ** (5 - n) for n in range(6)]
    assert sum(nums) == den
