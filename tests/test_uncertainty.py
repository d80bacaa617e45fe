import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from moyalbench.backend import Q
from moyalbench.errors import AccuracyError, DomainError
from moyalbench.tables import format_float, moments_table
from moyalbench.uncertainty import (
    classical_moments,
    default_lambda_grid,
    gm_asymptotics,
    quantum_moments,
    radial_square,
    radial_square_moment,
    scan_lambda,
    selection_inequality,
    threshold_k,
    uncertainty_gap,
)

LAMBDAS = (Q(1, 4), Q(1, 3), Q(1, 2))


def test_classical_moment_examples():
    assert classical_moments(0, Q(1, 2))[0] == Q(1, 2)  # minimum energy = lam
    mean, second, var = classical_moments(2, Q(1, 2))
    assert (mean, second, var) == (Q(3, 2), Q(3), Q(3, 4))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("k", range(51))
def test_classical_variance_over_mean_is_lambda(k, lam):
    mean, second, var = classical_moments(k, lam)
    assert mean == lam * (k + 1)
    assert second == lam * lam * (k + 1) * (k + 2)
    assert var == lam * lam * (k + 1)
    assert var / mean == lam


def test_quantum_moment_examples():
    mean, second, var = quantum_moments(2, Q(1, 2))
    assert (mean, second, var) == (Q(3, 2), Q(11, 4), Q(1, 2))
    assert quantum_moments(0, Q(1, 3))[2] == 0


@pytest.mark.parametrize("lam", LAMBDAS)
def test_energy_identity_mean_agreement(lam):
    for k in range(20):
        assert quantum_moments(k, lam)[0] == classical_moments(k, lam)[0]


def test_moments_table_floats():
    mean, second, variance = classical_moments(2, Q(1, 2))
    assert variance == second - mean ** 2
    _, rows = moments_table(Q(1, 2), 2)
    floats = {name: value for name, _, value in rows if value}
    assert floats == {"classical_std": format_float(math.sqrt(0.75)),
                      "quantum_std": format_float(math.sqrt(0.5))}


def test_star_square_cross_check_examples():
    half = radial_square(Q(1, 2))
    assert radial_square_moment(2, Q(1, 2), half) == Q(11, 4)
    # single-level case: second moment is E_0^2 = lam^2
    for lam in LAMBDAS:
        assert radial_square_moment(0, lam, radial_square(lam)) == lam * lam
    # GM deformed square: mu^2 - 1/4
    assert half.coeffs == (Q(-1, 4), 0, 1)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_star_square_cross_check_range(lam):
    quadratic = radial_square(lam)
    for k in range(12):
        assert radial_square_moment(k, lam, quadratic) == quantum_moments(k, lam)[1]


def test_selection_examples():
    assert selection_inequality(0, Q(1, 4)).passes  # k = 0 always passes
    v = selection_inequality(1, Q(1, 3))
    assert not v.passes and v.boundary  # threshold k/(2k+1) hit exactly
    assert all(selection_inequality(k, Q(1, 2)).passes for k in range(300))


def test_thresholds():
    assert threshold_k(Q(1, 3)) == 1
    assert threshold_k(Q(2, 5)) == 2
    assert threshold_k(Q(1, 2)) is None
    # thresholds k/(2k+1) increase strictly toward 1/2
    ts = [Q(k, 2 * k + 1) for k in range(1, 30)]
    assert all(a < b < Q(1, 2) for a, b in zip(ts, ts[1:]))


def test_pass_iff_above_threshold():
    for k in range(1, 25):
        t = Q(k, 2 * k + 1)
        assert not selection_inequality(k, t).passes
        assert selection_inequality(k, t + Q(1, 1000)).passes


def test_grid_contents():
    grid = default_lambda_grid(8)
    assert Q(1, 2) in grid and Q(3, 8) in grid and Q(1, 7) in grid
    assert all(0 < x <= Q(1, 2) for x in grid)
    assert grid == sorted(set(grid))
    # no reduced p/q in (0, 1/2] has q <= 1
    assert default_lambda_grid(1) == []
    assert default_lambda_grid(2) == [Q(1, 2)]


def test_scan_examples():
    entries = scan_lambda([Q(1, 3), Q(2, 5), Q(1, 2)], 100)
    by_lam = {e.lam: e for e in entries}
    assert by_lam[Q(1, 3)].first_fail_k == 1
    assert by_lam[Q(2, 5)].first_fail_k == 2
    assert by_lam[Q(1, 2)].first_fail_k is None
    assert all(e.matches_prediction for e in entries)


def test_scan_grid_domain():
    with pytest.raises(DomainError):
        scan_lambda([Q(3, 5)], 10)
    with pytest.raises(DomainError):
        scan_lambda([Q(0)], 10)


def test_gm_asymptotics():
    rows = gm_asymptotics(60)
    assert rows[0].variance_difference == Q(1, 4)
    assert abs(rows[0].uncertainty_difference - 0.5) < 1e-15
    assert all(r.variance_difference == Q(1, 4) for r in rows)
    assert abs(rows[25].uncertainty_difference
               - (math.sqrt(26) - 5.0) / 2.0) < 1e-15
    diffs = [r.uncertainty_difference for r in rows]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_uncertainty_gap_away_from_zero_below_half():
    g3 = uncertainty_gap(Q(1, 4), 1000)
    g4 = uncertainty_gap(Q(1, 4), 10000)
    assert abs(g3) > 0.05
    assert abs(g4) > abs(g3)  # the gap grows, it does not vanish


def test_uncertainty_gap_keeps_its_bits_where_k_is_a_float():
    # the values the gm-uncertainty-gap-asymptotics check reads
    assert uncertainty_gap(Q(1, 4), 1000).hex() == "-0x1.722384f2ce144p+2"
    assert uncertainty_gap(Q(1, 4), 10000).hex() == "-0x1.24cce200b0f17p+4"


def _wide_gap(lam, k):
    with mpmath.workdps(1000):  # k has up to 617 digits
        lf = mpmath.mpf(lam.numerator) / lam.denominator
        return lf * mpmath.sqrt(k + 1) - mpmath.sqrt(k * lf * (1 - lf))


@pytest.mark.parametrize("k", [2**1024 - 1, 10**400, 2**2046], ids=["2^1024-1", "10^400", "2^2046"])
@pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 3), Q(49, 100), Q(1, 2)], ids=str)
def test_uncertainty_gap_past_the_float_range_of_k(lam, k):
    # about -0.183 sqrt(k) at lam = 1/4: -1.83e199 at k = 10^400; at lam = 1/2
    # it is 1/(4 sqrt(k)) to within 1/k, 2.5e-201 at k = 10^400
    true = _wide_gap(lam, k)
    if abs(true) < 2.3e-308:  # below the normal floats: lam = 1/2, k = 2^2046
        with pytest.raises(AccuracyError):
            uncertainty_gap(lam, k)
        return
    assert abs(uncertainty_gap(lam, k) - true) <= 4e-16 * abs(true)


@pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 2)], ids=str)
def test_uncertainty_gap_outside_the_float_range_is_an_accuracy_error(lam):
    # at k = 10^700 about -1.8e349 and 2.5e-351
    with pytest.raises(AccuracyError):
        uncertainty_gap(lam, 10**700)


def _outside_the_normal_floats(true) -> bool:
    # below 2^-1022, or at or above the least magnitude that rounds to inf
    return not 2.0 ** -1022 <= abs(true) < 2 ** 1024 - 2 ** 970


def _within_one_ulp(value: float, true) -> bool:
    with mpmath.workdps(1000):
        return abs(mpmath.mpf(value) - true) <= math.ulp(float(true))


@pytest.mark.parametrize("k", [10**12, 10**17], ids=["10^12", "10^17"])
def test_uncertainty_gap_near_the_gm_point_keeps_its_digits(k):
    # two float roots cancel here: 2.500019e-07 at k = 10^12 and 0.0 at
    # 10^17, where the gap is about 1/(4 sqrt(k)), 7.9e-10
    gap = uncertainty_gap(Q(1, 2), k)
    assert gap > 0
    assert _within_one_ulp(gap, _wide_gap(Q(1, 2), k))


lambdas_up_to_64 = st.integers(2, 64).flatmap(
    lambda q: st.integers(1, q // 2).map(lambda p: Q(p, q)))
log_uniform_k = st.integers(0, 2100).flatmap(
    lambda bits: st.integers((1 << bits) >> 1, 1 << bits))


@given(lambdas_up_to_64, log_uniform_k)
@example(Q(1, 3), 1)  # the boundary k = p/(q - 2p)
@example(Q(2, 5), 2)
@example(Q(1, 2), 2**2046)  # 2.5e-309, subnormal
@example(Q(1, 64), 2**2100)  # about -1.5e315
@settings(max_examples=200)
def test_uncertainty_gap_is_within_one_ulp_or_an_accuracy_error(lam, k):
    if (lam.denominator - 2 * lam.numerator) * k == lam.numerator:
        assert uncertainty_gap(lam, k) == 0.0  # equal variances, k = p/(q - 2p)
        return
    true = _wide_gap(lam, k)
    if _outside_the_normal_floats(true):
        with pytest.raises(AccuracyError):
            uncertainty_gap(lam, k)
    else:
        assert _within_one_ulp(uncertainty_gap(lam, k), true)


def test_gm_rows_are_within_one_ulp_of_the_std_gap():
    # the float formula (sqrt(k + 1) - sqrt(k))/2 was up to 233 ulps off here
    for k, row in enumerate(gm_asymptotics(200)):
        with mpmath.workdps(50):
            true = (mpmath.sqrt(k + 1) - mpmath.sqrt(k)) / 2
        assert _within_one_ulp(row.uncertainty_difference, true)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_three_way_moment_agreement_k50(lam):
    # the Gamma-moment integrals and the level sums against the closed forms
    for k in range(51):
        cm, cs, cv = classical_moments(k, lam)
        qm, qs, qv = quantum_moments(k, lam)
        assert cm == qm == (k + 1) * lam
        assert cv == lam * lam * (k + 1)
        assert qv == k * lam * (1 - lam)
