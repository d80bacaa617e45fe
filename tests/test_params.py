import math

import pytest

from moyalbench.backend import Q
from moyalbench.errors import DomainError
from moyalbench.biseries import BiSeries
from moyalbench.exppoly import ExpPoly, mu_times
from moyalbench.laguerre import (
    binomial_tail_identity,
    gamma_moment,
    generating_function_check,
    laguerre,
    mixed_orthogonality,
    moment_integral,
    monomial_from_laguerre,
    verify_projector_series_identity,
)
from moyalbench.observables import (
    basic_distribution,
    basis_inversion,
    binomial_weights,
    duality_gram,
    fourier_laguerre,
    negativity_search,
    reconstruct_pure_state,
)
from moyalbench.params import as_lambda, nonneg_int
from moyalbench.poly import Poly
from moyalbench.quadrature import integrate_decay
from moyalbench.spectral import (
    energy_identity_gap,
    partition_of_unity,
    projector_closed,
    projector_series_eval,
    spectrum,
    star_exp_series,
)
from moyalbench.tables import fund_table
from moyalbench.verify import run_suite
from moyalbench.phase import PhasePoly
from moyalbench.uncertainty import (
    default_lambda_grid,
    gm_asymptotics,
    scan_lambda,
    selection_inequality,
    uncertainty_gap,
)


def test_as_lambda_strings_and_bounds():
    assert as_lambda("3/8") == Q(3, 8)
    with pytest.raises(DomainError):
        as_lambda(Q(0), lo_open=True)
    with pytest.raises(TypeError):
        as_lambda(0.25)
    # both edges, open and closed
    assert as_lambda(Q(0)) == 0
    assert as_lambda(Q(1, 2), hi=Q(1, 2), hi_open=False) == Q(1, 2)
    for bad, kw in [(Q(1, 2), {"hi": Q(1, 2)}), (Q(-1, 3), {}), (Q(1), {}),
                    (Q(3, 5), {"hi": Q(1, 2), "hi_open": False})]:
        with pytest.raises(DomainError):
            as_lambda(bad, **kw)


def test_nonneg_int():
    assert nonneg_int("n", 0) == 0
    assert nonneg_int("n", 7) == 7
    with pytest.raises(DomainError, match="n must be >= 0"):
        nonneg_int("n", -1)


@pytest.mark.parametrize("value", [True, False, 2.0, Q(3), "3"],
                         ids=["True", "False", "float", "Fraction", "str"])
def test_nonneg_int_rejects_non_integers(value):
    with pytest.raises(DomainError, match="n must be an integer"):
        nonneg_int("n", value)


@pytest.mark.parametrize("call", [
    lambda: spectrum(Q(1, 4), -3),
    lambda: laguerre(-2),
    lambda: basis_inversion(Q(1, 3), -1),
    lambda: scan_lambda([Q(1, 4)], -1),
    lambda: star_exp_series(Q(1, 4), 1, 1.0, terms=-1),
    lambda: projector_closed(-1, Q(1, 4)),
    lambda: projector_series_eval(-1, Q(1, 4), 5, 1),
    lambda: projector_series_eval(1, Q(1, 4), -1, 1),
    lambda: fourier_laguerre(basic_distribution(2, Q(1, 4)), Q(1, 4), -1),
    lambda: duality_gram(-1, Q(1, 4)),
    lambda: negativity_search(Q(1, 4), 1, -1),
    lambda: binomial_weights(-1, Q(1, 2)),
    lambda: gm_asymptotics(-1),
    lambda: verify_projector_series_identity(-1, 2, 2),
    lambda: binomial_tail_identity(-1, 5),
    lambda: binomial_tail_identity(2, -3),
    lambda: selection_inequality(-1, Q(1, 4)),
    lambda: uncertainty_gap(Q(1, 4), -1),
    lambda: gamma_moment(1, -1),
    lambda: monomial_from_laguerre(-1),
    lambda: BiSeries({}, -1, 2),
    lambda: BiSeries.constant(1, 2, -1),
    lambda: generating_function_check(-1),
    lambda: default_lambda_grid(-1),
    lambda: fund_table(-1, 2),
    lambda: fund_table(2, -1),
    lambda: Poly.monomial(-2),
    lambda: Poly([Q(1), Q(2)]).shift(-1),
    lambda: mu_times(ExpPoly.single(Poly([Q(1)]), 1), -1),
    lambda: reconstruct_pure_state(Q(1, 3), -1, 4),
])
def test_negative_sizes_rejected(call):
    with pytest.raises(DomainError, match="must be >= 0"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: PhasePoly.a() ** -1, "power must be >= 0"),
    (lambda: PhasePoly({(1, 0, 0): (1, 0)}, 0), "denominator must be positive"),
    (lambda: PhasePoly({(1, 0, 0): (1, 0)}, -2), "denominator must be positive"),
    (lambda: BiSeries.constant(1, 4, 4).exp(), "exp needs a zero constant term"),
    (lambda: BiSeries.var_x(4, 4).inverse(), "not invertible"),
    (lambda: run_suite("nope"), "unknown suite 'nope'"),
    (lambda: laguerre(2.5), "n must be an integer"),
    (lambda: laguerre(True), "n must be an integer"),
    (lambda: projector_closed(2.5, Q(1, 4)), "n must be an integer"),
    (lambda: projector_closed(True, Q(1, 4)), "n must be an integer"),
    (lambda: moment_integral(1.5, 0), "k must be an integer"),
    (lambda: mixed_orthogonality(-1, 0, Q(1, 3)), "m must be >= 0"),
    (lambda: mixed_orthogonality(1.5, 0, Q(1, 3)), "m must be an integer"),
    (lambda: mixed_orthogonality(0, -1, Q(1, 3)), "n must be >= 0"),
    (lambda: mixed_orthogonality(0, 1.5, Q(1, 3)), "n must be an integer"),
    (lambda: integrate_decay(math.exp, t_max=0.0), "t_max must be finite"),
    (lambda: integrate_decay(math.exp, t_max=-5.0), "t_max must be finite"),
    (lambda: integrate_decay(math.exp, t_max=math.inf), "t_max must be finite"),
    (lambda: integrate_decay(math.exp, t_max=math.nan), "t_max must be finite"),
    (lambda: integrate_decay(math.exp, tol=math.nan), "tolerance must be positive"),
    (lambda: verify_projector_series_identity(0, 2.5, 3), "k_lam must be an integer"),
    (lambda: verify_projector_series_identity(0, -1, 3), "k_lam must be >= 0"),
    (lambda: verify_projector_series_identity(0, 3, 2.5), "k_z must be an integer"),
    (lambda: verify_projector_series_identity(0, 3, -1), "k_z must be >= 0"),
    (lambda: partition_of_unity(Q(1, 4), 1, n_cap=-1), "n_cap must be >= 0"),
    (lambda: partition_of_unity(Q(1, 4), 1, n_cap=2.5), "n_cap must be an integer"),
    (lambda: energy_identity_gap(Q(1, 4), 1, -2), "n_terms must be >= 0"),
    (lambda: energy_identity_gap(Q(1, 4), 1, 1.5), "n_terms must be an integer"),
    (lambda: energy_identity_gap(Q(1, 2), 1, 100), r"lambda=1/2 outside \(0, 1/2\)"),
], ids=["phase-pow", "den-0", "den-negative", "exp", "inverse", "suite", "laguerre-float", "laguerre-bool", "projector-float", "projector-bool",
        "moment-float", "mixed-m-negative", "mixed-m-float", "mixed-n-negative",
        "mixed-n-float", "t_max-0", "t_max-negative", "t_max-inf", "t_max-nan",
        "tol-nan", "series-k_lam-float", "series-k_lam-negative", "series-k_z-float",
        "series-k_z-negative", "partition-n_cap-negative", "partition-n_cap-float",
        "energy-n_terms-negative", "energy-n_terms-float", "energy-lambda-half"])
def test_invalid_arguments_are_domain_errors(call, message):
    with pytest.raises(DomainError, match=message):
        call()
