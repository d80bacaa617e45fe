import pytest

from moyalbench.backend import Q
from moyalbench.errors import DomainError
from moyalbench.laguerre import laguerre_eval_sequence
from moyalbench.observables import (
    basic_distribution,
    basis_inversion,
    binomial_weights,
    duality_gram,
    fourier_laguerre,
    negativity_search,
)
from moyalbench.params import ModelParams, as_lambda, nonneg_int
from moyalbench.spectral import (
    projector_poly_values,
    projector_series_eval,
    projector_series_partial,
    spectrum,
    star_exp_series,
)
from moyalbench.uncertainty import gm_asymptotics, scan_lambda


def test_as_lambda_strings_and_bounds():
    assert as_lambda("3/8") == Q(3, 8)
    with pytest.raises(DomainError):
        as_lambda(Q(0), lo_open=True)
    with pytest.raises(TypeError):
        as_lambda(0.25)


def test_model_params():
    mp = ModelParams()
    assert mp.dimensionless
    with pytest.raises(DomainError):
        ModelParams(hbar=0)
    with pytest.raises(DomainError):
        ModelParams(omega=Q(-1, 2))


def test_spectrum_scales_with_model_params():
    sp = spectrum(Q(1, 2), 2, ModelParams(hbar=Q(2), omega=Q(3)))
    assert [e.energy for e in sp] == [Q(3), Q(9), Q(15)]


def test_nonneg_int():
    assert nonneg_int("n", 0) == 0
    assert nonneg_int("n", 7) == 7
    with pytest.raises(DomainError, match="n must be >= 0"):
        nonneg_int("n", -1)


@pytest.mark.parametrize("call", [
    lambda: spectrum(Q(1, 4), -3),
    lambda: laguerre_eval_sequence(-2, Q(1, 2)),
    lambda: basis_inversion(Q(1, 3), -1),
    lambda: scan_lambda([Q(1, 4)], -1),
    lambda: star_exp_series(Q(1, 4), 1, 1.0, terms=-1),
    lambda: projector_poly_values(Q(1, 4), 1, -1),
    lambda: projector_series_partial(-1, Q(1, 4), 5),
    lambda: projector_series_partial(1, Q(1, 4), -1),
    lambda: projector_series_eval(-1, Q(1, 4), 5, 1),
    lambda: projector_series_eval(1, Q(1, 4), -1, 1),
    lambda: fourier_laguerre(basic_distribution(2, Q(1, 4)), Q(1, 4), -1),
    lambda: duality_gram(-1, Q(1, 4)),
    lambda: negativity_search(Q(1, 4), 1, -1),
    lambda: binomial_weights(-1, Q(1, 2)),
    lambda: gm_asymptotics(-1),
])
def test_negative_sizes_rejected(call):
    with pytest.raises(DomainError, match="must be >= 0"):
        call()
