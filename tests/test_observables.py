import pytest

from moyalbench.backend import Q, ZERO, rational_str
from moyalbench.errors import DomainError
from moyalbench.exppoly import ExpPoly, exp_integral, mu_times
from moyalbench.observables import (
    basic_distribution,
    basis_inversion,
    binomial_weights,
    duality_gram,
    finite_support_bound,
    fourier_laguerre,
    is_observable,
    negativity_search,
    reconstruct_pure_state,
)
from moyalbench.poly import Poly


def test_basic_distribution_normalized():
    d = basic_distribution(3, Q(1, 2))
    assert exp_integral(d) == 1
    assert d.nonneg_on_nonneg() == (True, None)


def test_basic_distribution_zero_order():
    # p_0 = (1/lam) e^{-mu/lam}
    d = basic_distribution(0, Q(1, 3))
    assert d == ExpPoly.single(Poly([Q(3)]), 3)


def test_basic_distribution_mean():
    # mean lam(k+1): (k, lam) = (2, 1/2) -> 3/2
    d = basic_distribution(2, Q(1, 2))
    assert exp_integral(mu_times(d)) == Q(3, 2)


def test_dirac_delta_limit():
    # lam -> 0 concentrates p_k at mu = 0, which no ExpPoly represents
    with pytest.raises(DomainError, match=r"lambda=0 outside \(0, 1\)"):
        basic_distribution(2, 0)


def test_fourier_laguerre_binomial():
    for lam in (Q(1, 3), Q(1, 2)):
        for k in range(8):
            fl = fourier_laguerre(basic_distribution(k, lam), lam, k + 4)
            assert list(fl[: k + 1]) == binomial_weights(k, lam)
            assert all(c == 0 for c in fl[k + 1:])
            assert sum(fl) == 1


def test_fourier_laguerre_instance():
    fl = fourier_laguerre(basic_distribution(2, Q(1, 2)), Q(1, 2), 2)
    assert [rational_str(c) for c in fl] == ["1/4", "1/2", "1/4"]
    assert sum(fl) == 1


def test_finite_support_detection():
    d = basic_distribution(4, Q(1, 3))
    assert finite_support_bound(d, Q(1, 3)) == 4
    assert finite_support_bound(d, Q(1, 4)) is None  # rate mismatch


def test_observable_basic_family():
    for k in range(11):
        v = is_observable(basic_distribution(k, Q(1, 3)), Q(1, 3))
        assert v.status == "observable" and v.exact
        assert v.support_bound == k


def test_observable_projector_shaped():
    # (1/(1-lam)) e^{-mu/(1-lam)} at lam = 1/2 is exactly p_0
    form = ExpPoly.single(Poly([Q(2)]), 2)
    v = is_observable(form, Q(1, 2))
    assert v.status == "observable"


def test_signed_combination_not_a_distribution():
    combo, weights, coeffs = reconstruct_pure_state(Q(1, 2), 1, 2)
    assert coeffs == (0, 1, 0)
    assert exp_integral(combo) == 1
    assert any(w < 0 for w in weights)
    assert is_observable(combo, Q(1, 2)).status == "not-a-distribution"
    assert combo.nonneg_on_nonneg()[0] is False


def test_inconclusive_beyond_n():
    # a broader basic distribution (rate 2 != 1/lam = 4) has positive pairings
    # ((lam' - lam)/((1-lam) lam'))^n at every level, but no finite-support
    # proof, so the verdict stays a nonnegative prefix
    lam = Q(1, 4)
    form = basic_distribution(0, Q(1, 2))
    v = is_observable(form, lam, n_max=12)
    assert v.status == "nonneg-up-to-n"
    assert not v.exact
    assert v.checked_to == 12
    assert all(c > 0 for c in v.coefficients)


def test_cross_rate_mixture_negative_witness():
    # under the GM quantization, an even mixture with a much broader profile
    # drives an early coefficient negative; the verdict is exact
    lam = Q(1, 2)
    form = Q(1, 2) * basic_distribution(0, Q(1, 2)) + Q(1, 2) * \
        basic_distribution(0, Q(1, 4))
    v = is_observable(form, lam, n_max=12)
    assert v.status == "negative-witness"
    assert v.exact


def test_negative_coefficient_witness():
    # a narrow bump centered where pi_1^(1/2) < 0 picks up a negative c_1;
    # its rate 40 is not 1/lam, so the verdict comes from the exact prefix
    from moyalbench.spectral import projector_closed

    lam = Q(1, 2)
    bump = basic_distribution(3, Q(1, 40))  # mean 1/10, sharply peaked
    c1 = exp_integral(projector_closed(1, lam).form * bump)
    assert c1 < 0
    v = is_observable(bump, lam, n_max=8)
    assert v.status == "negative-witness"
    assert v.witness_index == 1
    assert v.exact


def test_wrong_mass_is_not_a_distribution():
    mass_2 = ExpPoly.single(Poly([Q(1)]), 1) * Q(2)
    mass_0 = ExpPoly.single(Poly([Q(4), Q(-8)]), 2)
    assert exp_integral(mass_2) == 2 and exp_integral(mass_0) == 0
    for form in (mass_2, mass_0):
        v = is_observable(form, Q(1, 2))
        assert v.status == "not-a-distribution" and v.exact
        assert v.note == "mass differs from 1"
        assert v.checked_to == -1 and v.coefficients == ()


def test_duality_examples():
    g = duality_gram(2, Q(1, 3))
    assert g[0][0] == 1
    assert g[0][1] == 0
    assert duality_gram(2, Q(1, 2))[2][2] == 1  # self-dual point


@pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 3), Q(1, 2)])
def test_duality_gram_identity(lam):
    g = duality_gram(8, lam)
    for i in range(9):
        for j in range(9):
            assert g[i][j] == (1 if i == j else 0)


def test_basis_inversion_trivial():
    b = basis_inversion(Q(1, 3), 0)
    assert b.inverse == ((Q(1),),)


def test_basis_inversion_example():
    b = basis_inversion(Q(1, 2), 2)
    assert b.matrix == (
        (1, 0, 0),
        (Q(1, 2), Q(1, 2), 0),
        (Q(1, 4), Q(1, 2), Q(1, 4)),
    )
    assert b.inverse == ((1, 0, 0), (-1, 2, 0), (1, -4, 4))
    assert b.identity_ok and b.has_negative_entries


def test_basis_inversion_large():
    assert basis_inversion(Q(1, 3), 16).identity_ok


def triangular_solve(m):
    """The forward substitution the closed-form inverse replaced, verbatim."""
    n1 = len(m)
    inv = [[ZERO] * n1 for _ in range(n1)]
    for j in range(n1):
        inv[j][j] = Q(1) / m[j][j]
        for i in range(j + 1, n1):
            acc = ZERO
            for t in range(j, i):
                acc += m[i][t] * inv[t][j]
            inv[i][j] = -acc / m[i][i]
    return tuple(tuple(r) for r in inv)


@pytest.mark.parametrize("lam", [Q(1, 3), Q(1, 2), Q(17, 64), Q(3, 4)])
def test_basis_inverse_matches_the_triangular_solve(lam):
    for size in range(17):
        b = basis_inversion(lam, size)
        assert b.inverse == triangular_solve(b.matrix)
        assert b.identity_ok


def test_basis_inversion_domain():
    with pytest.raises(DomainError):
        basis_inversion(0, 4)
    with pytest.raises(DomainError):
        basis_inversion(1, 4)


@pytest.mark.parametrize("lam", [Q(1, 3), Q(1, 2)])
def test_pure_state_recovery(lam):
    for n in range(5):
        _, _, coeffs = reconstruct_pure_state(lam, n, 6)
        assert all(c == (1 if m == n else 0) for m, c in enumerate(coeffs))


def test_negativity_search_gm():
    # pi_1^(1/2)(1/10) = -2 L_1(2/5) e^{-1/5} = -(6/5) e^{-1/5} < 0
    hits = negativity_search(Q(1, 2), Q(1, 10), 6)
    assert 1 in hits


def test_negativity_search_large_mu():
    # at mu = 100 the oscillatory region of L_n starts near n ~ mu/(4 lam(1-lam));
    # nothing below n = 140 is negative, and the empty prefix is reported as-is
    assert negativity_search(Q(1, 4), Q(100), 50) == []
    hits = negativity_search(Q(1, 4), Q(100), 200)
    assert hits and hits[0] == 141


def test_negativity_search_guards():
    with pytest.raises(DomainError):
        negativity_search(Q(1, 2), Q(0), 5)
    with pytest.raises(DomainError):
        negativity_search(0, Q(1), 5)


def test_finite_support_spanning():
    # any finite coefficient vector is an exact combination of basic ones
    lam = Q(1, 3)
    target = [Q(1, 3), Q(1, 6), Q(1, 2), Q(0), Q(-2, 7)]
    binv = basis_inversion(lam, len(target) - 1)
    weights = [
        sum(target[n] * binv.inverse[n][k] for n in range(len(target)))
        for k in range(len(target))
    ]
    combo = ExpPoly.zero()
    for k, w in enumerate(weights):
        if w:
            combo = combo + w * basic_distribution(k, lam)
    got = fourier_laguerre(combo, lam, len(target) - 1)
    assert list(got) == target
