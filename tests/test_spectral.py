import cmath
import math
import sys
import time
import warnings

import mpmath
import pytest

from moyalbench.backend import Q, rational_str
from moyalbench.errors import (
    AccuracyError,
    ConditionalConvergenceWarning,
    DomainError,
    PoleError,
)
from moyalbench.exppoly import ExpPoly, _wide_exp, exp_integral
from moyalbench.laguerre import laguerre
from moyalbench.phase import PhasePoly, hamiltonian, star
from moyalbench.poly import Poly
from moyalbench.spectral import (
    energy_identity_gap,
    level_sums,
    level_terms,
    partition_of_unity,
    projector_closed,
    projector_negative_witness,
    projector_series_eval,
    radial_star_apply,
    radial_star_on_polynomial,
    spectrum,
    star_exp_closed,
    star_exp_gm_displayed,
    star_exp_normal_closed,
    star_exp_series,
    verify_radial_pde,
)

LAMBDAS = (Q(0), Q(1, 4), Q(1, 3), Q(1, 2))


def closed_level_values(lam, mu, n_max: int) -> list:
    """[r_0, ..., r_nmax] with pi_n(mu) = r_n exp(-mu/(1-lam)): each closed
    form's polynomial evaluated exactly, in Fractions."""
    out = []
    for n in range(n_max + 1):
        (poly,) = projector_closed(n, lam).form.terms.values()
        out.append(poly(mu))
    return out


def recurrence_level_values(lam, mu, n_max: int) -> list:
    """The same values in Fractions from the three-term recurrence
    (m+1) L_{m+1}(x) = (2m+1-x) L_m(x) - m L_{m-1}(x), for levels past what
    the closed forms build quickly."""
    one_m = 1 - lam
    x = mu / (lam * one_m)
    ls = [Q(1), 1 - x]
    for m in range(1, n_max):
        ls.append(((2 * m + 1 - x) * ls[m] - m * ls[m - 1]) / (m + 1))
    ratio = -lam / one_m
    return [ratio ** n / one_m * ls[n] for n in range(n_max + 1)]


def reference_decayed(x, rate) -> float:
    """x exp(-rate) for Fractions: the float product while exp(-rate) is a
    normal float and x converts, else a 300-bit mpmath product."""
    decay = math.exp(-float(rate))
    if decay >= sys.float_info.min:
        try:
            return float(x) * decay
        except OverflowError:
            pass
    with mpmath.workprec(300):
        return float(mpmath.mpf(x.numerator) / x.denominator
                     * mpmath.exp(-mpmath.mpf(rate.numerator) / rate.denominator))


def test_closed_form_at_zero():
    for lam in (Q(1, 4), Q(1, 3), Q(1, 2)):
        assert projector_closed(0, lam).form.at_zero() == 1 / (1 - lam)


def test_poisson_branch():
    p1 = projector_closed(1, 0)
    assert p1.form == ExpPoly.single(Poly.monomial(1), 1)
    assert abs(p1(Q(1)) - math.exp(-1)) < 1e-15


def test_gm_closed_form_shape():
    # substituting lam = 1/2: 2 (-1)^n L_n(4 mu) e^{-2 mu}
    for n in range(6):
        direct = ExpPoly.single(
            laguerre(n).scale_arg(Q(4)) * (2 * Q(-1) ** n), 2
        )
        assert projector_closed(n, Q(1, 2)).form == direct
    assert projector_closed(0, Q(1, 2)).form.at_zero() == 2


def test_domain_guards():
    with pytest.raises(DomainError):
        projector_closed(2, 1)
    with pytest.raises(DomainError):
        projector_closed(-1, Q(1, 4))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_normalization_exact(lam):
    for n in range(13):
        assert exp_integral(projector_closed(n, lam).form) == 1


@pytest.mark.parametrize("lam", LAMBDAS)
def test_eigen_relation_exact(lam):
    for n in range(9):
        p = projector_closed(n, lam)
        assert radial_star_apply(p.form, lam) == (n + lam) * p.form


def test_radial_reduction_matches_phase_product():
    a, ab = PhasePoly.a(), PhasePoly.abar()
    for lam in (Q(0), Q(1, 4), Q(1, 3), Q(1, 2)):
        for m in range(6):
            full = star(hamiltonian(), (a * ab) ** m, lam)
            assert full.is_radial
            assert full == radial_star_on_polynomial(Poly.monomial(m), lam)


def test_radial_identity_on_constant():
    # H * 1 = H: the radial operator sends the constant polynomial to s
    assert radial_star_on_polynomial(Poly([Q(1)]), 0) == hamiltonian()
    assert star(hamiltonian(), PhasePoly.one(), 0) == hamiltonian()


def test_series_converges_to_closed():
    v = projector_series_eval(0, Q(1, 4), 60, Q(1))
    assert abs(float(v) - projector_closed(0, Q(1, 4))(Q(1))) < 1e-10
    v1 = projector_series_eval(1, Q(1, 4), 60, Q(0))
    assert abs(float(v1) - float(Q(-4, 9))) < 1e-10


def series_partial_reference(n: int, lam, terms: int) -> Poly:
    """The K-term lam-series of pi_n as one exact polynomial in mu:

        (-1)^n sum_{k<=K} lam^{n+k} C(n+k, k) L_{n+k}(mu/lam).
    """
    out = Poly()
    for k in range(terms + 1):
        c = (-1) ** n * lam ** (n + k) * math.comb(n + k, k)
        out = out + laguerre(n + k).scale_arg(1 / lam) * c
    return out


@pytest.mark.parametrize("lam", [Q(1, 4), Q(1, 3), Q(1, 2)])
def test_series_eval_is_the_partial_sum_polynomial(lam):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionalConvergenceWarning)
        for n in range(4):
            for terms in range(21):
                ref = series_partial_reference(n, lam, terms)
                for mu in (Q(0), Q(1, 3), Q(2)):
                    assert projector_series_eval(n, lam, terms, mu) == ref(mu)


def test_series_conditional_warning_and_domain():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        projector_series_eval(0, Q(1, 2), 50, Q(1))
    assert any(
        issubclass(w.category, ConditionalConvergenceWarning) for w in rec
    )
    with pytest.raises(DomainError):
        projector_series_eval(0, Q(3, 5), 10, Q(1))


def test_gm_series_slow_oscillation_documented():
    # conditional convergence at lam = 1/2: errors shrink slowly, not asserted
    closed = projector_closed(0, Q(1, 2))(Q(1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionalConvergenceWarning)
        errs = [
            abs(float(projector_series_eval(0, Q(1, 2), K, Q(1))) - closed)
            for K in (50, 200, 800)
        ]
    assert errs[-1] < errs[0]


def test_spectrum_levels_and_spacing():
    sp = spectrum(Q(1, 2), 5)
    assert [rational_str(e) for e in sp] == [
        "1/2", "3/2", "5/2", "7/2", "9/2", "11/2",
    ]
    for lam in (Q(0), Q(1, 4)):
        for a, b in zip(spectrum(lam, 6), spectrum(lam, 6)[1:]):
            assert b - a == 1


def test_star_exp_at_time_zero():
    for lam in (Q(0), Q(1, 4), Q(1, 2)):
        assert abs(star_exp_closed(lam, Q(2), 0.0) - 1.0) < 1e-15


def test_star_exp_matches_series():
    for lam in (Q(0), Q(1, 4)):
        for mu in (Q(1, 2), Q(1), Q(2)):
            for wt in (0.3, 1.0, 2.0):
                c = star_exp_closed(lam, mu, wt)
                s = star_exp_series(lam, mu, wt, 200)
                assert abs(c - s) < 1e-8


def test_star_exp_normal_form_agreement():
    for mu in (Q(1, 2), Q(1), Q(2)):
        for wt in (0.3, 1.0, 2.0):
            assert abs(
                star_exp_closed(0, mu, wt) - star_exp_normal_closed(mu, wt)
            ) < 1e-12


def test_star_exp_fd_oracle_example():
    # truncated Fourier-Dirichlet sum as an independent oracle at lam = 1/4
    lam, mu, wt = Q(1, 4), Q(1), 1.0
    values = recurrence_level_values(lam, mu, 200)
    decay = math.exp(-float(mu / (1 - lam)))
    oracle = sum(
        float(r) * decay * complex(math.cos((n + 0.25) * wt),
                                   -math.sin((n + 0.25) * wt))
        for n, r in enumerate(values)
    )
    assert abs(star_exp_closed(lam, mu, wt) - oracle) < 1e-8


def test_star_exp_pole():
    with pytest.raises(PoleError):
        star_exp_closed(Q(1, 2), Q(1), math.pi)
    with pytest.raises(PoleError):
        star_exp_gm_displayed(Q(1), math.pi)


def displayed_closed(lam, mu, t):
    """The closed form as displayed, with the doubled energy coefficient 2*mu."""
    den = 1.0 - lam + lam * cmath.exp(-1j * t)
    return cmath.exp(-1j * lam * t) / den * cmath.exp(
        2.0 * mu * (cmath.exp(-1j * t) - 1.0) / den)


def test_displayed_forms_disagree_with_series():
    # the display is the closed form at 2*mu in place of mu, to the bit
    for lam in (Q(0), Q(1, 4), Q(1, 3), Q(1, 2), Q(5, 7)):
        for mu in (Q(0), Q(1, 3), Q(1), Q(7, 2)):
            for t in (-2.5, 0.3, 1.0, 4.0):
                assert (star_exp_closed(lam, 2 * mu, t)
                        == displayed_closed(float(lam), float(mu), t))
    s = star_exp_series(Q(1, 4), Q(1), 1.0, 300)
    assert abs(star_exp_closed(Q(1, 4), 2 * Q(1), 1.0) - s) > 1e-2
    assert abs(star_exp_closed(Q(1, 4), Q(1), 1.0) - s) < 1e-10
    # GM display is the complex conjugate of the corrected value
    for wt in (0.4, 1.1):
        disp = star_exp_gm_displayed(Q(2), wt)
        corr = star_exp_closed(Q(1, 2), Q(2), wt)
        assert abs(disp - corr.conjugate()) < 1e-12
        assert abs(disp - corr) > 1e-3


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_star_exponential_rejects_a_non_finite_time(t):
    with pytest.raises(DomainError, match="t must be finite"):
        star_exp_closed(Q(1, 4), Q(1), t)
    with pytest.raises(DomainError, match="t must be finite"):
        star_exp_series(Q(1, 4), Q(1), t, 20)


STAR_EXPONENTIALS = {
    "closed": lambda mu, t: star_exp_closed(Q(1, 4), mu, t),
    "closed-lam-0": lambda mu, t: star_exp_closed(0, mu, t),
    "series": lambda mu, t: star_exp_series(Q(1, 4), mu, t, 20),
    "series-lam-0": lambda mu, t: star_exp_series(0, mu, t, 20),
    "normal-closed": star_exp_normal_closed,
    "gm-displayed": star_exp_gm_displayed,
}


@pytest.mark.parametrize("star_exp", STAR_EXPONENTIALS.values(), ids=STAR_EXPONENTIALS)
def test_star_exponential_at_a_mu_no_float_holds_is_an_accuracy_error(star_exp):
    with pytest.raises(AccuracyError, match=r"^mu = 1\.0e\+400 exceeds the float range$"):
        star_exp(Q(10**400), 0.5)
    with pytest.raises(AccuracyError, match=r"^mu = 3\.3333e\+399 exceeds the float range$"):
        star_exp(Q(10**400, 3), 0.5)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("star_exp", STAR_EXPONENTIALS.values(), ids=STAR_EXPONENTIALS)
def test_every_star_exponential_rejects_a_non_finite_time(star_exp, t):
    # at t = inf the normal-order form was nan+nanj and the displayed form a
    # bare ValueError from math.cos
    with pytest.raises(DomainError, match="t must be finite"):
        star_exp(Q(1), t)
    with pytest.raises(DomainError, match="t must be finite"):
        star_exp(Q(10**400), t)


def test_radial_pde_report():
    corrected_zero, displayed_zero = verify_radial_pde()
    assert corrected_zero
    assert not displayed_zero


def test_partition_of_unity():
    for mu in (Q(1, 2), Q(1), Q(2), Q(5), Q(10)):
        n_used, gap = partition_of_unity(Q(1, 4), mu, tol=1e-6, n_cap=500)
        assert n_used is not None and n_used <= 500
        assert gap < 1e-6


def test_partition_of_unity_gm_qualitative():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionalConvergenceWarning)
        _, gap = partition_of_unity(Q(1, 2), Q(1), tol=1e-12, n_cap=300)
    # report only: gap recorded, possibly without reaching the tolerance
    assert gap < 0.1


def test_energy_identity():
    for mu in (Q(1), Q(2), Q(5)):
        assert energy_identity_gap(Q(1, 4), mu, 300) < 1e-8


def test_negative_witnesses():
    for n in (1, 2, 3):
        for lam in (Q(1, 4), Q(1, 2)):
            w = projector_negative_witness(n, lam)
            assert w is not None and w > 0
            assert projector_closed(n, lam).form.sign_at(w) < 0
    # Poisson limit: no negativity at any level
    for n in range(6):
        assert projector_closed(n, 0).form.nonneg_on_nonneg() == (True, None)
    assert projector_negative_witness(0, Q(1, 3)) is None


def test_negative_witness_below_a_root_near_zero():
    # pi_1 has its one root near 1e-13: no decimal 1/10 ... 1/10^11 is below it
    lam = Q(1, 10 ** 13)
    w = projector_negative_witness(1, lam)
    assert w is not None and 0 < w < Q(1, 10 ** 13)
    assert projector_closed(1, lam).form.sign_at(w) < 0


@pytest.mark.parametrize("n", range(1, 42, 2))
def test_negative_witness_at_odd_levels(n):
    # odd n: pi_n(0) < 0, so the witness is the Cauchy lower root bound
    for j in range(1, 33):
        lam = Q(j, 64)
        w = projector_negative_witness(n, lam)
        assert w is not None and w > 0
        assert projector_closed(n, lam).form.sign_at(w) < 0


def test_energy_identity_where_the_float_decay_underflows():
    lam, mu = Q(1, 4), Q(700)
    # exp(-933.3) is 0 as a float; 300 levels hold almost none of mu = 700
    values = recurrence_level_values(lam, mu, 300)
    total = sum(((n + lam) * v for n, v in enumerate(values)), Q(0))
    with mpmath.workprec(300):
        partial = mpmath.mpf(total.numerator) / total.denominator * mpmath.exp(
            -mpmath.mpf(2800) / 3
        )
        expected = float(abs(partial - 700))
    assert energy_identity_gap(lam, mu, 300) == expected
    # with enough levels the identity holds: the gap is rounding, not mu
    assert energy_identity_gap(lam, mu, 1200) < 1e-9


def test_partition_of_unity_where_the_float_sum_overflows():
    # float(partial sum) overflows long before 500 levels: a typed error,
    # since the sum has not converged there
    with pytest.raises(AccuracyError,
                       match="partition of unity not within 1e-06 after 500 levels"):
        partition_of_unity(Q(1, 4), 800)
    n_used, gap = partition_of_unity(Q(1, 4), 700, n_cap=1200)
    assert n_used is not None and gap < 1e-6


def _projector_oracle(n, lam, mu):
    """pi_n(mu) at 60 digits from the Fraction Laguerre recurrence and mpmath."""
    r = recurrence_level_values(lam, mu, n)[n]
    rate = mu / (1 - lam)
    with mpmath.workdps(60):
        return float(mpmath.mpf(r.numerator) / r.denominator
                     * mpmath.exp(-mpmath.mpf(rate.numerator) / rate.denominator))


def test_projector_value_past_the_float_exponent_range():
    # the polynomial factor overflows a float and exp(-rate) underflows one,
    # but their product is a normal float
    lam, n, mu = Q(17, 64), 390, Q(801)
    value = projector_closed(n, lam)(mu)
    assert value == pytest.approx(4.87810307112531e-98, rel=1e-13)
    assert value == pytest.approx(_projector_oracle(n, lam, mu), rel=1e-13)


def test_projector_at_a_float_mu_is_exact_up_to_the_exponential():
    # float Horner evaluation cancelled here: nan at mu = 1000.0 and a value
    # of order 1e31 at mu = 300.0
    proj = projector_closed(400, Q(1, 4))
    for mu in (300, 700, 1000):
        expected = _projector_oracle(400, Q(1, 4), Q(mu))
        assert proj(float(mu)) == proj(mu)
        assert proj(float(mu)) == pytest.approx(expected, rel=1e-13)
    # below the float range the value still reads 0.0, never nan
    assert proj(2000.0) == 0.0


@pytest.mark.parametrize("lam", [Q(1, 64), Q(1, 4), Q(17, 64), Q(3, 7), Q(1, 2)])
def test_level_sums_are_the_exact_partial_sums(lam):
    for mu in (Q(1, 2), Q(1), Q(10), Q(700)):
        values = closed_level_values(lam, mu, 60)
        assert values == recurrence_level_values(lam, mu, 60)
        plain = weighted = Q(0)
        sums = zip(level_terms(lam, mu), level_sums(lam, mu), level_sums(lam, mu, True))
        for n, ((t, _), (a, d), (e, d_w)) in zip(range(61), sums):
            plain += values[n]
            weighted += (n + lam) * values[n]
            assert Q(a, d) == plain and Q(e, d_w) == weighted
            assert (t > 0) - (t < 0) == (values[n] > 0) - (values[n] < 0)


def test_partition_of_unity_stops_at_the_deciding_level(monkeypatch):
    import moyalbench.laguerre as laguerre_module

    scaled = laguerre_module.laguerre_scaled
    formed = []

    def counted(x):
        for m in scaled(x):
            formed.append(m)
            yield m

    monkeypatch.setattr(laguerre_module, "laguerre_scaled", counted)
    n_used, gap = partition_of_unity(Q(1, 4), 1, n_cap=10 ** 6)
    assert n_used == 12 and len(formed) == n_used + 1
    assert (n_used, gap) == partition_of_unity(Q(1, 4), 1, n_cap=500)
    formed.clear()
    assert partition_of_unity(Q(1, 2), 1, tol=1e-12, n_cap=30)[0] is None
    assert len(formed) == 31


@pytest.mark.parametrize("lam, mu, levels", [
    (Q(1, 4), Q(1, 2), 40), (Q(1, 4), Q(5), 60), (Q(3, 7), Q(2), 80),
    (Q(1, 2), Q(1), 120), (Q(1, 4), Q(700), 300), (Q(1, 4), Q(700), 1200),
])
def test_level_sum_floats_match_the_fraction_reference(lam, mu, levels):
    values = recurrence_level_values(lam, mu, levels)
    rate = mu / (1 - lam)
    if lam == Q(1, 2):  # the weighted sum does not converge there
        with pytest.raises(DomainError, match=r"lambda=1/2 outside \(0, 1/2\)"):
            energy_identity_gap(lam, mu, levels)
    else:
        energy = sum(((n + lam) * r for n, r in enumerate(values)), Q(0))
        assert energy_identity_gap(lam, mu, levels) == abs(
            reference_decayed(energy, rate) - float(mu))
    tol, partial, gaps = 1e-9, Q(0), []
    for r in values:
        partial += r
        gaps.append(abs(reference_decayed(partial, rate) - 1.0))
        if gaps[-1] < tol:
            break
    if gaps[-1] < tol:
        expected = (len(gaps) - 1, gaps[-1])
        assert partition_of_unity(lam, mu, tol=tol, n_cap=levels) == expected
    elif lam == Q(1, 2):
        assert partition_of_unity(lam, mu, tol=tol, n_cap=levels) == (None, min(gaps))
    else:
        with pytest.raises(AccuracyError):
            partition_of_unity(lam, mu, tol=tol, n_cap=levels)
    if (mu, levels) == (Q(700), 300):
        assert energy_identity_gap(lam, mu, levels) == 700.0


@pytest.mark.parametrize("mu", [Q(17 * 10**307), Q(10**400)], ids=["rate-past-floats", "mu-past-floats"])
def test_level_sums_where_mu_or_the_rate_is_past_the_float_range(mu):
    # exp(-rate) is far below the floats and the first levels hold none of the
    # mass, so each partial sum times exp(-rate) reads 0
    with pytest.raises(AccuracyError, match="partition of unity not within 1e-06 after 2 levels"):
        partition_of_unity(Q(1, 4), mu, n_cap=2)
    assert partition_of_unity(Q(1, 2), mu, n_cap=2) == (None, 1.0)


def test_gm_partition_at_an_integer_rate_past_the_floats_is_quick():
    # the rate 2 10^400 is an int, where mpmath's exp takes a power path about
    # 100 times slower than at a fraction: the 500 levels must not pay it each,
    # nor divide their million-bit sums to learn that they read 0
    _wide_exp.cache_clear()
    start = time.process_time()
    assert partition_of_unity(Q(1, 2), Q(10**400), n_cap=500) == (None, 1.0)
    assert time.process_time() - start < 1.0


def test_energy_identity_where_mu_or_the_rate_is_past_the_float_range():
    # mu/(1 - lam) = 2.27e308 is past the floats while mu = 1.7e308 is not:
    # the five levels hold none of the mass, so the gap is mu itself
    assert energy_identity_gap(Q(1, 4), Q(17 * 10**307), 5) == 1.7e308
    with pytest.raises(AccuracyError, match=r"^mu = 1\.0e\+400 exceeds the float range$"):
        energy_identity_gap(Q(1, 4), Q(10**400), 5)
