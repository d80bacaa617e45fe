"""Spectral projectors, the radial star-Hamiltonian, and star exponentials.

Everything radial lives in the dimensionless energy variable mu = H/(hbar
omega), and phase-space integrals carry the 1/(2 pi hbar) normalization
divided out once, so that  integral pi_n dmu = 1  exactly.

Closed forms (exact ExpPoly, 0 < lam < 1):

    pi_n = (1/(1-lam)) (-lam/(1-lam))^n L_n(mu/(lam(1-lam))) exp(-mu/(1-lam))

with the lam -> 0 limit  pi_n = mu^n exp(-mu)/n!  (the Poisson weights).
The energy at level n is (n + lam) hbar omega.

The star exponential exp_star(-iHt/hbar) equals the Fourier-Dirichlet sum
of the projectors, sum_n pi_n(mu) exp(-i(n+lam) omega t); its closed form is

    exp(-i lam omega t)/(1-lam+lam e^{-i omega t})
        * exp(mu (e^{-i omega t}-1)/(1-lam+lam e^{-i omega t})).

Note the exponent coefficient is mu itself: the doubled coefficient 2*mu
sometimes quoted does not match the series (check_starexp_displayed_forms
documents the discrepancy, along with the sign convention of the
Groenewold-Moyal special case sec(omega t/2) exp(2 i mu tan(omega t/2))).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .backend import Q, ZERO, qbinom, qfact
from .biseries import BiSeries
from .errors import AccuracyError, ConditionalConvergenceWarning, DomainError, PoleError
from .exppoly import ExpPoly, mu_times
from .gauss import GaussScalar
from .laguerre import laguerre, laguerre_eval_sequence
from .params import ModelParams, as_lambda, nonneg_int
from .poly import Poly
from .rootisolate import find_negative_point


@dataclass(frozen=True)
class Projector:
    """Level-n spectral projector of the lam-deformation, as an ExpPoly."""

    n: int
    lam: object
    form: ExpPoly

    def __call__(self, mu) -> float:
        return self.form(mu)

    @property
    def energy(self):
        return self.n + self.lam


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    lam: object
    energy: object  # (n + lam) * hbar * omega, exact


def projector_closed(n: int, lam) -> Projector:
    """Exact closed form; lam = 0 takes the Poisson branch."""
    if n < 0:
        raise DomainError("level index must be >= 0")
    lam = as_lambda(lam)
    if lam == 0:
        form = ExpPoly.single(Poly.monomial(n, Q(1) / qfact(n)), 1)
        return Projector(n=n, lam=lam, form=form)
    one_m = Q(1) - lam
    scaled = laguerre(n).poly.scale_arg(Q(1) / (lam * one_m))
    pref = (Q(-1) * lam / one_m) ** n / one_m
    return Projector(n=n, lam=lam, form=ExpPoly.single(scaled * pref, Q(1) / one_m))


def projector_poly_values(lam, mu, n_max: int) -> list:
    """[r_0, ..., r_nmax] with pi_n(mu) = r_n * exp(-mu/(1-lam)), all exact."""
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    mu = Q(mu)
    one_m = Q(1) - lam
    seq = laguerre_eval_sequence(n_max, mu / (lam * one_m))
    ratio = -lam / one_m
    out, power = [], Q(1) / one_m
    for n in range(n_max + 1):
        out.append(power * seq[n])
        power *= ratio
    return out


def projector_series_partial(n: int, lam, terms: int) -> Poly:
    """Partial sum of the lam-power series for pi_n, as an exact polynomial:

        (-1)^n sum_{k<=terms} lam^{n+k} C(n+k, k) L_{n+k}(mu/lam).

    Converges pointwise to the closed form for lam < 1/2; at lam = 1/2 the
    convergence is conditional and slow (a warning reminds callers).
    """
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    nonneg_int("n", n)
    nonneg_int("terms", terms)
    if lam == Q(1, 2):
        warnings.warn(
            "series for lam = 1/2 converges only conditionally",
            ConditionalConvergenceWarning,
            stacklevel=2,
        )
    out = Poly()
    sign = Q(-1) ** n
    inv = Q(1) / lam
    for k in range(terms + 1):
        c = sign * lam ** (n + k) * qbinom(n + k, k)
        out = out + laguerre(n + k).poly.scale_arg(inv) * c
    return out


def projector_series_eval(n: int, lam, terms: int, mu):
    """Exact value of the K-term partial series at rational mu."""
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    nonneg_int("n", n)
    nonneg_int("terms", terms)
    if lam == Q(1, 2):
        warnings.warn(
            "series for lam = 1/2 converges only conditionally",
            ConditionalConvergenceWarning,
            stacklevel=2,
        )
    seq = laguerre_eval_sequence(n + terms, Q(mu) / lam)
    sign = Q(-1) ** n
    total = ZERO
    for k in range(terms + 1):
        total += lam ** (n + k) * qbinom(n + k, k) * seq[n + k]
    return sign * total


def spectrum(lam, n_max: int, params: ModelParams = ModelParams()) -> list:
    """Energy levels (n + lam) hbar omega for n = 0..n_max; spacing hbar omega."""
    lam = as_lambda(lam)
    nonneg_int("n_max", n_max)
    scale = params.hbar * params.omega
    return [
        SpectrumEntry(n=n, lam=lam, energy=(n + lam) * scale)
        for n in range(n_max + 1)
    ]


def radial_star_apply(f: ExpPoly, lam) -> ExpPoly:
    """The radial form of H *_lam (.) on functions of mu, in units of hbar*omega:

        mu f + (1-2 lam) mu f' - lam(1-lam)(f' + mu f'').

    Exact on ExpPoly; reduces the full bidifferential product for radial
    arguments (cross-checked against the phase-space product on polynomials
    by radial_star_on_polynomial).
    """
    lam = as_lambda(lam)
    d1 = f.derivative()
    d2 = d1.derivative()
    out = mu_times(f) + (Q(1) - 2 * lam) * mu_times(d1)
    correction = lam * (Q(1) - lam)
    if correction:
        out = out - correction * (d1 + mu_times(d2))
    return out


def radial_star_on_polynomial(g: Poly, lam, orders=(40, 4)) -> BiSeries:
    """(a abar) *_lam g(a abar) for polynomial g, as a polynomial in (s, hbar):

        s g + hbar (1-2 lam) s g' - hbar^2 lam(1-lam)(g' + s g'').

    Keys are (s-power, hbar-power).  This is the exact radial reduction the
    phase-space star product must reproduce on radial polynomials.
    """
    lam = as_lambda(lam)
    kx, ky = orders
    g1, g2 = g.derivative(), g.derivative().derivative()
    coeffs = {}

    def put(poly, s_shift, hpow, scale):
        for k, c in enumerate(poly.coeffs):
            if c:
                key = (k + s_shift, hpow)
                coeffs[key] = coeffs.get(key, ZERO) + c * scale

    put(g, 1, 0, Q(1))
    put(g1, 1, 1, Q(1) - 2 * lam)
    put(g1, 0, 2, -lam * (Q(1) - lam))
    put(g2, 1, 2, -lam * (Q(1) - lam))
    return BiSeries(coeffs, kx, ky)


# -- star exponential ---------------------------------------------------------

@dataclass(frozen=True)
class StarExpEval:
    lam: object
    mu: object
    t: float
    value: complex
    terms: int | None
    conditional: bool


def _denominator(lam_f: float, omega_t: float) -> complex:
    return 1.0 - lam_f + lam_f * cmath.exp(-1j * omega_t)


def star_exp_closed(lam, mu, t: float, omega: float = 1.0) -> StarExpEval:
    """Closed-form exp_star(-iHt/hbar) at dimensionless energy mu."""
    lam = as_lambda(lam)
    lam_f, mu_f = float(lam), float(Q(mu))
    wt = omega * t
    den = _denominator(lam_f, wt)
    if abs(den) < 1e-12:
        raise PoleError(f"singular time: 1-lam+lam e^(-i omega t) = {den}")
    value = (
        cmath.exp(-1j * lam_f * wt)
        / den
        * cmath.exp(mu_f * (cmath.exp(-1j * wt) - 1.0) / den)
    )
    return StarExpEval(lam=lam, mu=Q(mu), t=t, value=value, terms=None,
                       conditional=False)


def star_exp_normal_closed(mu, t: float, omega: float = 1.0) -> complex:
    """Normal-order special case, written independently: exp(mu(e^{-iwt}-1))."""
    return cmath.exp(float(Q(mu)) * (cmath.exp(-1j * omega * t) - 1.0))


def star_exp_series(lam, mu, t: float, terms: int, omega: float = 1.0) -> StarExpEval:
    """Truncated Fourier-Dirichlet sum  sum_{n<=terms} pi_n(mu) e^{-i(n+lam)wt}."""
    lam = as_lambda(lam, hi=Q(1, 2), hi_open=False)
    nonneg_int("terms", terms)
    lam_f, mu_f = float(lam), float(Q(mu))
    wt = omega * t
    phase = cmath.exp(-1j * wt)
    conditional = lam == Q(1, 2)
    total = 0.0 + 0.0j
    if lam == 0:
        weight = math.exp(-mu_f)  # Poisson pi_n = e^-mu mu^n / n!
        rot = cmath.exp(0j)
        for n in range(terms + 1):
            total += weight * rot
            rot *= phase
            weight *= mu_f / (n + 1)
        return StarExpEval(lam=lam, mu=Q(mu), t=t, value=total, terms=terms,
                           conditional=False)
    one_m = 1.0 - lam_f
    x0 = mu_f / (lam_f * one_m)
    pref = math.exp(-mu_f / one_m) / one_m
    ratio = -lam_f / one_m
    l_prev, l_cur = 1.0, 1.0 - x0
    power = 1.0
    rot = cmath.exp(-1j * lam_f * wt)
    for n in range(terms + 1):
        ln = l_prev if n == 0 else l_cur
        total += pref * power * ln * rot
        rot *= phase
        power *= ratio
        if n >= 1:
            l_prev, l_cur = l_cur, ((2 * n + 1 - x0) * l_cur - n * l_prev) / (n + 1)
    return StarExpEval(lam=lam, mu=Q(mu), t=t, value=total, terms=terms,
                       conditional=conditional)


def star_exp_closed_displayed(lam, mu, t: float, omega: float = 1.0) -> complex:
    """The often-quoted closed form with the doubled energy coefficient 2*mu.

    Kept only for the discrepancy report; it does not match the series.
    """
    lam_f, mu_f = float(as_lambda(lam)), float(Q(mu))
    wt = omega * t
    den = _denominator(lam_f, wt)
    if abs(den) < 1e-12:
        raise PoleError("singular time")
    return (
        cmath.exp(-1j * lam_f * wt)
        / den
        * cmath.exp(2.0 * mu_f * (cmath.exp(-1j * wt) - 1.0) / den)
    )


def star_exp_gm_displayed(mu, t: float, omega: float = 1.0) -> complex:
    """The Groenewold-Moyal display sec(wt/2) exp(2 i mu tan(wt/2)).

    Matches the series only up to complex conjugation (a sign convention);
    kept for the discrepancy report.
    """
    half = omega * t / 2.0
    if abs(math.cos(half)) < 1e-12:
        raise PoleError("singular time")
    return (1.0 / math.cos(half)) * cmath.exp(2j * float(Q(mu)) * math.tan(half))


# -- radial evolution equation --------------------------------------------------

@dataclass(frozen=True)
class RadialPdeReport:
    corrected_residual_zero: bool
    displayed_residual_zero: bool
    displayed_residual: str
    initial_value_one: bool


def verify_radial_pde(omega=Q(1)) -> RadialPdeReport:
    """Check the normal-order radial evolution equation against its solution.

    The solution F(s, t) = exp(-s/hbar) exp(w s/hbar), w = e^{-i omega t},
    never vanishes, so a first-order equation holds iff the polynomial
    prefactors of F agree.  With hbar d_s log F = w - 1 and
    i hbar d_t log F = omega w s (the factor i * (-i) collapses exactly):

        i hbar dF/dt = omega s F + omega hbar s dF/ds      holds,
        i hbar dF/dt = omega s F + omega hbar   dF/ds      leaves a residual.
    """
    omega = Q(omega)
    # exact i * (-i) = 1 for the time-derivative prefactor
    c_t = GaussScalar(0, 1) * GaussScalar(0, -1)
    if c_t != 1:  # pragma: no cover
        raise AssertionError("imaginary units failed to cancel")
    kx = ky = 4
    w = BiSeries.var_x(kx, ky)
    s = BiSeries.var_y(kx, ky)
    one = BiSeries.constant(1, kx, ky)
    lhs = omega * (w * s)                      # (i hbar dF/dt) / F
    ds_log = w - one                           # (hbar dF/ds) / F
    rhs_good = omega * s + omega * (s * ds_log)
    rhs_displayed = omega * s + omega * ds_log
    residual = lhs - rhs_displayed
    # F at t = 0 has w = 1: exp((1-1)s/hbar) = 1
    initial_ok = True
    return RadialPdeReport(
        corrected_residual_zero=(lhs == rhs_good),
        displayed_residual_zero=residual.is_zero,
        displayed_residual=repr(residual),
        initial_value_one=initial_ok,
    )


# -- sums over levels ---------------------------------------------------------

@dataclass(frozen=True)
class PartitionReport:
    lam: object
    mu: object
    n_used: int | None
    gap: float
    tol: float
    conditional: bool


def partition_of_unity(lam, mu, tol: float = 1e-6, n_cap: int = 500) -> PartitionReport:
    """Smallest N with |sum_{n<=N} pi_n(mu) - 1| < tol (exact partial sums).

    At lam = 1/2 the sum is only conditionally convergent; the report is
    then qualitative (n_used may be None if tol is not reached by n_cap).
    """
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    mu = Q(mu)
    conditional = lam == Q(1, 2)
    values = projector_poly_values(lam, mu, n_cap)
    decay = math.exp(-float(mu / (Q(1) - lam)))
    running = ZERO
    best_gap = math.inf
    for n, r in enumerate(values):
        running += r
        gap = abs(float(running) * decay - 1.0)
        best_gap = min(best_gap, gap)
        if gap < tol:
            return PartitionReport(lam=lam, mu=mu, n_used=n, gap=gap, tol=tol,
                                   conditional=conditional)
    if conditional:
        return PartitionReport(lam=lam, mu=mu, n_used=None, gap=best_gap, tol=tol,
                               conditional=True)
    raise AccuracyError(
        f"partition of unity not within {tol} after {n_cap} levels"
    )


def energy_identity_gap(lam, mu, n_terms: int) -> float:
    """|sum_{n<=N} (n+lam) pi_n(mu) - mu| for the level-weighted energy sum."""
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    mu = Q(mu)
    values = projector_poly_values(lam, mu, n_terms)
    total = sum(((n + lam) * r for n, r in enumerate(values)), ZERO)
    decay = math.exp(-float(mu / (Q(1) - lam)))
    return abs(float(total) * decay - float(mu))


def projector_negative_witness(n: int, lam):
    """A rational mu > 0 with pi_n(mu) < 0, or None (exact root isolation)."""
    proj = projector_closed(n, lam)
    (rate, poly), = proj.form.terms.items()
    witness = find_negative_point(poly)
    if witness is not None and witness == 0:
        # want a strictly positive witness; nudge into the negative region
        for cand in (Q(1, 10 ** k) for k in range(1, 12)):
            if poly(cand) < 0:
                return cand
        return None
    return witness
