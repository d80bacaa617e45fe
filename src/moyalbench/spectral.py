"""Spectral projectors, the radial star-Hamiltonian, and star exponentials.

Everything radial lives in the dimensionless energy variable mu = H/(hbar
omega), and phase-space integrals carry the 1/(2 pi hbar) normalization
divided out once, so that  integral pi_n dmu = 1  exactly.

Closed forms (exact ExpPoly, 0 < lam < 1):

    pi_n = (1/(1-lam)) (-lam/(1-lam))^n L_n(mu/(lam(1-lam))) exp(-mu/(1-lam))

with the lam -> 0 limit  pi_n = mu^n exp(-mu)/n!  (the Poisson weights).
The energy at level n is n + lam, in units of hbar omega.

Sums over levels at one rational mu run on ints.  With lam = a/b,
c = b - a and mu/(lam(1-lam)) = p/q, pi_n(mu) exp(mu/(1-lam)) is
b (-a)^n M_n / (c^{n+1} n! q^n), M_n = n! q^n L_n(p/q) from laguerre's
integer recurrence; a partial sum keeps its numerator over that running
denominator, with no gcd and no rational per level, stops at the level that
decides it, and is divided once.

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
from itertools import islice
from typing import NamedTuple

from .backend import Q, ZERO, qfact
from .errors import AccuracyError, ConditionalConvergenceWarning, DomainError, PoleError
from .params import as_lambda, nonneg_int


class Projector(NamedTuple):
    """Level-n spectral projector of the lam-deformation, as an ExpPoly."""

    n: int
    lam: object
    form: ExpPoly

    def __call__(self, mu) -> float:
        return self.form(mu)


def projector_closed(n: int, lam) -> Projector:
    """Exact closed form; lam = 0 takes the Poisson branch."""
    from .exppoly import ExpPoly
    from .laguerre import laguerre
    from .poly import Poly
    nonneg_int("n", n)
    lam = as_lambda(lam)
    if lam == 0:
        form = ExpPoly.single(Poly.monomial(n, Q(1) / qfact(n)), 1)
        return Projector(n=n, lam=lam, form=form)
    one_m = Q(1) - lam
    scaled = laguerre(n).scale_arg(Q(1) / (lam * one_m))
    pref = (Q(-1) * lam / one_m) ** n / one_m
    return Projector(n=n, lam=lam, form=ExpPoly.single(scaled * pref, Q(1) / one_m))


def level_terms(lam, mu):
    """Yield (t_n, s_n) for n = 0, 1, ...: ints with

        pi_n(mu) exp(mu/(1-lam)) = t_n / (s_0 s_1 ... s_n).

    With lam = a/b, c = b - a and mu/(lam(1-lam)) = p/q in lowest terms,
    t_n = b (-a)^n M_n (M_n from laguerre_scaled), s_0 = c and s_n = c n q,
    so the running denominator is c^{n+1} n! q^n > 0 and t_n has the sign of
    pi_n(mu).  The generator runs until its reader stops.
    """
    from .laguerre import laguerre_scaled
    lam = as_lambda(lam, lo_open=True)
    x = Q(mu) / (lam * (1 - lam))
    a, b = lam.numerator, lam.denominator
    c, q = b - a, x.denominator
    power = b
    for n, m in enumerate(laguerre_scaled(x)):
        yield power * m, c * n * q if n else c
        power *= -a


def level_sums(lam, mu, weighted: bool = False):
    """Yield (A_N, D_N) for N = 0, 1, ...: ints with

        sum_{n<=N} w_n pi_n(mu) exp(mu/(1-lam)) = A_N / D_N,

    w_n = 1, or n + lam when weighted.  D_{N+1} = D_N s_{N+1} over
    level_terms, so no gcd is taken and no rational is formed per level.
    """
    lam = as_lambda(lam, lo_open=True)
    a, b = lam.numerator, lam.denominator
    # (n + a/b) t_n / D_n: the weighted sums run over b D_n
    total, den = 0, b if weighted else 1
    for n, (t, s) in enumerate(level_terms(lam, mu)):
        total = total * s + ((b * n + a) * t if weighted else t)
        den *= s
        yield total, den


def projector_series_eval(n: int, lam, terms: int, mu):
    """Exact value of the K-term partial series at rational mu.

    With lam = a/b and mu/lam = p/q, the k-th term
    lam^{n+k} C(n+k, k) L_{n+k}(mu/lam) is a^{n+k} M_{n+k} / (n! k! (bq)^{n+k});
    the terms are summed as ints over that running denominator and divided
    once.
    """
    from .laguerre import laguerre_scaled
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    nonneg_int("n", n)
    nonneg_int("terms", terms)
    if lam == Q(1, 2):
        warnings.warn(
            "series for lam = 1/2 converges only conditionally",
            ConditionalConvergenceWarning,
            stacklevel=2,
        )
    x = Q(mu) / lam
    a, bq = lam.numerator, lam.denominator * x.denominator
    power = a ** n
    total, den = 0, math.factorial(n) * bq ** n
    for k, m in enumerate(islice(laguerre_scaled(x), n, n + terms + 1)):
        if k:
            power *= a
            total *= k * bq
            den *= k * bq
        total += power * m
    return Q((-1) ** n * total, den)


def spectrum(lam, n_max: int) -> list:
    """Exact dimensionless energy levels [lam, 1 + lam, ..., n_max + lam]
    (units of hbar omega, so the spacing is 1)."""
    lam = as_lambda(lam)
    nonneg_int("n_max", n_max)
    return [n + lam for n in range(n_max + 1)]


def radial_star_apply(f: ExpPoly, lam) -> ExpPoly:
    """The radial form of H *_lam (.) on functions of mu, in units of hbar*omega:

        mu f + (1-2 lam) mu f' - lam(1-lam)(f' + mu f'').

    Exact on ExpPoly; reduces the full bidifferential product for radial
    arguments (cross-checked against the phase-space product on polynomials
    by radial_star_on_polynomial).
    """
    from .exppoly import mu_times
    lam = as_lambda(lam)
    d1 = f.derivative()
    d2 = d1.derivative()
    out = mu_times(f) + (Q(1) - 2 * lam) * mu_times(d1)
    correction = lam * (Q(1) - lam)
    if correction:
        out = out - correction * (d1 + mu_times(d2))
    return out


def radial_star_on_polynomial(g: Poly, lam) -> PhasePoly:
    """(a abar) *_lam g(a abar) for polynomial g, as a radial PhasePoly:

        s g + hbar (1-2 lam) s g' - hbar^2 lam(1-lam)(g' + s g''),

    with s^k hbar^d the term (a abar)^k hbar^d.  This is the exact radial
    reduction the phase-space star product must reproduce on radial
    polynomials.
    """
    from .phase import PhasePoly
    lam = as_lambda(lam)
    g1, g2 = g.derivative(), g.derivative().derivative()
    coeffs = {}

    def put(poly, s_shift, hpow, scale):
        for k, c in enumerate(poly.coeffs):
            if c:
                key = (k + s_shift, k + s_shift, hpow)
                coeffs[key] = coeffs.get(key, ZERO) + c * scale

    put(g, 1, 0, Q(1))
    put(g1, 1, 1, Q(1) - 2 * lam)
    put(g1, 0, 2, -lam * (Q(1) - lam))
    put(g2, 1, 2, -lam * (Q(1) - lam))
    return PhasePoly.build(coeffs)


# -- star exponential ---------------------------------------------------------

def _denominator(lam_f: float, t: float) -> complex:
    return 1.0 - lam_f + lam_f * cmath.exp(-1j * t)


def _float_mu(mu, t: float = 0.0) -> float:
    """float(mu) for a star exponential at time t or a level sum: a
    non-finite t raises DomainError, and a mu that no float can hold
    AccuracyError."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    mu = Q(mu)
    try:
        return float(mu)
    except OverflowError:
        from mpmath import libmp
        wide = libmp.to_str(libmp.from_rational(mu.numerator, mu.denominator, 20), 5)
        raise AccuracyError(f"mu = {wide} exceeds the float range") from None


def star_exp_closed(lam, mu, t: float) -> complex:
    """Closed-form exp_star(-iHt/hbar) at dimensionless energy mu; t is in
    units of 1/omega."""
    lam = as_lambda(lam)
    lam_f, mu_f = float(lam), _float_mu(mu, t)
    den = _denominator(lam_f, t)
    if abs(den) < 1e-12:
        raise PoleError(f"singular time: 1-lam+lam e^(-i omega t) = {den}")
    return (
        cmath.exp(-1j * lam_f * t)
        / den
        * cmath.exp(mu_f * (cmath.exp(-1j * t) - 1.0) / den)
    )


def star_exp_normal_closed(mu, t: float) -> complex:
    """Normal-order special case, written independently: exp(mu(e^{-it}-1))."""
    return cmath.exp(_float_mu(mu, t) * (cmath.exp(-1j * t) - 1.0))


def star_exp_series(lam, mu, t: float, terms: int) -> complex:
    """Truncated Fourier-Dirichlet sum  sum_{n<=terms} pi_n(mu) e^{-i(n+lam)t}.

    At lam = 1/2 the sum converges only conditionally."""
    lam = as_lambda(lam, hi=Q(1, 2), hi_open=False)
    nonneg_int("terms", terms)
    lam_f, mu_f = float(lam), _float_mu(mu, t)
    phase = cmath.exp(-1j * t)
    total = 0.0 + 0.0j
    if lam == 0:
        weight = math.exp(-mu_f)  # Poisson pi_n = e^-mu mu^n / n!
        rot = cmath.exp(0j)
        for n in range(terms + 1):
            total += weight * rot
            rot *= phase
            weight *= mu_f / (n + 1)
        return total
    one_m = 1.0 - lam_f
    x0 = mu_f / (lam_f * one_m)
    pref = math.exp(-mu_f / one_m) / one_m
    ratio = -lam_f / one_m
    l_prev, l_cur = 1.0, 1.0 - x0
    power = 1.0
    rot = cmath.exp(-1j * lam_f * t)
    for n in range(terms + 1):
        ln = l_prev if n == 0 else l_cur
        total += pref * power * ln * rot
        rot *= phase
        power *= ratio
        if n >= 1:
            l_prev, l_cur = l_cur, ((2 * n + 1 - x0) * l_cur - n * l_prev) / (n + 1)
    return total


def star_exp_gm_displayed(mu, t: float) -> complex:
    """The Groenewold-Moyal display sec(t/2) exp(2 i mu tan(t/2)).

    Matches the series only up to complex conjugation (a sign convention);
    kept for the discrepancy report.
    """
    mu_f, half = _float_mu(mu, t), t / 2.0
    if abs(math.cos(half)) < 1e-12:
        raise PoleError("singular time")
    return (1.0 / math.cos(half)) * cmath.exp(2j * mu_f * math.tan(half))


# -- radial evolution equation --------------------------------------------------

def verify_radial_pde() -> tuple:
    """Check the normal-order radial evolution equation against its solution.

    Returns (corrected_residual_zero, displayed_residual_zero).

    Time is in units of 1/omega.  The solution
    F(s, t) = exp(-s/hbar) exp(w s/hbar), w = e^{-i t}, never vanishes, so a
    first-order equation holds iff the polynomial prefactors of F agree.
    With hbar d_s log F = w - 1 and i hbar d_t log F = w s (the factor
    i * (-i) collapses exactly):

        i hbar dF/dt = s F + hbar s dF/ds      holds,
        i hbar dF/dt = s F + hbar   dF/ds      leaves a residual.
    """
    from .biseries import BiSeries
    kx = ky = 4
    w = BiSeries.var_x(kx, ky)
    s = BiSeries.var_y(kx, ky)
    one = BiSeries.constant(1, kx, ky)
    lhs = w * s                                # (i hbar dF/dt) / F
    ds_log = w - one                           # (hbar dF/ds) / F
    rhs_good = s + s * ds_log
    rhs_displayed = s + ds_log
    return lhs == rhs_good, lhs == rhs_displayed


# -- sums over levels ---------------------------------------------------------

def partition_of_unity(lam, mu, tol: float = 1e-6, n_cap: int = 500) -> tuple:
    """(N, gap): the smallest N with gap = |sum_{n<=N} pi_n(mu) - 1| < tol
    (exact partial sums, formed up to level N and no further).

    At lam = 1/2 the sum is only conditionally convergent; the answer is
    then qualitative: (None, the least gap) if tol is not reached by n_cap.
    """
    from .exppoly import _decayed
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=False)
    nonneg_int("n_cap", n_cap)
    rate = Q(mu) / (1 - lam)
    best_gap = math.inf
    for n, (total, den) in zip(range(n_cap + 1), level_sums(lam, mu)):
        gap = abs(_decayed(total, den, rate) - 1.0)
        best_gap = min(best_gap, gap)
        if gap < tol:
            return n, gap
    if lam == Q(1, 2):
        return None, best_gap
    raise AccuracyError(
        f"partition of unity not within {tol} after {n_cap} levels"
    )


def energy_identity_gap(lam, mu, n_terms: int) -> float:
    """|sum_{n<=N} (n+lam) pi_n(mu) - mu| for the level-weighted energy sum,
    0 < lam < 1/2.  At lam = 1/2 the sum does not converge, so that lambda is a
    DomainError."""
    from .exppoly import _decayed
    lam = as_lambda(lam, lo_open=True, hi=Q(1, 2), hi_open=True)
    nonneg_int("n_terms", n_terms)
    mu, mu_f = Q(mu), _float_mu(mu)
    total, den = next(islice(level_sums(lam, mu, weighted=True), n_terms, None))
    return abs(_decayed(total, den, mu / (1 - lam)) - mu_f)


def projector_negative_witness(n: int, lam):
    """A rational mu > 0 with pi_n(mu) < 0, or None (exact root isolation).

    At lam = 0, pi_n is the Poisson weight mu^n exp(-mu)/n! >= 0.  For
    lam > 0, pi_n's polynomial factor is p = c L_n(mu/s), s = lam(1-lam), c
    of sign (-1)^n, and pi_0 > 0.  At odd n, p(0) = c < 0.  At even n >= 2,
    the root isolation runs on f_k = (-1)^k L_(n-k)(mu/s), k = 0..n, with no
    remainder sequence: it is a Sturm sequence for p on (0, inf) (Szego,
    Orthogonal Polynomials, sec. 3.3).  From x L_n'(x) = n (L_n - L_(n-1)),
    f_1 has the sign of f_0' at every zero of f_0, since x > 0; by the
    three-term recurrence (k+1) L_(k+1) = (2k+1-x) L_k - k L_(k-1), two
    neighbours have no common zero, and f_(k-1) f_(k+1) < 0 at a zero of a
    middle term; and f_n = +-1.  Its values at a point come from the
    recurrence's steps (rootisolate._laguerre_chain).  Like p's remainder
    sequence it reads, at every mu >= 0, as many sign changes as p has roots
    in (mu, inf), so the search visits the same points and finds the same
    witness.
    """
    from .rootisolate import _laguerre_chain, _negative_point, cauchy_bound
    proj = projector_closed(n, lam)
    (_, poly), = proj.form.terms.items()
    lam = proj.lam
    if not lam or not n:
        return None
    if poly.nums[0] < 0:
        # p(0) < 0: below |a_0| / (|a_0| + max_{i>=1} |a_i|), the Cauchy lower
        # bound on the moduli of the roots, p keeps the sign of a_0
        a0 = abs(poly.nums[0])
        return Q(a0, a0 + max(map(abs, poly.nums[1:])))
    return _negative_point(poly, _laguerre_chain(poly, lam * (1 - lam)), cauchy_bound(poly))
