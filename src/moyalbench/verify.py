"""The identity catalog: every check the workbench asserts, runnable as suites.

Suites:
  exact   - identities decided in exact rational arithmetic (zero tolerance)
  numeric - float comparisons with stated tolerances
  errata  - documented discrepancies in commonly quoted closed forms; these
            report what disagrees and never fail
  all     - everything

A check returns only its verdict: ``ok`` for an exact check, ``(ok, detail)``
for an erratum and ``(ok, detail, tolerance)`` for a numeric check, so each
tolerance is stated inside its check.  ``CHECKS`` declares every check once,
as (catalog name, suite, function, takes_seed), in run order.  ``run_suite``
is the only code that builds a CheckResult: the status follows the entry's
suite, and a check that raises fails under its catalog name.  A suite fails
iff some check fails.  The entries that take the seed draw their random
inputs from a generator seeded with it, so runs are reproducible.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .backend import ONE, Q, rational_str
from .errors import ConditionalConvergenceWarning, DomainError
from .params import SUITES
from .exppoly import _pair_rows, exp_integral
from .laguerre import (
    basis_matrix,
    binomial_tail_identity,
    gamma_moment,
    generating_function_check,
    is_identity,
    laguerre,
    matmul,
    mixed_orthogonality,
    moment_integral,
    monomial_from_laguerre,
    verify_projector_series_identity,
)
from . import observables as obs
from . import spectral as spec
from . import uncertainty as unc
from .phase import (
    PhasePoly,
    _equivalence,
    _star,
    hamiltonian,
    random_phase_poly,
    star,
    star_commutator,
)
from .poly import Poly
from .quadrature import _simpson_doublings

EXACT_PASS = "exact-pass"
NUMERIC_PASS = "numeric-pass"
FAIL = "fail"
ERRATUM = "documented-erratum"


class CheckResult(NamedTuple):
    name: str
    suite: str  # exact | numeric | errata
    status: str
    detail: str
    tolerance: float | None
    elapsed: float

    @property
    def failed(self) -> bool:
        return self.status == FAIL


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    results: tuple
    elapsed: float

    @property
    def failures(self) -> list:
        return [r for r in self.results if r.failed]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "counts": {
                "total": len(self.results),
                "failed": len(self.failures),
            },
            "checks": [
                {
                    "name": r.name,
                    "suite": r.suite,
                    "status": r.status,
                    "detail": r.detail,
                    "tolerance": r.tolerance,
                }
                for r in self.results
            ],
        }

    def human_lines(self):
        lines = []
        for r in self.results:
            extra = f" (tol {r.tolerance:g})" if r.tolerance is not None else ""
            lines.append(
                f"[{r.status}] {r.name}{extra} "
                f"({1000 * r.elapsed:.1f} ms){': ' + r.detail if r.detail else ''}"
            )
        lines.append(
            f"{self.suite}: {len(self.results)} checks, "
            f"{len(self.failures)} failed, {self.elapsed:.2f} s"
        )
        return lines


# -- exact checks ---------------------------------------------------------------

def check_moment_table() -> bool:
    ok = True
    for k in range(21):
        for n in range(21):
            v = moment_integral(k, n)
            expect = (Q(-1) ** n * Q(math.comb(k, n)) * Q(math.factorial(k))
                      if k >= n else Q(0))
            ok &= v == expect
    return ok


def check_mixed_orthogonality() -> bool:
    ok = True
    for p, q in ((1, 4), (1, 3), (1, 2)):
        lam = Q(p, q)
        for m in range(16):
            for n in range(16):
                v = mixed_orthogonality(m, n, lam)
                # C(m,n) lam^(m-n) (1-lam)^n for m >= n, lam = p/q
                expect = (Fraction(math.comb(m, n) * p ** (m - n) * (q - p) ** n, q**m)
                          if m >= n else 0)
                ok &= v == expect
    return ok


def check_series_identity() -> bool:
    ok = all(
        verify_projector_series_identity(n, 12, 12) for n in range(4)
    )
    scalar_ok = all(
        binomial_tail_identity(n, 80)[2] == 2 for n in range(11)
    )
    return ok and scalar_ok


def check_orthonormality() -> bool:
    ok = True
    for m in range(16):
        for n in range(16):
            v = _pair_rows(laguerre(m), laguerre(n), ONE)
            ok &= v == (1 if m == n else 0)
    return ok


def check_basis_matrix() -> bool:
    a = basis_matrix(64)
    ok = is_identity(matmul(a, a))
    mono = all(
        monomial_from_laguerre(r) == Poly.monomial(r) for r in range(12)
    )
    return ok and mono


def check_generating_function() -> bool:
    return generating_function_check(8)


def check_duality() -> bool:
    ok = True
    for lam in (Q(1, 4), Q(1, 3), Q(1, 2)):
        g = obs.duality_gram(12, lam)
        ok &= all(
            g[i][j] == (1 if i == j else 0)
            for i in range(13)
            for j in range(13)
        )
    return ok


def check_projector_norm_eigen() -> bool:
    ok = True
    for lam in (Q(0), Q(1, 4), Q(1, 2)):
        for n in range(13):
            ok &= exp_integral(spec.projector_closed(n, lam).form) == 1
        for n in range(9):
            p = spec.projector_closed(n, lam)
            ok &= spec.radial_star_apply(p.form, lam) == (n + lam) * p.form
    return ok


def check_radial_reduction() -> bool:
    ok = True
    a, ab = PhasePoly.a(), PhasePoly.abar()
    for lam in (Q(0), Q(1, 4), Q(1, 3), Q(1, 2)):
        for m in range(6):
            full = star(hamiltonian(), (a * ab) ** m, lam)
            ok &= full.is_radial
            ok &= full == spec.radial_star_on_polynomial(Poly.monomial(m), lam)
    return ok


def check_weights_and_moments() -> bool:
    ok = True
    for p, q in ((1, 4), (1, 3), (1, 2)):
        lam = Q(p, q)
        quadratic = unc.radial_square(lam)  # H *_lam H depends on lam alone
        for k in range(51):
            mean, second, variance = unc.quantum_moments(k, lam)
            # (k+1) lam, (k^2+k+1) lam^2 + k lam and k lam(1-lam), lam = p/q
            ok &= mean == Fraction((k + 1) * p, q)
            ok &= second == Fraction((k * k + k + 1) * p * p + k * p * q, q * q)
            ok &= variance == Fraction(k * p * (q - p), q * q)
            # integral of (H *_lam H) p_k against the level sums' second moment
            ok &= unc.radial_square_moment(k, lam, quadratic) == second
    return ok


def check_fourier_laguerre_binomial() -> bool:
    ok = True
    for lam in (Q(1, 3), Q(1, 2)):
        for k in range(11):
            fl = obs.fourier_laguerre(obs.basic_distribution(k, lam), lam, k + 3)
            w = obs.binomial_weights(k, lam)
            ok &= list(fl[: k + 1]) == w
            ok &= all(c == 0 for c in fl[k + 1:])
    return ok


def check_basis_inversion() -> bool:
    b = obs.basis_inversion(Q(1, 3), 16)
    ok = b.identity_ok and b.has_negative_entries
    for n in range(4):
        _, _, cf = obs.reconstruct_pure_state(Q(1, 3), n, 8)
        ok &= all(c == (1 if m == n else 0) for m, c in enumerate(cf))
    return ok


def check_negativity_witnesses() -> bool:
    ok = True
    for n in (1, 2, 3):
        for lam in (Q(1, 4), Q(1, 2)):
            w = spec.projector_negative_witness(n, lam)
            ok &= w is not None and w > 0
            ok &= spec.projector_closed(n, lam).form.sign_at(w) < 0
    ok &= 1 in obs.negativity_search(Q(1, 2), Q(1, 10), 4)
    # lam -> 0 limit: Poisson weights are nonnegative everywhere
    ok &= all(
        spec.projector_closed(n, 0).form.nonneg_on_nonneg()[0] for n in range(6)
    )
    return ok


def check_selection_scan() -> bool:
    grid = unc.default_lambda_grid(64)
    ok = all(e.matches_prediction for e in unc.scan_lambda(grid, 1000))
    rows = unc.gm_asymptotics(100)
    ok &= all(r.variance_difference == Q(1, 4) for r in rows)
    return ok and len(grid) == 630  # the count CHECKS names


def _star_growth(left: tuple, right: tuple) -> int:
    """A factor G with ||x *_L y|| <= G ||x|| ||y|| for x, y of (deg_a,
    deg_abar) at most left and right, where ||.|| sums the absolute values of
    every L-coefficient of every part.  The (r, s) weight (1-L)^r (-L)^s has
    norm 2^r, x's row binomials are at most C(a, r) C(b, s) and y's falling
    factorials at most d^(r) c^(s)."""
    (a, b), (c, d) = left, right
    return sum(2**r * math.comb(a, r) * math.comb(b, s) * math.perm(d, r) * math.perm(c, s)
               for r in range(min(a, d) + 1) for s in range(min(b, c) + 1))


def _map_growth(deg: tuple) -> int:
    """A factor E with ||T x|| <= E ||x|| for T = exp(+-L hbar d_a d_abar) and
    x of (deg_a, deg_abar) at most deg: the sum of C(i,m) C(j,m) m!."""
    a, b = deg
    return sum(math.comb(a, m) * math.comb(b, m) * math.factorial(m)
               for m in range(min(a, b) + 1))


def _height_bound(triples) -> int:
    """M >= |every L-coefficient| of (f*g)*h, f*(g*h), f*g and T^-1(Tf *_0 Tg)
    over *_L, for each (f, g, h) of ints, from the inputs' degrees and norms
    alone (a product's degrees are at most the sums of its factors')."""
    M = 0
    for f, g, h in triples:
        nf, ng, nh = (sum(abs(re) + abs(im) for re, im in x.terms.values())
                      for x in (f, g, h))
        df, dg, dh = ((max(x.deg_a, 0), max(x.deg_abar, 0)) for x in (f, g, h))
        dfg = (df[0] + dg[0], df[1] + dg[1])
        dgh = (dg[0] + dh[0], dg[1] + dh[1])
        fg = _star_growth(df, dg) * nf * ng
        M = max(M, fg,
                _star_growth(dfg, dh) * fg * nh,
                _star_growth(df, dgh) * _star_growth(dg, dh) * nf * ng * nh,
                _map_growth(dfg) * fg * _map_growth(df) * _map_growth(dg))
    return M


def _lambda_digits(v: int, X: int) -> list:
    """v's balanced base-X digits, low first, each in [-X/2, X/2)."""
    digits = []
    while v:
        digits.append((v + X // 2) % X - X // 2)
        v = (v - digits[-1]) // X
    return digits


def _at_lambda(poly: PhasePoly, X: int, lam) -> PhasePoly:
    """The value at lam of the int polynomials in L whose values at L = X are
    poly's parts, read as balanced base-X digits (so each L-coefficient must
    lie within X/2)."""
    digits = {key: [_lambda_digits(v, X) for v in parts]
              for key, parts in poly.terms.items()}
    K = max((len(ds) for pair in digits.values() for ds in pair), default=1)
    p, q = lam.numerator, lam.denominator
    powers = [p**k * q ** (K - 1 - k) for k in range(K)]
    return PhasePoly({key: tuple(sum(d * w for d, w in zip(ds, powers)) for ds in pair)
                      for key, pair in digits.items()}, q ** (K - 1))


def check_algebra_properties(seed: int) -> bool:
    """[a, abar] = hbar at lam in {0, 1/4, 1/2}; associativity and the
    equivalence f*g = T^-1(Tf *_0 Tg), T = exp(lam hbar d_a d_abar), proved
    for every lam at once on 100 seeded triples of int polynomials.

    With q = 1 every weight of ``_star`` and ``_equivalence`` is an int
    polynomial in p, so each compared side is an int polynomial in L, and the
    cores at p = X return its value at L = X.  ``_height_bound`` gives M >=
    every L-coefficient of every side from the inputs alone, and X > 2M.  Two
    sides equal at X then have the same balanced base-X digits, so they are
    equal polynomials: both identities hold for every lam (Kronecker
    substitution in lam).  The link ties the public ``star`` to those
    polynomials: at each sampled lam, star(f, g, lam) on 10 triples and
    star(star(f, g, lam), h, lam) on one equal the digits evaluated at lam.
    """
    rng = Random(seed)
    hb = PhasePoly.hbar()
    a, ab = PhasePoly.a(), PhasePoly.abar()
    lams = (Q(0), Q(1, 4), Q(1, 2))
    ok = all(star_commutator(a, ab, lam) == hb for lam in lams)
    triples = [tuple(random_phase_poly(rng) for _ in range(3)) for _ in range(100)]
    ok &= all(x.den == 1 for triple in triples for x in triple)
    X = 1 << (_height_bound(triples).bit_length() + 2)
    products = []
    for f, g, h in triples:
        fg = _star(f, g, X, 1)
        products.append(fg)
        ok &= _star(fg, h, X, 1) == _star(f, _star(g, h, X, 1), X, 1)
        normal = _star(_equivalence(f, X, 1), _equivalence(g, X, 1), 0, 1)
        ok &= fg == _equivalence(normal, -X, 1)
    f, g, h = triples[0]
    fg_h = _star(products[0], h, X, 1)
    for lam in lams:
        for (x, y, _), xy in zip(triples[:10], products):
            ok &= star(x, y, lam) == _at_lambda(xy, X, lam)
        ok &= star(star(f, g, lam), h, lam) == _at_lambda(fg_h, X, lam)
    return ok


# -- numeric checks --------------------------------------------------------------

def check_partition_of_unity() -> tuple:
    tol = 1e-6
    ok, details = True, []
    for mu in (Q(1, 2), Q(1), Q(2), Q(5), Q(10)):
        n_used, gap = spec.partition_of_unity(Q(1, 4), mu, tol=tol, n_cap=500)
        ok &= gap < tol and n_used is not None and n_used <= 500
        details.append(f"mu={rational_str(mu)}:N={n_used}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionalConvergenceWarning)
        _, half_gap = spec.partition_of_unity(Q(1, 2), Q(1), tol=1e-2, n_cap=400)
    details.append(
        f"lam=1/2 qualitative: gap {half_gap:.3g} at N<=400 (conditional)"
    )
    return ok, "; ".join(details), tol


def check_star_exponential() -> tuple:
    tol = 1e-8
    worst = 0.0
    for lam in (Q(0), Q(1, 4)):
        for mu in (Q(1, 2), Q(1), Q(2)):
            for wt in (0.3, 1.0, 2.0):
                c = spec.star_exp_closed(lam, mu, wt)
                s = spec.star_exp_series(lam, mu, wt, 200)
                worst = max(worst, abs(c - s))
    normal_worst = 0.0
    for mu in (Q(1, 2), Q(1), Q(2)):
        for wt in (0.3, 1.0, 2.0):
            normal_worst = max(
                normal_worst,
                abs(
                    spec.star_exp_closed(0, mu, wt)
                    - spec.star_exp_normal_closed(mu, wt)
                ),
            )
    ok = worst < tol and normal_worst < 1e-12
    return (
        ok,
        f"max |closed - series| = {worst:.2e}; normal-form delta = {normal_worst:.2e}",
        tol,
    )


def check_projector_series_convergence() -> tuple:
    tol = 1e-10
    v = spec.projector_series_eval(0, Q(1, 4), 60, Q(1))
    closed = spec.projector_closed(0, Q(1, 4))(Q(1))
    d1 = abs(float(v) - closed)
    v1 = spec.projector_series_eval(1, Q(1, 4), 60, Q(0))
    d2 = abs(float(v1) - float(Q(-4, 9)))
    ok = d1 < tol and d2 < tol
    return ok, f"diffs {d1:.1e}, {d2:.1e}", tol


def check_energy_identity() -> tuple:
    tol = 1e-8
    gaps = [spec.energy_identity_gap(Q(1, 4), mu, 300) for mu in (Q(1), Q(2), Q(5))]
    ok = all(g < tol for g in gaps)
    return ok, "gaps " + ", ".join(f"{g:.1e}" for g in gaps), tol


# Navot's extension of Euler-Maclaurin (Navot 1961; Lyness & Ninham 1967):
# for f(z) = sqrt(z) g(z) on [0, T], composite Simpson on step h has
#   S_h - I = sum_j (4 - 2^(j+3/2))/3 zeta(-j-1/2) g^(j)(0)/j! h^(j+3/2) + ...
# (Simpson is (4 T_h - T_2h)/3 of the trapezoid sums), and the ordinary
# terms at T = 50 are below e^-50.  Literals, so that verify never loads
# mpmath: zeta(-1/2), zeta(-3/2), zeta(-5/2), zeta(-7/2), and g^(j)(0) =
# (-1)^j (j + 1) for g(z) = (1 - z) e^-z.
_NAVOT_ZETA = (-0.207886224977355, -0.025485201889833,
               0.008516928777850, 0.004441011335479)
_NAVOT_G = (1.0, -2.0, 3.0, -4.0)


def check_gamma_quadrature() -> tuple:
    tol = 1e-6
    # the four-term model leaves 6e-7 of the error at 1024 panels; a 1e-9
    # relative change of the 4096-panel estimate moves it by 4e-6
    model_tol = 2e-6
    exact = -math.sqrt(math.pi) / 4.0
    estimates = list(itertools.islice(_simpson_doublings(
        lambda z: math.sqrt(z) * (1.0 - z) * math.exp(-z), 50.0,
    ), 6, 9))  # 1024, 2048 and 4096 panels
    mismatch = []
    for n, s in estimates:
        h = 50.0 / n
        model = sum(
            (4.0 - 2.0 ** (j + 1.5)) / 3.0 * z * g / math.factorial(j)
            * h ** (j + 1.5)
            for j, (z, g) in enumerate(zip(_NAVOT_ZETA, _NAVOT_G))
        )
        mismatch.append(abs(s - exact - model) / abs(s - exact))
    # Richardson: eliminate h^(3/2), then h^(5/2)
    (n1, s1), (_, s2), (n4, s4) = estimates
    a, b = 2.0 ** 1.5, 2.0 ** 2.5
    r12, r24 = (a * s2 - s1) / (a - 1.0), (a * s4 - s2) / (a - 1.0)
    d_ext = abs((b * r24 - r12) / (b - 1.0) - exact)
    rep = gamma_moment(Q(1, 2), 1)
    ok = (all(m < model_tol for m in mismatch) and d_ext < tol
          and rep.abs_diff < tol)
    return (
        ok,
        f"Navot model matches Simpson error to {max(mismatch):.1e} rel "
        f"({n1}-{n4} panels); extrapolated {d_ext:.2e}; "
        f"substituted {rep.abs_diff:.2e} ({rep.panels} panels)",
        tol,
    )


def check_gm_uncertainty_limit() -> tuple:
    rows = unc.gm_asymptotics(200)
    ok = all(
        rows[i].uncertainty_difference > rows[i + 1].uncertainty_difference
        for i in range(200)
    )
    ok &= all(r.uncertainty_difference < 0.05 for r in rows[25:])
    g3, g4 = unc.uncertainty_gap(Q(1, 4), 1000), unc.uncertainty_gap(Q(1, 4), 10000)
    ok &= abs(g3) > 0.05 and abs(g4) > abs(g3)
    return (
        ok,
        f"gap(k=25) = {rows[25].uncertainty_difference:.4f}; "
        f"lam=1/4 gaps {g3:.2f}, {g4:.2f} stay away from 0",
        0.05,
    )


# -- errata ----------------------------------------------------------------------

def check_starexp_displayed_forms() -> tuple:
    # the doubled-coefficient display (the closed form at 2*mu in place of
    # mu) disagrees with the series ground truth
    deltas = []
    for mu in (Q(1), Q(2)):
        s = spec.star_exp_series(Q(1, 4), mu, 1.0, 300)
        displayed = spec.star_exp_closed(Q(1, 4), 2 * mu, 1.0)
        corrected = spec.star_exp_closed(Q(1, 4), mu, 1.0)
        deltas.append((abs(displayed - s), abs(corrected - s)))
    mismatch = all(d > 1e-2 for d, _ in deltas)
    match = all(c < 1e-8 for _, c in deltas)
    return (
        mismatch and match,
        "displayed exponent 2*mu deviates from the series by "
        f"{deltas[0][0]:.2e}; mu-coefficient form agrees to {deltas[0][1]:.1e}",
    )


def check_gm_sign_convention() -> tuple:
    ok = True
    for mu in (Q(1), Q(2)):
        for wt in (0.4, 1.1):
            disp = spec.star_exp_gm_displayed(mu, wt)
            corr = spec.star_exp_closed(Q(1, 2), mu, wt)
            ok &= abs(disp - corr.conjugate()) < 1e-12
            ok &= abs(disp - corr) > 1e-3
    return (
        ok,
        "displayed sec*exp(+2 i mu tan) is the complex conjugate of the "
        "series value (time-reversed phase convention)",
    )


def check_radial_pde_erratum() -> tuple:
    corrected_zero, displayed_zero = spec.verify_radial_pde()
    ok = corrected_zero and not displayed_zero
    return (
        ok,
        "solution satisfies the equation with the extra radial factor s; "
        "as displayed the residual is omega*(w-1)(s-1)*F",
    )


# -- runner ----------------------------------------------------------------------

# Every check once, in run order: (catalog name, suite, function, takes_seed).
CHECKS = (
    ("laguerre-moment-table-20x20", "exact", check_moment_table, False),
    ("mixed-orthogonality-15", "exact", check_mixed_orthogonality, False),
    ("projector-series-identity-(12,12)+scalar", "exact", check_series_identity, False),
    ("laguerre-orthonormality-15", "exact", check_orthonormality, False),
    ("signed-binomial-self-inverse-64+monomials", "exact", check_basis_matrix, False),
    ("laguerre-generating-function-8", "exact", check_generating_function, False),
    ("projector-duality-12", "exact", check_duality, False),
    ("projector-normalization+eigen", "exact", check_projector_norm_eigen, False),
    ("radial-reduction-vs-phase-product", "exact", check_radial_reduction, False),
    ("quantum-weights-moments-50", "exact", check_weights_and_moments, False),
    ("fourier-laguerre-binomial-10", "exact", check_fourier_laguerre_binomial, False),
    ("basis-inversion-16+pure-state-recovery", "exact", check_basis_inversion, False),
    ("projector-negativity-witnesses", "exact", check_negativity_witnesses, False),
    ("selection-scan-den64-k1000 (630 lambdas)", "exact", check_selection_scan, False),
    ("star-associativity+equivalence-100x3", "exact", check_algebra_properties, True),
    ("partition-of-unity-lam-1/4", "numeric", check_partition_of_unity, False),
    ("star-exponential-closed-vs-series", "numeric", check_star_exponential, False),
    ("projector-series-vs-closed-K60", "numeric", check_projector_series_convergence, False),
    ("energy-identity-weighted-sum", "numeric", check_energy_identity, False),
    ("gamma-moment-quadrature", "numeric", check_gamma_quadrature, False),
    ("gm-uncertainty-gap-asymptotics", "numeric", check_gm_uncertainty_limit, False),
    ("starexp-doubled-coefficient-display", "errata", check_starexp_displayed_forms, False),
    ("gm-starexp-sign-convention", "errata", check_gm_sign_convention, False),
    ("radial-evolution-equation-missing-factor", "errata", check_radial_pde_erratum, False),
)

_PASS = {"exact": EXACT_PASS, "numeric": NUMERIC_PASS, "errata": ERRATUM}


def run_suite(suite: str = "all", seed: int = 0) -> SuiteReport:
    """Run the suite's entries of CHECKS in order; a check that raises fails
    under its catalog name, detailed as "<ExceptionType>: <message>"."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {SUITES}")
    results = []
    t0 = time.perf_counter()
    for name, origin, check, takes_seed in CHECKS:
        if suite not in ("all", origin):
            continue
        t1 = time.perf_counter()
        try:
            verdict = check(seed) if takes_seed else check()
            # exact: ok; errata: (ok, detail); numeric: (ok, detail, tol)
            ok, detail, tol = ((verdict, "", None) if origin == "exact"
                               else (*verdict, None)[:3])
        except Exception as exc:
            ok, detail, tol = False, f"{type(exc).__name__}: {exc}", None
        elapsed = time.perf_counter() - t1
        results.append(CheckResult(name, origin, _PASS[origin] if ok else FAIL,
                                   detail, tol, elapsed))
    return SuiteReport(suite, seed, tuple(results), time.perf_counter() - t0)
