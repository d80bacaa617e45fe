"""The identity catalog: every check the workbench asserts, runnable as suites.

Suites:
  exact   - identities decided in exact rational arithmetic (zero tolerance)
  numeric - float comparisons with stated tolerances
  errata  - documented discrepancies in commonly quoted closed forms; these
            report what disagrees and never fail
  all     - everything

Each check returns a CheckResult; a suite fails iff some check fails.
Random inputs are drawn from a seeded generator, so runs are reproducible.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from random import Random

from .backend import Q, rational_str
from .errors import ConditionalConvergenceWarning
from .exppoly import ExpPoly, exp_integral
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
    check_associativity,
    check_equivalence,
    hamiltonian,
    random_phase_poly,
    star,
    star_commutator,
)
from .poly import Poly
from .quadrature import integrate_decay

EXACT_PASS = "exact-pass"
NUMERIC_PASS = "numeric-pass"
FAIL = "fail"
ERRATUM = "documented-erratum"


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str  # exact | numeric | errata
    status: str
    detail: str = ""
    tolerance: float | None = None
    elapsed: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status == FAIL


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list = field(default_factory=list)
    elapsed: float = 0.0

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


def _exact(name, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, suite="exact",
                       status=EXACT_PASS if ok else FAIL, detail=detail)


def _numeric(name, ok: bool, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, suite="numeric",
                       status=NUMERIC_PASS if ok else FAIL,
                       detail=detail, tolerance=tol)


# -- exact checks ---------------------------------------------------------------

def check_moment_table() -> CheckResult:
    ok = True
    for k in range(21):
        for n in range(21):
            v = moment_integral(k, n)
            expect = (Q(-1) ** n * Q(math.comb(k, n)) * Q(math.factorial(k))
                      if k >= n else Q(0))
            ok &= v == expect
    return _exact("laguerre-moment-table-20x20", ok)


def check_mixed_orthogonality() -> CheckResult:
    ok = True
    for lam in (Q(1, 4), Q(1, 3), Q(1, 2)):
        for m in range(16):
            for n in range(16):
                v = mixed_orthogonality(m, n, lam)
                if m >= n:
                    expect = (Q(math.comb(m, n)) * lam ** (m - n)
                              * (1 - lam) ** n)
                else:
                    expect = Q(0)
                ok &= v == expect
    return _exact("mixed-orthogonality-15", ok)


def check_series_identity() -> CheckResult:
    ok = all(
        verify_projector_series_identity(n, 12, 12).equal for n in range(4)
    )
    scalar_ok = all(
        binomial_tail_identity(n, 80)[2] == 2 for n in range(11)
    )
    return _exact("projector-series-identity-(12,12)+scalar", ok and scalar_ok)


def check_orthonormality() -> CheckResult:
    ok = True
    for m in range(16):
        for n in range(16):
            v = exp_integral(
                ExpPoly.single(laguerre(m).poly * laguerre(n).poly, 1)
            )
            ok &= v == (1 if m == n else 0)
    return _exact("laguerre-orthonormality-15", ok)


def check_basis_matrix() -> CheckResult:
    a = basis_matrix(64)
    ok = is_identity(matmul(a, a))
    mono = all(
        monomial_from_laguerre(r, 12) == Poly.monomial(r) for r in range(12)
    )
    return _exact("signed-binomial-self-inverse-64+monomials", ok and mono)


def check_generating_function() -> CheckResult:
    return _exact("laguerre-generating-function-8", generating_function_check(8))


def check_duality() -> CheckResult:
    ok = True
    for lam in (Q(1, 4), Q(1, 3), Q(1, 2)):
        g = obs.duality_gram(12, lam)
        ok &= all(
            g[i][j] == (1 if i == j else 0)
            for i in range(13)
            for j in range(13)
        )
    return _exact("projector-duality-12", ok)


def check_projector_norm_eigen() -> CheckResult:
    ok = True
    for lam in (Q(0), Q(1, 4), Q(1, 2)):
        for n in range(13):
            ok &= exp_integral(spec.projector_closed(n, lam).form) == 1
        for n in range(9):
            p = spec.projector_closed(n, lam)
            ok &= spec.radial_star_apply(p.form, lam) == (n + lam) * p.form
    return _exact("projector-normalization+eigen", ok)


def check_radial_reduction() -> CheckResult:
    ok = True
    a, ab = PhasePoly.a(), PhasePoly.abar()
    for lam in (Q(0), Q(1, 4), Q(1, 3), Q(1, 2)):
        for m in range(6):
            full = star(hamiltonian(), (a * ab) ** m, lam)
            ok &= full.is_radial
            ok &= full.radial_series(40, 4) == spec.radial_star_on_polynomial(
                Poly.monomial(m), lam
            )
    return _exact("radial-reduction-vs-phase-product", ok)


def check_weights_and_moments() -> CheckResult:
    ok = True
    for lam in (Q(1, 4), Q(1, 3), Q(1, 2)):
        for k in range(51):
            w = obs.binomial_weights(k, lam)
            mean = sum((n + lam) * c for n, c in enumerate(w))
            second = sum((n + lam) ** 2 * c for n, c in enumerate(w))
            ok &= mean == (k + 1) * lam
            ok &= second == (k * k + k + 1) * lam**2 + k * lam
            ok &= unc.star_square_cross_check(k, lam).equal
    return _exact("quantum-weights-moments-50", ok)


def check_fourier_laguerre_binomial() -> CheckResult:
    ok = True
    for lam in (Q(1, 3), Q(1, 2)):
        for k in range(11):
            fl = obs.fourier_laguerre(obs.basic_distribution(k, lam), lam, k + 3)
            w = obs.binomial_weights(k, lam)
            ok &= list(fl.entries[: k + 1]) == w
            ok &= all(c == 0 for c in fl.entries[k + 1:])
    return _exact("fourier-laguerre-binomial-10", ok)


def check_basis_inversion() -> CheckResult:
    b = obs.basis_inversion(Q(1, 3), 16)
    ok = b.identity_ok and b.has_negative_entries
    for n in range(4):
        _, _, cf = obs.reconstruct_pure_state(Q(1, 3), n, 8)
        ok &= all(c == (1 if m == n else 0) for m, c in enumerate(cf.entries))
    return _exact("basis-inversion-16+pure-state-recovery", ok)


def check_negativity_witnesses() -> CheckResult:
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
    return _exact("projector-negativity-witnesses", ok)


def check_selection_scan() -> CheckResult:
    grid = unc.default_lambda_grid(64)
    res = unc.scan_lambda(grid, 1000)
    ok = all(e.matches_prediction for e in res.entries)
    ok &= all(
        unc.selection_inequality(k, Q(1, 2)).passes for k in range(1001)
    )
    rows = unc.gm_asymptotics(100)
    ok &= all(r.variance_difference == Q(1, 4) for r in rows)
    return _exact(f"selection-scan-den64-k1000 ({len(grid)} lambdas)", ok)


def check_algebra_properties(seed: int) -> CheckResult:
    rng = Random(seed)
    ok = True
    hb = PhasePoly.hbar()
    a, ab = PhasePoly.a(), PhasePoly.abar()
    for lam in (Q(0), Q(1, 4), Q(1, 2)):
        ok &= star_commutator(a, ab, lam) == hb
    triples = [tuple(random_phase_poly(rng) for _ in range(3)) for _ in range(100)]
    for lam in (Q(0), Q(1, 4), Q(1, 2)):
        for f, g, h in triples:
            ok &= check_associativity(f, g, h, lam)
            ok &= check_equivalence(f, g, lam)
    return _exact("star-associativity+equivalence-100x3", ok)


# -- numeric checks --------------------------------------------------------------

def check_partition_of_unity() -> CheckResult:
    tol = 1e-6
    ok, details = True, []
    for mu in (Q(1, 2), Q(1), Q(2), Q(5), Q(10)):
        r = spec.partition_of_unity(Q(1, 4), mu, tol=tol, n_cap=500)
        ok &= r.gap < tol and r.n_used is not None and r.n_used <= 500
        details.append(f"mu={rational_str(mu)}:N={r.n_used}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionalConvergenceWarning)
        half = spec.partition_of_unity(Q(1, 2), Q(1), tol=1e-2, n_cap=400)
    details.append(
        f"lam=1/2 qualitative: gap {half.gap:.3g} at N<=400 (conditional)"
    )
    return _numeric("partition-of-unity-lam-1/4", ok, tol, "; ".join(details))


def check_star_exponential() -> CheckResult:
    tol = 1e-8
    worst = 0.0
    for lam in (Q(0), Q(1, 4)):
        for mu in (Q(1, 2), Q(1), Q(2)):
            for wt in (0.3, 1.0, 2.0):
                c = spec.star_exp_closed(lam, mu, wt).value
                s = spec.star_exp_series(lam, mu, wt, 200).value
                worst = max(worst, abs(c - s))
    normal_worst = 0.0
    for mu in (Q(1, 2), Q(1), Q(2)):
        for wt in (0.3, 1.0, 2.0):
            normal_worst = max(
                normal_worst,
                abs(
                    spec.star_exp_closed(0, mu, wt).value
                    - spec.star_exp_normal_closed(mu, wt)
                ),
            )
    ok = worst < tol and normal_worst < 1e-12
    return _numeric(
        "star-exponential-closed-vs-series",
        ok,
        tol,
        f"max |closed - series| = {worst:.2e}; normal-form delta = {normal_worst:.2e}",
    )


def check_projector_series_convergence() -> CheckResult:
    tol = 1e-10
    v = spec.projector_series_eval(0, Q(1, 4), 60, Q(1))
    closed = spec.projector_closed(0, Q(1, 4))(Q(1))
    d1 = abs(float(v) - closed)
    v1 = spec.projector_series_eval(1, Q(1, 4), 60, Q(0))
    d2 = abs(float(v1) - float(Q(-4, 9)))
    ok = d1 < tol and d2 < tol
    return _numeric(
        "projector-series-vs-closed-K60", ok, tol, f"diffs {d1:.1e}, {d2:.1e}"
    )


def check_energy_identity() -> CheckResult:
    tol = 1e-8
    gaps = [spec.energy_identity_gap(Q(1, 4), mu, 300) for mu in (Q(1), Q(2), Q(5))]
    ok = all(g < tol for g in gaps)
    return _numeric(
        "energy-identity-weighted-sum", ok, tol,
        "gaps " + ", ".join(f"{g:.1e}" for g in gaps),
    )


def check_gamma_quadrature() -> CheckResult:
    tol = 1e-6
    raw = integrate_decay(
        lambda z: math.sqrt(z) * (1.0 - z) * math.exp(-z), tol=1e-7,
        max_doublings=26,
    )
    exact = -math.sqrt(math.pi) / 4.0
    d_raw = abs(raw.value - exact)
    rep = gamma_moment(Q(1, 2), 1, tol=1e-9)
    ok = d_raw < tol and rep.abs_diff < tol
    return _numeric(
        "gamma-moment-quadrature", ok, tol,
        f"raw Simpson {d_raw:.2e} ({raw.panels} panels); "
        f"substituted {rep.abs_diff:.2e} ({rep.panels} panels)",
    )


def check_gm_uncertainty_limit() -> CheckResult:
    rows = unc.gm_asymptotics(200)
    ok = all(
        rows[i].uncertainty_difference > rows[i + 1].uncertainty_difference
        for i in range(200)
    )
    ok &= all(r.uncertainty_difference < 0.05 for r in rows[25:])
    g3, g4 = unc.uncertainty_gap(Q(1, 4), 1000), unc.uncertainty_gap(Q(1, 4), 10000)
    ok &= abs(g3) > 0.05 and abs(g4) > abs(g3)
    return _numeric(
        "gm-uncertainty-gap-asymptotics", ok, 0.05,
        f"gap(k=25) = {rows[25].uncertainty_difference:.4f}; "
        f"lam=1/4 gaps {g3:.2f}, {g4:.2f} stay away from 0",
    )


# -- errata ----------------------------------------------------------------------

def check_starexp_displayed_forms() -> CheckResult:
    # the doubled-coefficient display disagrees with the series ground truth
    deltas = []
    for mu in (Q(1), Q(2)):
        s = spec.star_exp_series(Q(1, 4), mu, 1.0, 300).value
        displayed = spec.star_exp_closed_displayed(Q(1, 4), mu, 1.0)
        corrected = spec.star_exp_closed(Q(1, 4), mu, 1.0).value
        deltas.append((abs(displayed - s), abs(corrected - s)))
    mismatch = all(d > 1e-2 for d, _ in deltas)
    match = all(c < 1e-8 for _, c in deltas)
    status = ERRATUM if (mismatch and match) else FAIL
    return CheckResult(
        name="starexp-doubled-coefficient-display",
        suite="errata",
        status=status,
        detail=(
            "displayed exponent 2*mu deviates from the series by "
            f"{deltas[0][0]:.2e}; mu-coefficient form agrees to {deltas[0][1]:.1e}"
        ),
    )


def check_gm_sign_convention() -> CheckResult:
    ok = True
    for mu in (Q(1), Q(2)):
        for wt in (0.4, 1.1):
            disp = spec.star_exp_gm_displayed(mu, wt)
            corr = spec.star_exp_closed(Q(1, 2), mu, wt).value
            ok &= abs(disp - corr.conjugate()) < 1e-12
            ok &= abs(disp - corr) > 1e-3
    return CheckResult(
        name="gm-starexp-sign-convention",
        suite="errata",
        status=ERRATUM if ok else FAIL,
        detail="displayed sec*exp(+2 i mu tan) is the complex conjugate of the "
               "series value (time-reversed phase convention)",
    )


def check_radial_pde_erratum() -> CheckResult:
    rep = spec.verify_radial_pde()
    ok = (rep.corrected_residual_zero and not rep.displayed_residual_zero
          and rep.initial_value_one)
    return CheckResult(
        name="radial-evolution-equation-missing-factor",
        suite="errata",
        status=ERRATUM if ok else FAIL,
        detail="solution satisfies the equation with the extra radial factor s; "
               "as displayed the residual is omega*(w-1)(s-1)*F",
    )


# -- runner ----------------------------------------------------------------------

_EXACT_CHECKS = [
    check_moment_table,
    check_mixed_orthogonality,
    check_series_identity,
    check_orthonormality,
    check_basis_matrix,
    check_generating_function,
    check_duality,
    check_projector_norm_eigen,
    check_radial_reduction,
    check_weights_and_moments,
    check_fourier_laguerre_binomial,
    check_basis_inversion,
    check_negativity_witnesses,
    check_selection_scan,
]

_NUMERIC_CHECKS = [
    check_partition_of_unity,
    check_star_exponential,
    check_projector_series_convergence,
    check_energy_identity,
    check_gamma_quadrature,
    check_gm_uncertainty_limit,
]

_ERRATA_CHECKS = [
    check_starexp_displayed_forms,
    check_gm_sign_convention,
    check_radial_pde_erratum,
]

SUITES = ("all", "exact", "numeric", "errata")


def run_suite(suite: str = "all", seed: int = 0) -> SuiteReport:
    """Run a suite; a check that raises becomes a failed result of the list
    it came from, detailed as "<ExceptionType>: <message>"."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")

    def check_algebra_properties_seeded() -> CheckResult:
        return check_algebra_properties(seed)

    checks = []
    if suite in ("all", "exact"):
        checks.extend(("exact", fn) for fn in _EXACT_CHECKS)
        checks.append(("exact", check_algebra_properties_seeded))
    if suite in ("all", "numeric"):
        checks.extend(("numeric", fn) for fn in _NUMERIC_CHECKS)
    if suite in ("all", "errata"):
        checks.extend(("errata", fn) for fn in _ERRATA_CHECKS)
    report = SuiteReport(suite=suite, seed=seed)
    t0 = time.perf_counter()
    for origin, fn in checks:
        t1 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            result = CheckResult(name=fn.__name__, suite=origin, status=FAIL,
                                 detail=f"{type(exc).__name__}: {exc}")
        report.results.append(replace(result, elapsed=time.perf_counter() - t1))
    report.elapsed = time.perf_counter() - t0
    return report
