"""Energy distributions and their level-occupation statistics.

A distribution p(mu) >= 0 with integral 1 induces occupation numbers for the
levels of the lam-quantization through the projector pairings

    c_n = integral pi_n(mu) p(mu) dmu     (Fourier-Laguerre coefficients).

p is called observable (for that lam) when every c_n >= 0.  The Gamma-type
basic distributions

    p_k(mu) = (1/(lam k!)) (mu/lam)^k exp(-mu/lam)

have the exact binomial coefficients c_n = C(k,n) lam^n (1-lam)^{k-n} (zero
beyond n = k), and triangular inversion of that coefficient matrix recovers
every single-level coefficient vector as a signed combination of the p_k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import Q, ZERO, qbinom, qfact
from .errors import DomainError
from .exppoly import ExpPoly, exp_integral
from .params import as_lambda, nonneg_int
from .poly import Poly
from .spectral import projector_closed, projector_poly_values


@dataclass(frozen=True)
class DiracDelta:
    """Point mass; the lam -> 0 degenerate limit of the basic distributions."""

    at: object


@dataclass(frozen=True)
class Distribution:
    form: ExpPoly
    normalized: bool
    nonneg: object  # True / False / None (undecided)
    negative_witness: object = None

    def __call__(self, mu) -> float:
        return self.form(mu)


def as_distribution(form: ExpPoly, require: bool = True) -> Distribution:
    """Wrap an ExpPoly as a distribution, checking mass and sign exactly."""
    normalized = exp_integral(form) == 1
    nonneg, witness = form.nonneg_on_nonneg()
    if require and not normalized:
        raise DomainError("distribution does not integrate to 1")
    if require and nonneg is False:
        raise DomainError(f"distribution is negative at mu = {witness}")
    return Distribution(
        form=form, normalized=normalized, nonneg=nonneg, negative_witness=witness
    )


def basic_distribution(k: int, lam):
    """The k-th Gamma-type basic distribution; DiracDelta at lam = 0."""
    if k < 0:
        raise DomainError("k must be >= 0")
    lam = as_lambda(lam)
    if lam == 0:
        return DiracDelta(at=ZERO)
    poly = Poly.monomial(k, Q(1) / (lam ** (k + 1) * qfact(k)))
    return Distribution(
        form=ExpPoly.single(poly, Q(1) / lam),
        normalized=True,
        nonneg=True,
    )


def binomial_weights(k: int, lam) -> list:
    """Closed-form coefficients C(k,n) lam^n (1-lam)^{k-n}, n = 0..k."""
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("k", k)
    return [qbinom(k, n) * lam**n * (Q(1) - lam) ** (k - n) for n in range(k + 1)]


@dataclass(frozen=True)
class CoefficientVector:
    lam: object
    entries: tuple
    n_max: int

    def __getitem__(self, n: int):
        return self.entries[n]

    @property
    def total(self):
        return sum(self.entries, ZERO)


def _form_of(p) -> ExpPoly:
    if isinstance(p, Distribution):
        return p.form
    if isinstance(p, ExpPoly):
        return p
    if isinstance(p, DiracDelta):
        raise DomainError("the Dirac-delta limit has no ExpPoly coefficients")
    raise TypeError(f"not a distribution: {p!r}")


def fourier_laguerre(p, lam, n_max: int) -> CoefficientVector:
    """Exact projector pairings c_n for n = 0..n_max."""
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    form = _form_of(p)
    entries = tuple(
        exp_integral(projector_closed(n, lam).form * form) for n in range(n_max + 1)
    )
    return CoefficientVector(lam=lam, entries=entries, n_max=n_max)


def finite_support_bound(p, lam):
    """Largest possibly-nonzero coefficient index, when provable; else None.

    A single-rate ExpPoly with rate exactly 1/lam is a combination of the
    basic distributions p_0..p_deg, so its coefficients vanish beyond the
    polynomial degree.
    """
    lam = as_lambda(lam, lo_open=True)
    form = _form_of(p)
    if form.is_single_rate and form.rates[0] == Q(1) / lam:
        return form.poly_factor(form.rates[0]).degree
    return None


@dataclass(frozen=True)
class ObservabilityVerdict:
    status: str  # observable | negative-witness | nonneg-up-to-n | not-a-distribution
    lam: object
    checked_to: int
    coefficients: tuple = ()
    support_bound: object = None
    witness_index: object = None
    note: str = ""

    @property
    def exact(self) -> bool:
        return self.status in ("observable", "negative-witness",
                               "not-a-distribution")


def is_observable(p, lam, n_max: int = 32) -> ObservabilityVerdict:
    """Decide observability of p under the lam-quantization.

    Exact verdict when the coefficient support is provably finite (then only
    n <= support bound matters); otherwise coefficients are checked up to
    n_max and a nonnegative prefix stays inconclusive.
    """
    lam = as_lambda(lam, lo_open=True)
    form = _form_of(p)
    if exp_integral(form) != 1:
        return ObservabilityVerdict(
            status="not-a-distribution", lam=lam, checked_to=-1,
            note="mass differs from 1",
        )
    nonneg, witness = form.nonneg_on_nonneg()
    if nonneg is False:
        return ObservabilityVerdict(
            status="not-a-distribution", lam=lam, checked_to=-1,
            note=f"negative at mu = {witness}",
        )
    bound = finite_support_bound(form, lam)
    upto = bound if bound is not None else n_max
    coeffs = fourier_laguerre(form, lam, upto)
    for n, c in enumerate(coeffs.entries):
        if c < 0:
            return ObservabilityVerdict(
                status="negative-witness", lam=lam, checked_to=upto,
                coefficients=coeffs.entries, support_bound=bound,
                witness_index=n,
            )
    if bound is not None:
        return ObservabilityVerdict(
            status="observable", lam=lam, checked_to=upto,
            coefficients=coeffs.entries, support_bound=bound,
        )
    return ObservabilityVerdict(
        status="nonneg-up-to-n", lam=lam, checked_to=upto,
        coefficients=coeffs.entries,
        note=f"all c_n >= 0 for n <= {upto}; beyond is undecided",
    )


# -- duality -------------------------------------------------------------------

def duality_check(n: int, m: int, lam):
    """integral pi_n^(lam) pi_m^(1-lam) dmu, exactly (delta_nm)."""
    lam = as_lambda(lam, lo_open=True)
    return exp_integral(
        projector_closed(n, lam).form * projector_closed(m, Q(1) - lam).form
    )


def duality_gram(n_max: int, lam) -> list:
    """The full pairing matrix for n, m <= n_max."""
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    left = [projector_closed(n, lam).form for n in range(n_max + 1)]
    right = [projector_closed(m, Q(1) - lam).form for m in range(n_max + 1)]
    return [[exp_integral(a * b) for b in right] for a in left]


# -- basis inversion -----------------------------------------------------------

@dataclass(frozen=True)
class BasisInversion:
    lam: object
    size: int
    matrix: tuple  # rows: coefficient vectors of the basic distributions
    inverse: tuple
    identity_ok: bool
    has_negative_entries: bool


def basis_inversion(lam, size: int) -> BasisInversion:
    """Invert M[k][n] = C(k,n) lam^n (1-lam)^{k-n} exactly (lower triangular).

    Column n of the inverse gives the unique combination of basic
    distributions whose coefficient vector is the n-th unit vector; for
    size >= 2 these combinations necessarily carry negative entries.
    """
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("size", size)
    n1 = size + 1
    m = [[qbinom(k, n) * lam**n * (Q(1) - lam) ** (k - n) if n <= k else ZERO
          for n in range(n1)] for k in range(n1)]
    inv = [[ZERO] * n1 for _ in range(n1)]
    for j in range(n1):
        inv[j][j] = Q(1) / m[j][j]
        for i in range(j + 1, n1):
            acc = ZERO
            for t in range(j, i):
                acc += m[i][t] * inv[t][j]
            inv[i][j] = -acc / m[i][i]
    prod_ok = all(
        sum((m[i][t] * inv[t][j] for t in range(n1)), ZERO)
        == (Q(1) if i == j else ZERO)
        for i in range(n1)
        for j in range(n1)
    )
    negatives = any(c < 0 for row in inv for c in row)
    return BasisInversion(
        lam=lam,
        size=size,
        matrix=tuple(tuple(r) for r in m),
        inverse=tuple(tuple(r) for r in inv),
        identity_ok=prod_ok,
        has_negative_entries=negatives,
    )


def reconstruct_pure_state(lam, n: int, size: int):
    """The signed combination of basic distributions with coefficients e_n.

    Returns (combination ExpPoly, weights over p_k, its Fourier-Laguerre
    vector up to size).  The combination integrates to 1 but takes negative
    values for n >= 1, so it is not itself a distribution.
    """
    lam = as_lambda(lam, lo_open=True)
    if n > size:
        raise DomainError("n must be <= size")
    binv = basis_inversion(lam, size)
    # row n of the inverse: c_m(sum_k w_k p_k) = sum_k w_k M[k][m] = delta_nm
    weights = tuple(binv.inverse[n][k] for k in range(size + 1))
    combo = ExpPoly.zero()
    for k, w in enumerate(weights):
        if w:
            combo = combo + w * basic_distribution(k, lam).form
    coeffs = fourier_laguerre(combo, lam, size)
    return combo, weights, coeffs


# -- pointwise projector negativity ---------------------------------------------

def negativity_search(lam, mu, n_max: int) -> list:
    """All n <= n_max with pi_n(mu) < 0 at the given rational mu (exact signs).

    An empty list means no witness up to n_max, never a refutation.
    """
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    mu = Q(mu)
    if mu <= 0:
        raise DomainError("mu must be positive")
    values = projector_poly_values(lam, mu, n_max)
    return [n for n, r in enumerate(values) if r < 0]
