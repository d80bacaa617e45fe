"""Energy distributions and their level-occupation statistics.

A distribution is an ExpPoly p(mu) >= 0 with integral 1 in the dimensionless
energy mu.  It induces occupation numbers for the levels of the
lam-quantization through the projector pairings

    c_n = integral pi_n(mu) p(mu) dmu     (Fourier-Laguerre coefficients),

returned as the plain tuple (c_0, ..., c_N).  p is called observable (for
that lam) when every c_n >= 0; ``is_observable`` checks the mass and the sign
of p exactly before it pairs.  The Gamma-type basic distributions (0 < lam < 1)

    p_k(mu) = (1/(lam k!)) (mu/lam)^k exp(-mu/lam)

have the exact binomial coefficients c_n = C(k,n) lam^n (1-lam)^{k-n} (zero
beyond n = k), and triangular inversion of that coefficient matrix recovers
every single-level coefficient vector as a signed combination of the p_k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .backend import Q
from .errors import DomainError
from .exppoly import ExpPoly, _pair, exp_integral
from .params import as_lambda, nonneg_int
from .poly import Poly


def basic_distribution(k: int, lam) -> ExpPoly:
    """The k-th Gamma-type basic distribution p_k, for 0 < lam < 1."""
    nonneg_int("k", k)
    lam = as_lambda(lam, lo_open=True)
    p, q = lam.numerator, lam.denominator
    poly = Poly.monomial(k, Fraction(q ** (k + 1), p ** (k + 1) * math.factorial(k)))
    return ExpPoly.single(poly, Fraction(q, p))


def binomial_weight_ints(k: int, lam) -> tuple:
    """The binomial weights as ints over one denominator: for lam = p/q,
    (C(k,n) p^n (q-p)^{k-n} for n = 0..k, q^k)."""
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("k", k)
    p, q = lam.numerator, lam.denominator
    rest = [1]  # (q-p)^m, m = 0..k
    for _ in range(k):
        rest.append(rest[-1] * (q - p))
    nums = []
    c = 1  # C(k,n) p^n
    for n in range(k + 1):
        nums.append(c * rest[k - n])
        c = c * (k - n) // (n + 1) * p
    return nums, q**k


def binomial_weights(k: int, lam) -> list:
    """Closed-form coefficients C(k,n) lam^n (1-lam)^{k-n}, n = 0..k."""
    nums, den = binomial_weight_ints(k, lam)
    return [Q(w, den) for w in nums]


def fourier_laguerre(p: ExpPoly, lam, n_max: int) -> tuple:
    """Exact projector pairings (c_0, ..., c_n_max) of the distribution p."""
    from .spectral import projector_closed
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    return tuple([_pair(p, projector_closed(n, lam).form) for n in range(n_max + 1)])


def finite_support_bound(p: ExpPoly, lam):
    """Largest possibly-nonzero coefficient index, when provable; else None.

    A single-rate ExpPoly with rate exactly 1/lam is a combination of the
    basic distributions p_0..p_deg, so its coefficients vanish beyond the
    polynomial degree.
    """
    lam = as_lambda(lam, lo_open=True)
    if p.is_single_rate and Q(1) / lam in p.terms:
        return p.terms[Q(1) / lam].degree
    return None


class ObservabilityVerdict(NamedTuple):
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


def is_observable(p: ExpPoly, lam, n_max: int = 32) -> ObservabilityVerdict:
    """Decide observability of p under the lam-quantization.

    Exact verdict when the coefficient support is provably finite (then only
    n <= support bound matters); otherwise coefficients are checked up to
    n_max and a nonnegative prefix stays inconclusive.
    """
    lam = as_lambda(lam, lo_open=True)
    if exp_integral(p) != 1:
        return ObservabilityVerdict(
            status="not-a-distribution", lam=lam, checked_to=-1,
            note="mass differs from 1",
        )
    nonneg, witness = p.nonneg_on_nonneg()
    if nonneg is False:
        return ObservabilityVerdict(
            status="not-a-distribution", lam=lam, checked_to=-1,
            note=f"negative at mu = {witness}",
        )
    bound = finite_support_bound(p, lam)
    upto = bound if bound is not None else n_max
    coeffs = fourier_laguerre(p, lam, upto)
    for n, c in enumerate(coeffs):
        if c < 0:
            return ObservabilityVerdict(
                status="negative-witness", lam=lam, checked_to=upto,
                coefficients=coeffs, support_bound=bound,
                witness_index=n,
            )
    if bound is not None:
        return ObservabilityVerdict(
            status="observable", lam=lam, checked_to=upto,
            coefficients=coeffs, support_bound=bound,
        )
    return ObservabilityVerdict(
        status="nonneg-up-to-n", lam=lam, checked_to=upto,
        coefficients=coeffs,
        note=f"all c_n >= 0 for n <= {upto}; beyond is undecided",
    )


# -- duality -------------------------------------------------------------------

def duality_gram(n_max: int, lam) -> list:
    """The pairings integral pi_n^(lam) pi_m^(1-lam) dmu for n, m <= n_max,
    exactly (delta_nm)."""
    from .spectral import projector_closed
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    left = [projector_closed(n, lam).form for n in range(n_max + 1)]
    right = [projector_closed(m, Q(1) - lam).form for m in range(n_max + 1)]
    return [[_pair(a, b) for b in right] for a in left]


# -- basis inversion -----------------------------------------------------------

class BasisInversion(NamedTuple):
    matrix: tuple  # rows: coefficient vectors of the basic distributions
    inverse: tuple
    identity_ok: bool
    has_negative_entries: bool


def basis_inversion(lam, size: int) -> BasisInversion:
    """Invert M[k][n] = C(k,n) lam^n (1-lam)^{k-n} exactly (lower triangular).

    Row k of M is (lam x + 1 - lam)^k, so expanding x^i = ((y - 1 + lam)/lam)^i
    gives inv[i][j] = C(i,j) (lam - 1)^(i-j) / lam^i; ``identity_ok`` checks it
    against M built from ``binomial_weight_ints``, on ints: with lam = p/q,
    row i of M is over q^i and the inverse is scaled to one p^size.

    Column n of the inverse gives the unique combination of basic
    distributions whose coefficient vector is the n-th unit vector; for
    size >= 2 these combinations necessarily carry negative entries.
    """
    from .laguerre import matmul
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("size", size)
    n1 = size + 1
    p, q = lam.numerator, lam.denominator
    m = [binomial_weight_ints(k, lam)[0] + [0] * (size - k) for k in range(n1)]
    inv = [
        [math.comb(i, j) * (p - q) ** (i - j) * q**j * p ** (size - i) for j in range(i + 1)]
        + [0] * (size - i)
        for i in range(n1)
    ]
    top = p**size
    prod_ok = all(
        c == (q**i * top if i == j else 0)
        for i, row in enumerate(matmul(m, inv))
        for j, c in enumerate(row)
    )
    return BasisInversion(
        matrix=tuple(tuple([Fraction(c, q**k) for c in r]) for k, r in enumerate(m)),
        inverse=tuple(tuple([Fraction(c, top) for c in r]) for r in inv),
        identity_ok=prod_ok,
        has_negative_entries=any(c < 0 for row in inv for c in row),
    )


def reconstruct_pure_state(lam, n: int, size: int):
    """The signed combination of basic distributions with coefficients e_n.

    Returns (combination ExpPoly, weights over p_k, its Fourier-Laguerre
    coefficients up to size).  The combination integrates to 1 but takes
    negative values for n >= 1, so it is not itself a distribution.
    """
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n", n)
    nonneg_int("size", size)
    if n > size:
        raise DomainError("n must be <= size")
    binv = basis_inversion(lam, size)
    # row n of the inverse: c_m(sum_k w_k p_k) = sum_k w_k M[k][m] = delta_nm
    weights = tuple(binv.inverse[n][k] for k in range(size + 1))
    combo = ExpPoly.zero()
    for k, w in enumerate(weights):
        if w:
            combo = combo + w * basic_distribution(k, lam)
    coeffs = fourier_laguerre(combo, lam, size)
    return combo, weights, coeffs


# -- pointwise projector negativity ---------------------------------------------

def negativity_search(lam, mu, n_max: int) -> list:
    """All n <= n_max with pi_n(mu) < 0 at the given rational mu (exact signs).

    An empty list means no witness up to n_max, never a refutation.
    """
    from .spectral import level_terms
    lam = as_lambda(lam, lo_open=True)
    nonneg_int("n_max", n_max)
    mu = Q(mu)
    if mu <= 0:
        raise DomainError("mu must be positive")
    # the int numerator t_n has the sign of pi_n(mu)
    return [n for n, (t, _) in zip(range(n_max + 1), level_terms(lam, mu)) if t < 0]
