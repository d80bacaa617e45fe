"""Exact Laguerre polynomials and the identities built on them.

Normalization: weight exp(-z) on [0, inf), L_n(0) = 1, orthonormal
(no extra factors), so   integral L_m L_n e^(-z) dz = delta_mn   exactly.

The standard three-term recurrence builds the polynomials; the
lower-triangular change-of-basis construction (the self-inverse signed
binomial matrix A times the 1/n! diagonal applied to the monomial vector)
is kept as an independent route for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import Q, ZERO, qbinom, qfact, rational_str
from .biseries import BiSeries, binom_inverse_power
from .errors import DomainError
from .exppoly import ExpPoly, exp_integral
from .params import as_lambda, nonneg_int
from .poly import Poly
from .quadrature import integrate_decay

_cache: list[Poly] = [Poly([Q(1)]), Poly([Q(1), Q(-1)])]


@dataclass(frozen=True)
class LaguerrePoly:
    n: int
    poly: Poly

    def __call__(self, x):
        return self.poly(x)


def laguerre(n: int) -> LaguerrePoly:
    """L_n with exact rational coefficients."""
    if n < 0:
        raise DomainError("Laguerre index must be >= 0")
    while len(_cache) <= n:
        m = len(_cache) - 1
        z = Poly.x()
        nxt = ((2 * m + 1 - z) * _cache[m] - m * _cache[m - 1]) / Q(m + 1)
        _cache.append(nxt)
    return LaguerrePoly(n, _cache[n])


def laguerre_coeff(n: int, j: int):
    """Coefficient of z^j in L_n: (-1)^j C(n, j) / j!."""
    if j < 0 or j > n:
        return ZERO
    return Q(-1) ** j * qbinom(n, j) / qfact(j)


def laguerre_eval_sequence(n_max: int, x) -> list:
    """[L_0(x), ..., L_nmax(x)] exactly, by an integer-rescaled recurrence.

    With x = p/q, the numbers M_n = n! q^n L_n(x) satisfy the integer
    recurrence M_{n+1} = ((2n+1)q - p) M_n - n^2 q^2 M_{n-1}, which keeps the
    heavy arithmetic in plain integers.
    """
    nonneg_int("n_max", n_max)
    x = Q(x)
    p, q = x.numerator, x.denominator
    out = [Q(1)]
    if n_max == 0:
        return out
    m_prev, m_cur = 1, q - p
    out.append(Q(m_cur, q))
    scale = q
    for n in range(1, n_max):
        m_next = ((2 * n + 1) * q - p) * m_cur - n * n * q * q * m_prev
        m_prev, m_cur = m_cur, m_next
        scale *= (n + 1) * q
        out.append(Q(m_cur, scale))
    return out


# -- change-of-basis construction ------------------------------------------

def basis_matrix(size: int):
    """Signed binomial matrix A with A[i][j] = (-1)^j C(i, j); A.A = I."""
    return [
        [Q(-1) ** j * qbinom(i, j) for j in range(size)] for i in range(size)
    ]


def matmul(a, b):
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(size)), ZERO) for j in range(size)]
        for i in range(size)
    ]


def is_identity(m) -> bool:
    return all(
        c == (Q(1) if i == j else ZERO)
        for i, row in enumerate(m)
        for j, c in enumerate(row)
    )


def laguerre_from_basis(n: int) -> Poly:
    """Row n of A.D applied to the monomial vector; equals laguerre(n).poly."""
    return Poly([laguerre_coeff(n, j) for j in range(n + 1)])


def monomial_from_laguerre(r: int, size: int) -> Poly:
    """z^r recovered as r! sum_j (-1)^j C(r, j) L_j(z) (the inverse basis map)."""
    if r >= size:
        raise ValueError("need size > r")
    out = Poly()
    for j in range(r + 1):
        out = out + (qfact(r) * Q(-1) ** j * qbinom(r, j)) * laguerre(j).poly
    return out


# -- integral identities -----------------------------------------------------

def moment_integral(k: int, n: int):
    """integral z^k L_n(z) e^(-z) dz, exactly.

    Computed two ways, the closed form (-1)^n C(k,n) k! for k >= n (0 below
    the diagonal) and the Gamma-moment expansion, which must agree.
    """
    if k < 0 or n < 0:
        raise DomainError("indices must be >= 0")
    closed = Q(-1) ** n * qbinom(k, n) * qfact(k) if k >= n else ZERO
    value = exp_integral(ExpPoly.single(laguerre(n).poly.shift(k), 1))
    if value != closed:  # pragma: no cover - internal consistency
        raise AssertionError(f"moment_integral mismatch at (k={k}, n={n})")
    return value


def mixed_orthogonality(m: int, n: int, lam):
    """integral L_m((1-lam) z) L_n(z) e^(-z) dz, exactly.

    Equals C(m,n) lam^m ((1-lam)/lam)^n for m >= n and 0 otherwise.
    """
    lam = as_lambda(lam, lo_open=True)
    integrand = laguerre(m).poly.scale_arg(Q(1) - lam) * laguerre(n).poly
    value = exp_integral(ExpPoly.single(integrand, 1))
    if m >= n:
        closed = qbinom(m, n) * lam ** (m - n) * (Q(1) - lam) ** n
    else:
        closed = ZERO
    if value != closed:  # pragma: no cover - internal consistency
        raise AssertionError(f"mixed_orthogonality mismatch at ({m}, {n})")
    return value


# -- the projector series identity -------------------------------------------
#
# (-1)^n sum_k lam^{n+k} C(n+k,k) L_{n+k}(z/lam)
#     = (1/(1-lam)) (-lam/(1-lam))^n L_n(z/(lam(1-lam))) exp(-z/(1-lam))
#
# Both sides are genuine double power series in (lam, z): on the left,
# lam^{n+k} L_{n+k}(z/lam) is polynomial because the Laguerre degree matches
# the lam power.  Each retained coefficient receives exactly one k.

def projector_identity_lhs(n: int, k_lam: int, k_z: int) -> BiSeries:
    sign = Q(-1) ** n
    coeffs = {}
    for i in range(k_lam + 1):
        for j in range(k_z + 1):
            k = i + j - n
            if k < 0:
                continue
            c = sign * qbinom(n + k, k) * laguerre_coeff(n + k, j)
            if c:
                coeffs[(i, j)] = c
    return BiSeries(coeffs, k_lam, k_z)


def projector_identity_rhs(n: int, k_lam: int, k_z: int) -> BiSeries:
    z_over = BiSeries.var_y(k_lam, k_z) * binom_inverse_power(1, k_lam, k_z)
    expo = (z_over * Q(-1)).exp()
    total = BiSeries.constant(0, k_lam, k_z)
    sign = Q(-1) ** n
    for j in range(n + 1):
        mono = BiSeries.monomial(n - j, j, sign * laguerre_coeff(n, j), k_lam, k_z)
        total = total + mono * binom_inverse_power(n + j + 1, k_lam, k_z)
    return total * expo


@dataclass(frozen=True)
class SeriesIdentityReport:
    n: int
    orders: tuple
    equal: bool
    coefficients_compared: int


def verify_projector_series_identity(
    n: int, k_lam: int, k_z: int
) -> SeriesIdentityReport:
    """Expand both sides to orders (k_lam, k_z) and compare all coefficients."""
    if k_lam < n or k_z < n:
        raise DomainError("truncation orders must be >= n")
    lhs = projector_identity_lhs(n, k_lam, k_z)
    rhs = projector_identity_rhs(n, k_lam, k_z)
    return SeriesIdentityReport(
        n=n,
        orders=(k_lam, k_z),
        equal=(lhs == rhs),
        coefficients_compared=(k_lam + 1) * (k_z + 1),
    )


def binomial_tail_identity(n: int, terms: int):
    """Exact finite form of  sum_k (1/2)^{n+k} C(n+k, k) = 2.

    Returns (partial_sum, remainder, total) where
    partial = sum_{k<=terms}, remainder = (1/2)^{n+terms} sum_{j<=n} C(n+terms+1, j),
    and total = partial + remainder is exactly 2 (telescoping).
    """
    half = Q(1, 2)
    partial = sum((half ** (n + k) * qbinom(n + k, k) for k in range(terms + 1)), ZERO)
    remainder = half ** (n + terms) * sum(
        (qbinom(n + terms + 1, j) for j in range(n + 1)), ZERO
    )
    return partial, remainder, partial + remainder


def generating_function_check(order: int) -> bool:
    """sum_k x^k (-1)^k L_k(z)  ==  (1/(1+x)) exp(z x/(1+x)) through x-order K."""
    kx = ky = order
    lhs = BiSeries.constant(0, kx, ky)
    for k in range(order + 1):
        for j in range(min(k, ky) + 1):
            lhs = lhs + BiSeries.monomial(
                k, j, Q(-1) ** k * laguerre_coeff(k, j), kx, ky
            )
    one_plus = BiSeries.constant(1, kx, ky) + BiSeries.var_x(kx, ky)
    inv = one_plus.inverse()
    rhs = inv * (BiSeries.var_y(kx, ky) * BiSeries.var_x(kx, ky) * inv).exp()
    return lhs == rhs


# -- Gamma-function generalization of the moments ------------------------------

def gamma_half_integer(q):
    """Gamma(q) for integer or half-integer rational q, as (r, e) with
    Gamma(q) = r * sqrt(pi)^e; None at the poles (q a nonpositive integer)."""
    q = Q(q)
    if q.denominator == 1:
        m = int(q)
        if m <= 0:
            return None
        return qfact(m - 1), 0
    if q.denominator != 2:
        raise DomainError("only integer and half-integer arguments are exact")
    m = int(q - Q(1, 2))
    if m >= 0:
        return qfact(2 * m) / (Q(4) ** m * qfact(m)), 1
    m = -m
    return Q(-4) ** m * qfact(m) / qfact(2 * m), 1


@dataclass(frozen=True)
class GammaMomentReport:
    p: object
    n: int
    quad_value: float
    panels: int
    formula_value: float
    formula_exact: str | None
    abs_diff: float
    tol: float
    agrees: bool


def gamma_moment(p, n: int, tol: float = 1e-8) -> GammaMomentReport:
    """Check  integral z^p L_n(z) e^(-z) dz = (-1)^n Gamma(p+1)^2 / (n! Gamma(p-n+1))
    by adaptive quadrature against the Gamma formula.

    Non-integer exponents are integrated through z = u^2 (removes the branch
    point at 0); that needs p > -1/2.
    """
    p = Q(p)
    if p <= Q(-1, 2) and p.denominator != 1:
        raise DomainError("quadrature route needs p > -1/2")
    if p.denominator == 1 and p < 0:
        raise DomainError("nonnegative integer p only")

    formula_exact = None
    if p.denominator in (1, 2):
        g1 = gamma_half_integer(p + 1)
        g2 = gamma_half_integer(p - n + 1)
        if g2 is None:
            formula_value = 0.0
            formula_exact = "0"
        else:
            r = Q(-1) ** n * g1[0] ** 2 / (qfact(n) * g2[0])
            e = 2 * g1[1] - g2[1]  # sqrt(pi) exponent
            formula_value = float(r) * math.pi ** (e / 2.0)
            formula_exact = f"{rational_str(r)} * sqrt(pi)^{e}"
    else:
        try:
            formula_value = (
                (-1.0) ** n
                * math.gamma(float(p) + 1) ** 2
                / (math.factorial(n) * math.gamma(float(p) - n + 1))
            )
        except ValueError:
            formula_value = 0.0

    ln = laguerre(n)
    pf = float(p)
    if p.denominator == 1:
        kk = int(p)
        f = lambda z: z**kk * float(ln.poly(z)) * math.exp(-z)
        res = integrate_decay(f, tol=tol, t_max=60.0 + 5.0 * n)
    else:
        def f(u):
            z = u * u
            return 2.0 * u ** (2.0 * pf + 1.0) * float(ln.poly(z)) * math.exp(-z)

        res = integrate_decay(f, tol=tol, t_max=math.sqrt(60.0 + 5.0 * n))
    diff = abs(res.value - formula_value)
    return GammaMomentReport(
        p=p,
        n=n,
        quad_value=res.value,
        panels=res.panels,
        formula_value=formula_value,
        formula_exact=formula_exact,
        abs_diff=diff,
        tol=tol,
        agrees=diff < max(tol * 10.0, 1e-6),
    )
