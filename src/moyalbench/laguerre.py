"""Exact Laguerre polynomials and the identities built on them.

Normalization: weight exp(-z) on [0, inf), L_n(0) = 1, orthonormal
(no extra factors), so   integral L_m L_n e^(-z) dz = delta_mn   exactly.

The closed form builds the polynomials: the coefficient of z^j in L_n is
(-1)^j C(n, j) / j!, written down for each degree on its own and memoized
per degree.  The three-term recurrence is kept in the tests as the
independent oracle for it.

Values at one rational point p/q come from laguerre_scaled, the recurrence
on the integers n! q^n L_n(p/q).  spectral's level sums are built on it:
ints over c^{n+1} n! q^n (lam = a/b, c = b - a), stopped at the level that
decides them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import mul
from typing import NamedTuple

from .backend import ONE, Q, ZERO, qbinom, qfact, rational_str
from .errors import DomainError
from .exppoly import ExpPoly, _pair_rows, exp_integral
from .params import as_lambda, nonneg_int
from .poly import Poly

_cache: dict[int, Poly] = {}


def laguerre(n: int) -> Poly:
    """L_n with exact rational coefficients, memoized per degree.  Degrees
    are independent, so racing callers at worst build one twice, and all
    get the one ``setdefault`` stored."""
    nonneg_int("n", n)
    poly = _cache.get(n)
    if poly is None:
        poly = _cache.setdefault(
            n, Poly([laguerre_coeff(n, j) for j in range(n + 1)])
        )
    return poly


def laguerre_coeff(n: int, j: int):
    """Coefficient of z^j in L_n: (-1)^j C(n, j) / j!."""
    if j < 0 or j > n:
        return ZERO
    return Fraction((-1) ** j * math.comb(n, j), math.factorial(j))


def laguerre_scaled(x):
    """Yield M_0, M_1, ... with M_n = n! q^n L_n(p/q), p/q the rational x in
    lowest terms.

    The M_n are integers, M_{n+1} = ((2n+1)q - p) M_n - n^2 q^2 M_{n-1}, and
    the generator runs until its reader stops.  This is the one recurrence
    under every sum over levels: each keeps its terms as ints over one
    running denominator, stops at the level that decides it, and forms a
    rational or a float once.
    """
    x = Q(x)
    x, q = x.numerator, x.denominator
    qq = q * q
    m_prev, m_cur = 0, 1
    for n in count():
        yield m_cur
        m_prev, m_cur = m_cur, ((2 * n + 1) * q - x) * m_cur - n * n * qq * m_prev


# -- change of basis -----------------------------------------------------------

def basis_matrix(size: int):
    """Signed binomial matrix A with A[i][j] = (-1)^j C(i, j); A.A = I."""
    return [
        [(-1) ** j * math.comb(i, j) for j in range(size)] for i in range(size)
    ]


def matmul(a, b):
    """a b for square matrices, each entry one zip of a row with a column."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def is_identity(m) -> bool:
    return all(
        c == (1 if i == j else 0)
        for i, row in enumerate(m)
        for j, c in enumerate(row)
    )


def monomial_from_laguerre(r: int) -> Poly:
    """z^r recovered as r! sum_j (-1)^j C(r, j) L_j(z) (the inverse basis map)."""
    nonneg_int("r", r)
    out = Poly()
    for j in range(r + 1):
        out = out + (-1) ** j * math.factorial(r) * math.comb(r, j) * laguerre(j)
    return out


# -- integral identities -----------------------------------------------------

def moment_integral(k: int, n: int):
    """integral z^k L_n(z) e^(-z) dz, exactly, from the Gamma moments."""
    nonneg_int("k", k)
    nonneg_int("n", n)
    return exp_integral(ExpPoly.single(laguerre(n).shift(k), 1))


def mixed_orthogonality(m: int, n: int, lam):
    """integral L_m((1-lam) z) L_n(z) e^(-z) dz, exactly, on the pairing kernel."""
    nonneg_int("m", m)
    nonneg_int("n", n)
    lam = as_lambda(lam, lo_open=True)
    return _pair_rows(laguerre(m).scale_arg(1 - lam), laguerre(n), ONE)


# -- the projector series identity -------------------------------------------
#
# (-1)^n sum_k lam^{n+k} C(n+k,k) L_{n+k}(z/lam)
#     = (1/(1-lam)) (-lam/(1-lam))^n L_n(z/(lam(1-lam))) exp(-z/(1-lam))
#
# Both sides are genuine double power series in (lam, z): on the left,
# lam^{n+k} L_{n+k}(z/lam) is polynomial because the Laguerre degree matches
# the lam power.  Each retained coefficient receives exactly one k.

def projector_identity_lhs(n: int, k_lam: int, k_z: int) -> BiSeries:
    from .biseries import BiSeries
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
    from .biseries import BiSeries, binom_inverse_power
    z_over = BiSeries.var_y(k_lam, k_z) * binom_inverse_power(1, k_lam, k_z)
    expo = (z_over * Q(-1)).exp()
    total = BiSeries.constant(0, k_lam, k_z)
    sign = Q(-1) ** n
    for j in range(n + 1):
        mono = BiSeries.monomial(n - j, j, sign * laguerre_coeff(n, j), k_lam, k_z)
        total = total + mono * binom_inverse_power(n + j + 1, k_lam, k_z)
    return total * expo


def verify_projector_series_identity(n: int, k_lam: int, k_z: int) -> bool:
    """Expand both sides to orders (k_lam, k_z) and compare all
    (k_lam + 1)(k_z + 1) coefficients."""
    nonneg_int("n", n)
    nonneg_int("k_lam", k_lam)
    nonneg_int("k_z", k_z)
    if k_lam < n or k_z < n:
        raise DomainError("truncation orders must be >= n")
    return projector_identity_lhs(n, k_lam, k_z) == projector_identity_rhs(n, k_lam, k_z)


def binomial_tail_identity(n: int, terms: int):
    """Exact finite form of  sum_k (1/2)^{n+k} C(n+k, k) = 2.

    Returns (partial_sum, remainder, total) where
    partial = sum_{k<=terms}, remainder = (1/2)^{n+terms} sum_{j<=n} C(n+terms+1, j),
    and total = partial + remainder is exactly 2 (telescoping).
    """
    nonneg_int("n", n)
    nonneg_int("terms", terms)
    # both sums as ints over 2^(n+terms)
    partial = sum([math.comb(n + k, k) << (terms - k) for k in range(terms + 1)])
    remainder = sum([math.comb(n + terms + 1, j) for j in range(n + 1)])
    den = 1 << (n + terms)
    return Fraction(partial, den), Fraction(remainder, den), Fraction(partial + remainder, den)


def generating_function_check(order: int) -> bool:
    """sum_k x^k (-1)^k L_k(z)  ==  (1/(1+x)) exp(z x/(1+x)) through x-order K."""
    from .biseries import BiSeries
    nonneg_int("order", order)
    kx = ky = order
    lhs = BiSeries({(k, j): (-1) ** k * laguerre_coeff(k, j)
                    for k in range(order + 1) for j in range(k + 1)}, kx, ky)
    one_plus = BiSeries.constant(1, kx, ky) + BiSeries.var_x(kx, ky)
    inv = one_plus.inverse()
    rhs = inv * (BiSeries.var_y(kx, ky) * BiSeries.var_x(kx, ky) * inv).exp()
    return lhs == rhs


# -- Gamma-function generalization of the moments ------------------------------

def gamma_half_integer(q):
    """Gamma(q) for half-integer rational q, as the rational r with
    Gamma(q) = r sqrt(pi)."""
    q = Q(q)
    if q.denominator != 2:
        raise DomainError(f"only half-integer arguments, got {rational_str(q)}")
    m = int(q - Q(1, 2))
    if m >= 0:
        return qfact(2 * m) / (Q(4) ** m * qfact(m))
    m = -m
    return Q(-4) ** m * qfact(m) / qfact(2 * m)


class GammaMomentReport(NamedTuple):
    quad_value: float
    panels: int
    formula_value: float
    formula_exact: str
    abs_diff: float


def gamma_moment(p, n: int) -> GammaMomentReport:
    """Check  integral z^p L_n(z) e^(-z) dz = (-1)^n Gamma(p+1)^2 / (n! Gamma(p-n+1))
    by adaptive quadrature (to 1e-9) against the Gamma formula.

    p is a half-integer > -1/2, where the Gamma formula is a rational times
    sqrt(pi); the integral runs through z = u^2, which removes the branch
    point at 0.  At integer p the formula is (-1)^n C(p, n) p!, which
    ``moment_integral`` gives exactly.
    """
    from .quadrature import integrate_decay
    nonneg_int("n", n)
    p = Q(p)
    if p.denominator != 2 or p < 0:
        raise DomainError(f"p must be a half-integer > -1/2, got {rational_str(p)}")

    r = Q(-1) ** n * gamma_half_integer(p + 1) ** 2 / (
        qfact(n) * gamma_half_integer(p - n + 1))
    formula_value = float(r) * math.pi ** 0.5
    ln = laguerre(n)
    pf = float(p)

    def f(u):
        z = u * u
        return 2.0 * u ** (2.0 * pf + 1.0) * float(ln(z)) * math.exp(-z)

    res = integrate_decay(f, tol=1e-9, t_max=math.sqrt(60.0 + 5.0 * n))
    return GammaMomentReport(
        quad_value=res.value,
        panels=res.panels,
        formula_value=formula_value,
        formula_exact=f"{rational_str(r)} * sqrt(pi)",
        abs_diff=abs(res.value - formula_value),
    )
