import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from moyalbench.backend import Q
from moyalbench.errors import DomainError
from moyalbench.exppoly import ExpPoly, exp_integral
import moyalbench.laguerre as laguerre_module
from moyalbench.laguerre import (
    basis_matrix,
    binomial_tail_identity,
    gamma_half_integer,
    gamma_moment,
    generating_function_check,
    is_identity,
    laguerre,
    laguerre_scaled,
    matmul,
    mixed_orthogonality,
    moment_integral,
    monomial_from_laguerre,
    projector_identity_lhs,
    projector_identity_rhs,
    verify_projector_series_identity,
)
from moyalbench.poly import Poly



def recurrence_laguerre(n_max: int) -> list:
    """[L_0, ..., L_nmax] from the three-term recurrence
    (m+1) L_{m+1} = (2m+1-z) L_m - m L_{m-1}, an oracle independent of the
    closed form that ``laguerre`` writes down."""
    z = Poly([Q(0), Q(1)])
    out = [Poly([Q(1)]), Poly([Q(1), Q(-1)])]
    for m in range(1, n_max):
        out.append(((2 * m + 1 - z) * out[m] - m * out[m - 1]) / Q(m + 1))
    return out[: n_max + 1]


RECURRENCE = recurrence_laguerre(60)


def test_first_polynomials():
    assert laguerre(0) == Poly([Q(1)])
    assert laguerre(1) == Poly([Q(1), Q(-1)])
    # from the three-term recurrence: 1 - 2z + z^2/2
    assert laguerre(2) == RECURRENCE[2]
    assert laguerre(2) == Poly([Q(1), Q(-2), Q(1, 2)])


@pytest.mark.parametrize("n", range(0, 41))
def test_recurrence_matches_basis_construction(n):
    assert laguerre(n) == RECURRENCE[n]
    assert laguerre(n)(Q(0)) == 1


@pytest.mark.parametrize("x", [Q(7, 3), Q(-5, 11), Q(801, 17)])
def test_degree_400_matches_integer_recurrence(x):
    # laguerre_scaled runs its own integer recurrence on n! q^n L_n(p/q)
    m = next(islice(laguerre_scaled(x), 400, None))
    assert laguerre(400)(x) == Q(m, math.factorial(400) * x.denominator ** 400)


def test_memo_is_thread_safe():
    laguerre_module._cache.clear()
    degrees = list(range(61))

    def work(seed):
        order = degrees[:]
        random.Random(seed).shuffle(order)
        return [(n, laguerre(n)) for n in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(laguerre_module._cache) == len(degrees)
    for per_thread in results:
        for n, lp in per_thread:
            assert lp == RECURRENCE[n]
            # every caller gets the one stored polynomial of its degree
            assert lp is laguerre_module._cache[n]


def test_orthonormality_exact():
    for m in range(16):
        for n in range(16):
            v = exp_integral(ExpPoly.single(laguerre(m) * laguerre(n), 1))
            assert v == (1 if m == n else 0)


@pytest.mark.parametrize("x", [Q(0), Q(1), Q(16, 3), Q(-7, 5)])
def test_eval_sequence_matches_polynomials(x):
    for n, m in zip(range(21), laguerre_scaled(x)):
        assert isinstance(m, int)
        assert Q(m, math.factorial(n) * x.denominator ** n) == laguerre(n)(x)


def test_moment_examples():
    assert moment_integral(0, 0) == 1
    # oracle: integral (z^2 - z^3) e^-z = 2! - 3! = -4
    assert moment_integral(2, 1) == -4
    assert moment_integral(1, 2) == 0
    assert moment_integral(3, 2) == 18


def test_moment_table_structure():
    for k in range(8):
        for n in range(8):
            v = moment_integral(k, n)
            if k < n:
                assert v == 0
            else:
                assert v == Q(-1) ** n * Q(math.comb(k, n)) * Q(math.factorial(k))


def test_mixed_orthogonality_examples():
    # oracle: integral (1 - z/2) e^-z = 1 - 1/2
    assert mixed_orthogonality(1, 0, Q(1, 2)) == Q(1, 2)
    assert mixed_orthogonality(0, 1, Q(1, 3)) == 0
    for n in range(6):
        assert mixed_orthogonality(n, n, Q(1, 4)) == Q(3, 4) ** n


def test_mixed_orthogonality_domain():
    with pytest.raises(DomainError):
        mixed_orthogonality(1, 1, 0)
    with pytest.raises(DomainError):
        mixed_orthogonality(1, 1, 1)


def test_basis_matrix_self_inverse():
    a = basis_matrix(32)
    assert is_identity(matmul(a, a))


def test_basis_round_trip_monomials():
    for r in range(8):
        assert monomial_from_laguerre(r) == Poly.monomial(r)


@pytest.mark.parametrize("n,orders", [(0, (8, 8)), (1, (9, 9)), (2, (10, 10)),
                                      (3, (12, 12))])
def test_projector_series_identity(n, orders):
    assert verify_projector_series_identity(n, *orders)


def test_projector_series_identity_sides_differ_from_zero():
    lhs = projector_identity_lhs(1, 6, 6)
    rhs = projector_identity_rhs(1, 6, 6)
    assert not lhs.is_zero and lhs == rhs


def test_projector_series_identity_orders_guard():
    with pytest.raises(DomainError):
        verify_projector_series_identity(3, 2, 8)


@given(st.integers(0, 8), st.integers(0, 40))
@settings(max_examples=60)
def test_binomial_tail_identity_exact(n, terms):
    partial, remainder, total = binomial_tail_identity(n, terms)
    assert total == 2
    assert remainder > 0  # partial sums approach 2 from below


def test_generating_function():
    assert generating_function_check(8)


def test_gamma_half_integer_values():
    assert gamma_half_integer(Q(1, 2)) == 1                  # sqrt(pi)
    assert gamma_half_integer(Q(3, 2)) == Q(1, 2)            # sqrt(pi)/2
    assert gamma_half_integer(Q(-1, 2)) == -2                # -2 sqrt(pi)
    for q in (4, 0, -3, Q(1, 3)):
        with pytest.raises(DomainError):
            gamma_half_integer(q)


def test_gamma_moment_plain():
    rep = gamma_moment(Q(1, 2), 0)
    assert abs(rep.formula_value - math.sqrt(math.pi) / 2) < 1e-14
    assert rep.abs_diff < 1e-6


def test_gamma_moment_first_laguerre():
    rep = gamma_moment(Q(1, 2), 1)
    assert abs(rep.formula_value + math.sqrt(math.pi) / 4) < 1e-14
    assert rep.abs_diff < 1e-6


def test_gamma_moment_integer_sanity():
    # at integer p the Gamma formula is (-1)^n C(p, n) p!, which the exact
    # moment table gives; the quadrature takes half-integer p only
    assert moment_integral(3, 2) == math.comb(3, 2) * math.factorial(3)
    with pytest.raises(DomainError):
        gamma_moment(3, 2)


def test_gamma_moment_domain():
    with pytest.raises(DomainError):
        gamma_moment(Q(-3, 4), 1)
    with pytest.raises(DomainError):
        gamma_moment(-1, 0)
    with pytest.raises(DomainError):  # only half-integer p is exact
        gamma_moment(Q(1, 3), 1)
