import math

import pytest
from hypothesis import given, settings, strategies as st

from moyalbench.backend import Q
from moyalbench.errors import DomainError
from moyalbench.exppoly import ExpPoly, exp_integral
from moyalbench.laguerre import (
    basis_matrix,
    binomial_tail_identity,
    gamma_half_integer,
    gamma_moment,
    generating_function_check,
    is_identity,
    laguerre,
    laguerre_eval_sequence,
    laguerre_from_basis,
    matmul,
    mixed_orthogonality,
    moment_integral,
    monomial_from_laguerre,
    projector_identity_lhs,
    projector_identity_rhs,
    verify_projector_series_identity,
)
from moyalbench.poly import Poly


def test_first_polynomials():
    assert laguerre(0).poly == Poly([Q(1)])
    assert laguerre(1).poly == Poly([Q(1), Q(-1)])
    # from the change-of-basis construction: 1 - 2z + z^2/2
    assert laguerre(2).poly == laguerre_from_basis(2)
    assert laguerre(2).poly == Poly([Q(1), Q(-2), Q(1, 2)])


@pytest.mark.parametrize("n", range(0, 16))
def test_recurrence_matches_basis_construction(n):
    assert laguerre(n).poly == laguerre_from_basis(n)
    assert laguerre(n).poly(Q(0)) == 1


def test_orthonormality_exact():
    for m in range(16):
        for n in range(16):
            v = exp_integral(ExpPoly.single(laguerre(m).poly * laguerre(n).poly, 1))
            assert v == (1 if m == n else 0)


@pytest.mark.parametrize("x", [Q(0), Q(1), Q(16, 3), Q(-7, 5)])
def test_eval_sequence_matches_polynomials(x):
    seq = laguerre_eval_sequence(20, x)
    for n, v in enumerate(seq):
        assert v == laguerre(n).poly(x)


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
        assert monomial_from_laguerre(r, 10) == Poly.monomial(r)


@pytest.mark.parametrize("n,orders", [(0, (8, 8)), (1, (9, 9)), (2, (10, 10)),
                                      (3, (12, 12))])
def test_projector_series_identity(n, orders):
    rep = verify_projector_series_identity(n, *orders)
    assert rep.equal
    assert rep.coefficients_compared == (orders[0] + 1) * (orders[1] + 1)


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
    assert gamma_half_integer(Q(1, 2)) == (Q(1), 1)          # sqrt(pi)
    assert gamma_half_integer(Q(3, 2)) == (Q(1, 2), 1)       # sqrt(pi)/2
    assert gamma_half_integer(Q(-1, 2)) == (Q(-2), 1)        # -2 sqrt(pi)
    assert gamma_half_integer(4) == (Q(6), 0)
    assert gamma_half_integer(0) is None
    assert gamma_half_integer(-3) is None


def test_gamma_moment_plain():
    rep = gamma_moment(Q(1, 2), 0, tol=1e-9)
    assert abs(rep.formula_value - math.sqrt(math.pi) / 2) < 1e-14
    assert rep.abs_diff < 1e-6


def test_gamma_moment_first_laguerre():
    rep = gamma_moment(Q(1, 2), 1, tol=1e-9)
    assert abs(rep.formula_value + math.sqrt(math.pi) / 4) < 1e-14
    assert rep.abs_diff < 1e-6
    assert rep.agrees


def test_gamma_moment_integer_sanity():
    rep = gamma_moment(3, 2, tol=1e-9)
    assert rep.formula_exact is not None
    assert abs(rep.formula_value - float(moment_integral(3, 2))) < 1e-12
    assert rep.agrees


def test_gamma_moment_domain():
    with pytest.raises(DomainError):
        gamma_moment(Q(-3, 4), 1)
    with pytest.raises(DomainError):
        gamma_moment(-1, 0)
