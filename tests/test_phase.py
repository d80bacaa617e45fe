from random import Random

import pytest

from moyalbench.backend import Q
from moyalbench.errors import DomainError
from moyalbench.gauss import GaussScalar
from moyalbench.phase import (
    PhasePoly,
    apply_equivalence_map,
    check_associativity,
    check_equivalence,
    hamiltonian,
    poisson_bracket,
    random_phase_poly,
    star,
    star_commutator,
)

A = PhasePoly.a()
AB = PhasePoly.abar()
HB = PhasePoly.hbar()
ONE = PhasePoly.one()
LAMBDAS = (Q(0), Q(1, 4), Q(1, 2))


def test_normal_order_basic():
    assert star(A, AB, 0) == A * AB + HB
    assert star(AB, A, 0) == A * AB


def test_gm_symmetric_split():
    assert star(A, AB, Q(1, 2)) == A * AB + Q(1, 2) * HB
    assert star(AB, A, Q(1, 2)) == A * AB - Q(1, 2) * HB


@pytest.mark.parametrize("lam", [Q(0), Q(1, 4), Q(1, 3), Q(1, 2)])
def test_hamiltonian_star_square(lam):
    h = hamiltonian()
    expect = h * h + (1 - 2 * lam) * HB * h - lam * (1 - lam) * HB * HB
    assert star(h, h, lam) == expect


@pytest.mark.parametrize("lam", LAMBDAS)
def test_holomorphic_commutator_is_hbar(lam):
    assert star_commutator(A, AB, lam) == HB


def test_position_momentum_commutator():
    i_hbar = PhasePoly.build({(0, 0, 1): GaussScalar(0, 1)})
    for lam in LAMBDAS:
        assert star_commutator(PhasePoly.position(), PhasePoly.momentum(),
                               lam) == i_hbar


@pytest.mark.parametrize("lam", LAMBDAS)
def test_commutator_antisymmetry(lam):
    rng = Random(11)
    f = random_phase_poly(rng, gauss=True)
    assert star_commutator(f, f, lam).is_zero


def test_equivalence_map_examples():
    lam = Q(1, 4)
    assert apply_equivalence_map(A * AB, lam) == A * AB + lam * HB
    assert apply_equivalence_map(ONE, lam) == ONE
    a2b2 = (A ** 2) * (AB ** 2)
    expect = a2b2 + 4 * lam * HB * (A * AB) + 2 * lam * lam * HB * HB
    assert apply_equivalence_map(a2b2, lam) == expect


def test_equivalence_map_inverse():
    lam = Q(1, 5)
    rng = Random(5)
    for _ in range(10):
        f = random_phase_poly(rng, gauss=True)
        assert apply_equivalence_map(
            apply_equivalence_map(f, lam), lam, inverse=True
        ) == f


def test_equivalence_examples():
    assert check_equivalence(A, AB, Q(1, 2))
    rng = Random(1)
    g = random_phase_poly(rng)
    assert check_equivalence(ONE, g, Q(1, 3))


def test_equivalence_random_pairs():
    rng = Random(17)
    for _ in range(25):
        f, g = random_phase_poly(rng), random_phase_poly(rng)
        assert check_equivalence(f, g, Q(1, 3))


def test_associativity_examples():
    assert check_associativity(A, AB, A, Q(1, 2))
    rng = Random(2)
    f, h = random_phase_poly(rng), random_phase_poly(rng)
    for lam in LAMBDAS:
        assert check_associativity(f, ONE, h, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_associativity_random_triples(lam):
    rng = Random(int(lam * 12) + 3)
    for _ in range(25):
        f, g, h = (random_phase_poly(rng) for _ in range(3))
        assert check_associativity(f, g, h, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_unit_law(lam):
    rng = Random(23)
    f = random_phase_poly(rng, gauss=True)
    assert star(ONE, f, lam) == f
    assert star(f, ONE, lam) == f


@pytest.mark.parametrize("lam", LAMBDAS)
def test_classical_limit(lam):
    rng = Random(29)
    f, g = random_phase_poly(rng), random_phase_poly(rng)
    assert star(f, g, lam).hbar_coefficient(0) == f * g


@pytest.mark.parametrize("lam", LAMBDAS)
def test_first_order_commutator_is_poisson_bracket(lam):
    rng = Random(31)
    f, g = random_phase_poly(rng), random_phase_poly(rng)
    assert star_commutator(f, g, lam).hbar_coefficient(1) == poisson_bracket(f, g)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_hbar_degree_bound(lam):
    rng = Random(37)
    for _ in range(10):
        f, g = random_phase_poly(rng), random_phase_poly(rng)
        bound = min(f.deg_a + f.deg_abar, g.deg_a + g.deg_abar)
        assert star(f, g, lam).hbar_degree <= bound


def test_lambda_domain():
    with pytest.raises(DomainError):
        star(A, AB, Q(3, 2))
    with pytest.raises(DomainError):
        star(A, AB, Q(-1, 4))


def test_json_round_trip():
    rng = Random(41)
    f = random_phase_poly(rng, gauss=True)
    s = star(f, f, Q(1, 4))
    assert PhasePoly.from_json_obj(s.to_json_obj()) == s


def test_radial_series_guards():
    with pytest.raises(ValueError):
        A.radial_series()
    h2 = star(hamiltonian(), hamiltonian(), Q(1, 2))
    series = h2.radial_series(8, 8)
    assert series.coeff(2, 0) == 1
    assert series.coeff(0, 2) == Q(-1, 4)
