from random import Random

import pytest

from moyalbench.backend import Q, qfact
from moyalbench.errors import DomainError
from moyalbench.phase import (
    PhasePoly,
    apply_equivalence_map,
    check_associativity,
    check_equivalence,
    hamiltonian,
    random_phase_poly,
    star,
    star_commutator,
)

A = PhasePoly.a()
AB = PhasePoly.abar()
HB = PhasePoly.hbar()
ONE = PhasePoly.one()
LAMBDAS = (Q(0), Q(1, 4), Q(1, 2))
# q = (a + abar)/2 and p = -i(a - abar), the normalized holomorphic substitution
POSITION = PhasePoly({(1, 0, 0): (1, 0), (0, 1, 0): (1, 0)}, 2)
MOMENTUM = PhasePoly({(1, 0, 0): (0, -1), (0, 1, 0): (0, 1)})


def hbar_coefficient(f, k):
    """The coefficient of hbar^k in f, as an hbar-free PhasePoly."""
    return PhasePoly({(i, j, 0): v for (i, j, d), v in f.terms.items() if d == k}, f.den)


def poisson_bracket(f, g):
    """d_a f d_abar g - d_abar f d_a g."""
    return f.diff_a() * g.diff_abar() - f.diff_abar() * g.diff_a()


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
    i_hbar = PhasePoly({(0, 0, 1): (0, 1)})
    for lam in LAMBDAS:
        assert star_commutator(POSITION, MOMENTUM, lam) == i_hbar


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
    assert hbar_coefficient(star(f, g, lam), 0) == f * g


@pytest.mark.parametrize("lam", LAMBDAS)
def test_first_order_commutator_is_poisson_bracket(lam):
    rng = Random(31)
    f, g = random_phase_poly(rng), random_phase_poly(rng)
    assert hbar_coefficient(star_commutator(f, g, lam), 1) == poisson_bracket(f, g)


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


def test_negative_exponents_rejected():
    for key in ((-1, 0), (0, -2), (1, 1, -1)):
        with pytest.raises(DomainError, match="exponent must be >= 0"):
            PhasePoly.build({key: 1})


@pytest.mark.parametrize("key", [5, (1,), (1, 2, 3, 4), "ab"],
                         ids=["int", "one", "four", "string"])
def test_build_rejects_a_malformed_key_by_name(key):
    with pytest.raises(DomainError) as info:
        PhasePoly.build({key: 1})
    assert str(info.value) == f"exponent key must be (i, j) or (i, j, d), got {key!r}"


def test_negative_exponent_keys_rejected_by_the_constructor():
    for key in ((-1, 0, 0), (0, -2, 0), (1, 1, -1)):
        with pytest.raises(DomainError, match="exponent must be >= 0"):
            PhasePoly({key: (1, 0)})
    # a zero coefficient is dropped before its key is looked at
    assert PhasePoly({(-1, 0, 0): (0, 0)}) == PhasePoly()


@pytest.mark.parametrize("terms, den, message", [
    ({(1.5, 0, 0): (1, 0)}, 1, "exponent must be an integer"),
    ({(True, 0, 0): (1, 0)}, 1, "exponent must be an integer"),
    ({(1, 0): (1, 0)}, 1, "exponent key must be"),
    ({(1, 0, 0): (1.0, 0)}, 1, "coefficient must be a pair of ints"),
    ({(1, 0, 0): (1, 0)}, 1.5, "denominator must be positive and an integer"),
    ({(1, 0, 0): 1}, 1, "coefficient must be a pair of ints"),
], ids=["float-exponent", "bool-exponent", "short-key", "float-coefficient",
        "float-den", "bare-int-coefficient"])
def test_constructor_rejects_malformed_parts(terms, den, message):
    with pytest.raises(DomainError, match=message):
        PhasePoly(terms, den)


@pytest.mark.parametrize("make", [
    lambda: PhasePoly.build({(True, 0): 1}),
    lambda: PhasePoly.build({(2, 0, 0.5): 1}),
], ids=["build-bool", "build-float-hbar"])
def test_non_integer_exponents_rejected(make):
    # min((2, 0, 0.5)) is 0: every component of the key is checked
    with pytest.raises(DomainError, match="exponent must be an integer"):
        make()


def test_hamiltonian_star_square_terms_at_half():
    # at lam = 1/2: s^2 with coefficient 1 and hbar^2 with -1/4, s = a abar
    h2 = star(hamiltonian(), hamiltonian(), Q(1, 2))
    assert h2.is_radial
    assert Q(h2.terms[(2, 2, 0)][0], h2.den) == 1
    assert Q(h2.terms[(0, 0, 2)][0], h2.den) == Q(-1, 4)


# repr() of seeded Gaussian polynomials, pinned as literals: den > 1,
# imaginary parts 0 and +-1, and hbar powers with a gap
PINNED = [
    (
        lambda: random_phase_poly(Random(2024), 2, gauss=True) * Q(5, 6),
        "PhasePoly((-5/3i) + (5/3+5/6i)ab^1 + (-5/6-5/3i)ab^2 + (5/3)a^1 + "
        "(5/2+5/3i)a^1ab^1 + (5/2-5/6i)a^2)",
    ),
    (
        lambda: PhasePoly({(1, 1, 0): (3, 1), (1, 1, 2): (0, -1),
                           (0, 1, 1): (-2, 0), (2, 0, 0): (1, -5)}, 4),
        "PhasePoly((-1/2)ab^1h^1 + (3/4+1/4i)a^1ab^1 + (-1/4i)a^1ab^1h^2 + "
        "(1/4-5/4i)a^2)",
    ),
    (
        lambda: star(random_phase_poly(Random(7), 2, gauss=True),
                     MOMENTUM, Q(1, 3)),
        "PhasePoly((-4/3+2i)h^1 + (2-i)ab^1 + (8/3-4i)ab^1h^1 + (-2)ab^2 + (3-3i)ab^3 + "
        "(-2+i)a^1 + (13/3+1/3i)a^1h^1 + (1+3i)a^1ab^1 + (-2)a^1ab^2 + (1-3i)a^2 + "
        "(2+4i)a^2ab^1 + (-3-i)a^3)",
    ),
]


@pytest.mark.parametrize("make, text", PINNED,
                         ids=["seeded-den-6", "hbar-gaps", "star-momentum"])
def test_pinned_json_and_repr(make, text):
    assert repr(make()) == text


def reference_equivalence_map(f, lam, inverse=False):
    """The order-by-order loop that ``apply_equivalence_map`` replaced: one
    derivative pair, one Fraction lam^m/m! and one sum per order.  Only the
    two derivative helpers it called are written out as one comprehension."""
    if inverse:
        lam = -lam
    m_max = min(f.deg_a, f.deg_abar)
    out = f
    cur = f.terms
    den = f.den
    for m in range(1, m_max + 1):
        cur = {
            (i - 1, j - 1, d): (i * j * re, i * j * im)
            for (i, j, d), (re, im) in cur.items()
            if i and j
        }
        if not cur:
            break
        c = lam**m / qfact(m)
        shifted = {
            (i, j, d + m): (re * c.numerator, im * c.numerator)
            for (i, j, d), (re, im) in cur.items()
        }
        out = out + PhasePoly(shifted, den * c.denominator)
    return out


def equivalence_inputs():
    """Seeded polynomials of total degree 2-8, real and Gaussian, with hbar
    terms, at lam in {0, 1/4, 1/2, 37/64, 63/64}, in both directions."""
    rng = Random(1606)
    cases = []
    for deg in range(2, 9):
        for gauss in (False, True):
            f = random_phase_poly(rng, deg, gauss=gauss)
            f = f + HB * random_phase_poly(rng, deg - 1, gauss=gauss) * Q(2, 3)
            f = f + HB * HB * random_phase_poly(rng, deg - 2, gauss=gauss) * Q(-5, 7)
            for lam in (Q(0), Q(1, 4), Q(1, 2), Q(37, 64), Q(63, 64)):
                for inverse in (False, True):
                    cases.append((f, lam, inverse))
    return cases


@pytest.mark.parametrize("f, lam, inverse", equivalence_inputs())
def test_equivalence_map_matches_the_order_by_order_loop(f, lam, inverse):
    got = apply_equivalence_map(f, lam, inverse=inverse)
    want = reference_equivalence_map(f, lam, inverse=inverse)
    assert got.den == want.den and got.terms == want.terms


# -- the height bound behind the star check's one evaluation point --------------

def _balanced_digits(v, bits):
    """v in base 2^bits with digits in [-2^(bits-1), 2^(bits-1)), low first."""
    half, out = 1 << (bits - 1), []
    while v:
        d = ((v + half) & ((1 << bits) - 1)) - half
        out.append(d)
        v = (v - d) >> bits
    return out


def _height_triples(draw):
    """The star check's 100 triples at a seed, or Gaussian ones of degree <= 4."""
    if draw == "gauss":
        rng = Random("height-gauss")
        return [tuple(random_phase_poly(rng, degree, gauss=True) for _ in range(3))
                for degree in range(5) for _ in range(8)]
    rng = Random(draw)
    return [tuple(random_phase_poly(rng) for _ in range(3)) for _ in range(100)]


@pytest.mark.parametrize("draw", [0, 1, 2, 3, 4, "gauss"])
def test_height_bound_caps_every_lambda_coefficient_of_every_side(draw):
    # at 2^400 every L-coefficient of a side is one digit, far wider than any
    # M here, so a coefficient above M would be read as itself
    from moyalbench.phase import _equivalence, _star
    from moyalbench.verify import _height_bound

    bits = 400
    X = 1 << bits
    for f, g, h in _height_triples(draw):
        M = _height_bound([(f, g, h)])
        assert 0 < M < 1 << (bits - 2)
        fg = _star(f, g, X, 1)
        normal = _star(_equivalence(f, X, 1), _equivalence(g, X, 1), 0, 1)
        sides = (fg, _star(fg, h, X, 1), _star(f, _star(g, h, X, 1), X, 1),
                 _equivalence(normal, -X, 1))
        for side in sides:
            assert side.den == 1
            for parts in side.terms.values():
                for v in parts:
                    assert all(abs(d) <= M for d in _balanced_digits(v, bits))
