"""Root isolation skips only the work that cannot change its answer.

The dyadic bound U must cap every root of the chain's first element, or the
bisection would read V(+inf) where a root lies above the point.  A squarefree
input is isolated on its own Sturm chain without Yun's decomposition; an input
with a repeated factor still takes the Yun path.  A chain that ends in a
nonconstant gcd counts and isolates each distinct root once, against roots
known by construction.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from moyalbench import rootisolate
from moyalbench.errors import DomainError
from moyalbench.laguerre import laguerre
from moyalbench.poly import Poly, _homogeneous
from moyalbench.rootisolate import (
    _dyadic_root_bound,
    cauchy_bound,
    count_roots,
    isolate_roots,
    nonneg_on_nonneg,
    sturm_chain,
)
from moyalbench.spectral import projector_closed

huge = st.integers(-(2**200), 2**200)


@st.composite
def hard_int_polys(draw):
    """Int polynomials of degree <= 24: a leading coefficient of at most 3
    under lower ones of up to 200 bits, times repeated linear factors whose
    roots lie near 0 (an 80-bit denominator) or far out (a 200-bit numerator)."""
    base = draw(st.integers(0, 12))
    lower = draw(st.lists(st.one_of(st.integers(-9, 9), huge),
                          min_size=base, max_size=base))
    p = Poly(lower + [draw(st.sampled_from((1, -1, 2, 3)))])
    budget = 24 - base
    for _ in range(draw(st.integers(0, 4))):
        num = draw(st.one_of(st.integers(-9, 9), huge))
        den = draw(st.one_of(st.integers(1, 9), st.integers(1, 2**80)))
        mult = draw(st.integers(1, 3))
        if mult > budget:
            break
        budget -= mult
        for _ in range(mult):
            p = p * Poly([-num, den])
    assume(p.degree >= 1)
    return p


@given(hard_int_polys())
@settings(max_examples=150, deadline=None)
def test_the_dyadic_bound_caps_every_real_root(p):
    top, cauchy = _dyadic_root_bound(p), cauchy_bound(p)
    assert top > 0 and top.numerator & (top.numerator - 1) == 0  # a power of 2
    assert top.denominator & (top.denominator - 1) == 0
    if top < cauchy:
        assert count_roots(p, top, cauchy) == 0
        assert count_roots(p, -cauchy, -top) == 0


def _max_root_modulus(p):
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        return max(abs(r) for r in roots)


def _as_mpf(top):
    return mpmath.mpf(top.numerator) / top.denominator  # dyadic, so exact


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 20])
def test_the_dyadic_bound_caps_every_complex_laguerre_root(n):
    p = laguerre(n)
    assert _max_root_modulus(p) <= _as_mpf(_dyadic_root_bound(p))


@pytest.mark.parametrize("n, lam", [(12, Fraction(17, 45)), (20, Fraction(7, 47))])
def test_the_dyadic_bound_caps_every_complex_projector_root(n, lam):
    (_, p), = projector_closed(n, lam).form.terms.items()
    assert _max_root_modulus(p) <= _as_mpf(_dyadic_root_bound(p))


@pytest.fixture
def spies(monkeypatch):
    calls = {"variations": 0, "yun": 0}
    variations = rootisolate._variations
    yun = rootisolate.squarefree_decomposition

    def spy_variations(chain, x):
        calls["variations"] += 1
        return variations(chain, x)

    def spy_yun(p):
        calls["yun"] += 1
        return yun(p)

    monkeypatch.setattr(rootisolate, "_variations", spy_variations)
    monkeypatch.setattr(rootisolate, "squarefree_decomposition", spy_yun)
    return calls


@pytest.mark.parametrize("n, lam, most", [(20, Fraction(7, 47), 13),
                                          (12, Fraction(17, 45), 12)])
def test_isolating_the_first_projector_root_evaluates_the_chain_rarely(spies, n, lam,
                                                                       most):
    # the bisection from the Cauchy bound took 34 and 22 chain evaluations
    # when every point above the roots was evaluated too
    (_, p), = projector_closed(n, lam).form.terms.items()
    ok, witness = nonneg_on_nonneg(p)
    assert not ok and p.sign_at(witness) < 0
    assert spies["variations"] <= most
    assert spies["yun"] == 0  # the projector polynomial is squarefree


X = Poly([0, 1])
ONE = Poly([1])
A, B, C = X - ONE, X - 3 * ONE, X + 3 * ONE


@pytest.mark.parametrize("p, verdict", [
    (X * A * A * B, (False, Fraction(2))),
    (A * A * B * B, (True, None)),
    (A * A * C, (True, None)),
    (A * A, (True, None)),
    (X * X, (True, None)),
    (X * A * A * A * B, (False, Fraction(5, 2))),
], ids=["x(x-1)^2(x-3)", "(x-1)^2(x-3)^2", "(x-1)^2(x+3)", "(x-1)^2", "x^2",
        "x(x-1)^3(x-3)"])
def test_a_repeated_factor_takes_the_yun_path(spies, p, verdict):
    assert nonneg_on_nonneg(p) == verdict
    assert spies["yun"] == 1


def test_a_negative_constant_term_decides_before_any_chain(spies):
    # (x-1)^2 (x-3) is -3 at 0: no chain and no decomposition are needed
    assert nonneg_on_nonneg(A * A * B) == (False, Fraction(0))
    assert spies == {"variations": 0, "yun": 0}


def test_a_squarefree_input_never_calls_yun(spies):
    for p in (A * B, A * B * C, X * B, laguerre(9)):
        nonneg_on_nonneg(p)
    assert spies["yun"] == 0


@pytest.mark.parametrize("p, intervals", [
    (A * A * B, [(0, 2), (2, 4)]),
    (A * A * B * B, [(0, Fraction(25, 16)), (Fraction(25, 16), Fraction(25, 8))]),
    (A * A * C, [(0, 6)]),
    (X * A * A * A * B, [(0, Fraction(13, 8)), (Fraction(13, 8), Fraction(13, 4))]),
    (X * X, []),
], ids=["(x-1)^2(x-3)", "(x-1)^2(x-3)^2", "(x-1)^2(x+3)", "x(x-1)^3(x-3)", "x^2"])
def test_repeated_roots_isolate_as_before(p, intervals):
    found = list(isolate_roots(sturm_chain(p), Fraction(0), cauchy_bound(p)))
    assert found == [(Fraction(a), Fraction(b)) for a, b in intervals]


# -- repeated roots: every row of the chain vanishes at a root of its gcd ------

def test_a_chain_with_a_nonconstant_gcd_counts_each_distinct_root_once():
    p = X * X * A * (X + ONE) * B  # x^2 (x - 1)(x + 1)(x - 3)
    assert sturm_chain(p)[-1].degree > 0
    assert count_roots(p, -4, 0) == 2
    assert count_roots(p, 0, 4) == 2
    found = list(isolate_roots(sturm_chain(p), Fraction(-4), Fraction(4)))
    assert len(found) == 4


# -- int endpoints are halved exactly ------------------------------------------

def test_int_endpoints_give_fraction_intervals():
    p = X * X - Poly([2])
    found = list(isolate_roots(sturm_chain(p), -4, 4))
    assert found == [(Fraction(-4), Fraction(0)), (Fraction(0), Fraction(4))]
    assert all(type(end) is Fraction for interval in found for end in interval)


def test_int_endpoints_isolate_four_roots_each_in_its_interval():
    # (x^2 - 2)(x^2 - 3) needs a second split, which a float end cannot feed
    # to the chain's exact evaluation
    p = (X * X - Poly([2])) * (X * X - Poly([3]))
    found = list(isolate_roots(sturm_chain(p), -4, 4))
    assert len(found) == 4
    for (lo, hi), root in zip(found, (-3, -2, 2, 3)):  # root: -sqrt(3), ..., sqrt(3)
        assert type(lo) is Fraction and type(hi) is Fraction
        assert _below_signed_sqrt(lo, root) and not _below_signed_sqrt(hi, root)


def _below_signed_sqrt(x, root):
    """x < sign(root) sqrt(|root|), exactly."""
    q = abs(root)
    return x < 0 and x * x > q if root < 0 else x < 0 or x * x < q


ROOTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
)


@st.composite
def factored_polys(draw):
    """(p, roots): p = c prod (x - r_i)^(m_i) over its distinct rational
    roots r_i, m_i <= 4, among them 0, negatives, small and large
    denominators, and pairs 2^-60..2^-10 apart."""
    roots = set()
    for _ in range(draw(st.integers(1, 3))):
        r = draw(ROOTS)
        roots.add(r)
        if draw(st.booleans()):
            roots.add(r + Fraction(1, 2 ** draw(st.integers(10, 60))))
    p = Poly([Fraction(draw(st.sampled_from((1, -1, 3, -7))), draw(st.integers(1, 9)))])
    for r in roots:
        for _ in range(draw(st.integers(1, 4))):
            p = p * Poly([-r, 1])
    return p, sorted(roots)


def _bisection_depth(roots, bound):
    """The depth past which a bisection of (-bound, bound] holds no interval
    with two of the roots."""
    gaps = [b - a for a, b in zip(roots, roots[1:])] or [bound]
    ratio = 2 * bound / min(gaps)
    return (ratio.numerator // ratio.denominator).bit_length() + 1


@given(factored_polys(), st.data())
@settings(max_examples=120, deadline=None)
def test_repeated_roots_are_counted_and_isolated_once_each(case, data):
    p, roots = case
    points = roots + [r + d for r in roots for d in (Fraction(-1, 3), Fraction(1, 2**70))]
    a, b = sorted(data.draw(st.lists(st.sampled_from(points + [Fraction(-(2**41)), Fraction(2**41)]),
                                     min_size=2, max_size=2)))
    assert count_roots(p, a, b) == sum(1 for r in roots if a < r <= b)

    # the bisection ends: at each depth at most len(roots) intervals split
    bound = cauchy_bound(p)
    most = 2 + len(roots) * (_bisection_depth(roots, bound) + 1)
    evaluations = []
    variations = rootisolate._variations

    def bounded(chain, x):
        evaluations.append(x)
        assert len(evaluations) <= most, "isolate_roots does not end"
        return variations(chain, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootisolate, "_variations", bounded)
        found = list(isolate_roots(sturm_chain(p), -bound, bound))
    assert len(found) == len(roots)
    assert all(lo < r <= hi for (lo, hi), r in zip(found, roots))


# -- the chain's remainder recurrence ------------------------------------------

@st.composite
def recurrence_chains(draw):
    """A Sturm chain with its steps: of a hard int polynomial, of x^4 + c (a
    degree drop of 4), of x^5 - x + c (a drop of 3 and a cubic quotient), or
    of a factored polynomial, then divided through its gcd row or not."""
    kind = draw(st.sampled_from(("hard", "x^4 + c", "x^5 - x + c", "factored")))
    c = draw(st.one_of(st.integers(-9, 9), huge).filter(bool))
    if kind == "hard":
        p = draw(hard_int_polys())
    elif kind == "x^4 + c":
        p = Poly([c, 0, 0, 0, draw(st.sampled_from((1, -1, 3)))])
    elif kind == "x^5 - x + c":
        p = Poly([c, -1, 0, 0, 0, 1])
    else:
        p, _ = draw(factored_polys())
    chain = sturm_chain(p)
    if draw(st.booleans()):
        chain = rootisolate._distinct_roots_chain(chain)
    return chain


def _linear_row_roots(chain):
    """(a, b), b > 0, for the root -v/u of every row u x + v: points where a
    row vanishes, a middle one where the row is not the last."""
    return [(-v, u) if u > 0 else (v, -u) for v, u in (row.nums for row in chain if row.degree == 1)]


@given(recurrence_chains(), st.data())
@settings(max_examples=200, deadline=None)
def test_the_recurrence_gives_every_row_its_value(chain, data):
    dyadic = st.tuples(st.one_of(st.integers(-9, 9), huge), st.integers(0, 90).map(lambda k: 2**k))
    other = st.tuples(st.one_of(st.integers(-9, 9), huge), st.integers(1, 2**70))
    points = data.draw(st.lists(st.one_of(dyadic, other), min_size=1, max_size=4))
    points += _linear_row_roots(chain)
    scale = data.draw(st.sampled_from((1, 3, 2**5)))  # unreduced points too
    for a, b in points:
        values = rootisolate._chain_values(chain, (a * scale, b * scale))
        x = Fraction(a, b)
        assert [(v > 0) - (v < 0) for v in values] == [row.sign_at(x) for row in chain]
        assert values == [_homogeneous(row.nums, a * scale, b * scale) for row in chain]


def test_the_recurrence_reads_a_vanishing_middle_row():
    # x^3 - 3x + 1: rows x^3 - 3x + 1, x^2 - 1, 2x - 1, 1; x = +-1 zero the
    # second row, x = 1/2 the third, and neither is a root of p
    p = Poly([1, -3, 0, 1])
    chain = sturm_chain(p)
    assert [row.nums for row in chain] == [(1, -3, 0, 1), (-1, 0, 1), (-1, 2), (1,)]
    for x, zero in ((Fraction(-1), 1), (Fraction(1, 2), 2), (Fraction(1), 1)):
        values = rootisolate._chain_values(chain, (x.numerator, x.denominator))
        assert [j for j, v in enumerate(values) if not v] == [zero]
        assert [(v > 0) - (v < 0) for v in values] == [row.sign_at(x) for row in chain]
    assert count_roots(p, -2, 2) == 3


def test_a_constant_has_one_row_and_no_steps():
    chain = sturm_chain(Poly([-6]))
    assert [row.nums for row in chain] == [(-1,)] and chain.steps == []
    assert rootisolate._chain_values(chain, (5, 3)) == [-1]
    assert count_roots(Poly([-6]), -1, 1) == 0


def test_a_linear_polynomial_has_two_rows_and_no_steps():
    p = Poly([-4, 6])  # 6x - 4, a root at 2/3
    chain = sturm_chain(p)
    assert [row.nums for row in chain] == [(-2, 3), (1,)] and chain.steps == []
    assert rootisolate._chain_values(chain, (5, 7)) == [3 * 5 - 2 * 7, 1]
    assert count_roots(p, 0, Fraction(2, 3)) == 1
    assert count_roots(p, Fraction(2, 3), 1) == 0
    assert list(isolate_roots(chain, 0, 1)) == [(Fraction(0), Fraction(1))]


@pytest.fixture
def horner_rows(monkeypatch):
    lengths = []
    homogeneous = rootisolate._homogeneous

    def spy(nums, a, b):
        lengths.append(len(nums))
        return homogeneous(nums, a, b)

    monkeypatch.setattr(rootisolate, "_homogeneous", spy)
    return lengths


def test_one_chain_evaluation_runs_horner_on_two_rows(horner_rows):
    (_, p), = projector_closed(20, Fraction(7, 47)).form.terms.items()
    chain = sturm_chain(p)
    assert len(chain) == 21
    assert all(len(q) == 2 for q, *_ in chain.steps)  # every quotient is linear
    x = Fraction(3, 7) * cauchy_bound(p)
    v = rootisolate._variations(chain, (x.numerator, x.denominator))
    assert horner_rows == [1, 2]  # c_20 and c_19, and no other row
    assert v == rootisolate._sign_changes([row.sign_at(x) for row in chain])


def test_a_quotient_of_degree_three_is_the_one_more_horner_run(horner_rows):
    chain = sturm_chain(Poly([1, -1, 0, 0, 0, 1]))  # x^5 - x + 1
    assert [row.degree for row in chain] == [5, 4, 1, 0]
    rootisolate._variations(chain, (-5, 4))
    assert horner_rows == [1, 2, 4]  # c_3, c_2 and the cubic quotient of c_1 by c_2


def test_the_witness_search_evaluates_no_point_twice():
    # p < 0 only on (1, 1 + 2^-20): from (0, 1] the search moves its left end
    # up 21 times before 2b - a lands there; V(0) is read once, and V(mid)
    # once a round
    p = Poly([-1, 1]) * Poly([-1 - Fraction(1, 2**20), 1])
    points = []
    variations = rootisolate._variations

    def spy(chain, x):
        points.append(x)
        return variations(chain, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootisolate, "_variations", spy)
        witness = rootisolate._negative_sample_near(p, sturm_chain(p), Fraction(0), Fraction(1))
    assert witness == Fraction(2**21 + 1, 2**21) and p.sign_at(witness) < 0
    assert len(points) == 22 and len(set(points)) == 22


# -- typed rejections ----------------------------------------------------------

SQRT2 = Poly([-2, 0, 1])  # x^2 - 2, a root at -sqrt(2) and one at sqrt(2)


def test_isolate_roots_rejects_a_reversed_range(monkeypatch):
    # a bisection of (2, -2] would never end: the spy stops it
    evaluations = []
    variations = rootisolate._variations

    def bounded(chain, x):
        evaluations.append(x)
        assert len(evaluations) <= 64, "isolate_roots does not end"
        return variations(chain, x)

    monkeypatch.setattr(rootisolate, "_variations", bounded)
    with pytest.raises(DomainError):
        list(isolate_roots(sturm_chain(SQRT2), 2, -2))
    assert evaluations == []


def test_count_roots_rejects_a_reversed_range():
    with pytest.raises(DomainError):
        count_roots(SQRT2, 2, -2)


def test_an_empty_range_holds_no_root():
    assert count_roots(SQRT2, 1, 1) == 0
    assert list(isolate_roots(sturm_chain(SQRT2), 1, 1)) == []


def test_count_roots_reads_its_endpoints_as_exact_rationals():
    assert count_roots(SQRT2, "1/2", 2) == 1
    assert count_roots(SQRT2, -2, Fraction(1, 2)) == 1
    with pytest.raises(TypeError):
        count_roots(SQRT2, 0.5, 2)


def test_the_zero_polynomial_is_a_domain_error():
    with pytest.raises(DomainError):
        cauchy_bound(Poly())
    with pytest.raises(DomainError):
        list(isolate_roots(sturm_chain(Poly()), 0, 1))
    with pytest.raises(DomainError):
        count_roots(Poly(), 0, 1)
