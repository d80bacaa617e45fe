"""The projector witness isolates on the Laguerre recurrence, not on a
remainder sequence.

The chain (-1)^k L_(n-k)(mu/s), s = lam(1-lam), must read the same sign
changes as p's Sturm chain at every mu > 0, so that root isolation visits the
same points and every witness is the generic route's.  Its values are checked
against the closed-form Laguerre polynomials, not against the recurrence that
computes them; the generic route stays the reference in
tests/test_poly_kernel.py.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moyalbench import poly as poly_module
from moyalbench import rootisolate
from moyalbench.laguerre import laguerre
from moyalbench.rootisolate import _chain_values, _laguerre_chain, nonneg_on_nonneg, sturm_chain
from moyalbench.spectral import projector_closed, projector_negative_witness


def _projector_poly(n, lam):
    (_, p), = projector_closed(n, lam).form.terms.items()
    return p


def _chains(n, lam):
    p = _projector_poly(n, lam)
    return p, _laguerre_chain(p, lam * (1 - lam)), sturm_chain(p)


def _closed_form_values(n, s, a, b):
    """(-1)^k j! q^j L_j(p/q), j = n - k, p = a s.den and q = b s.num, from
    the closed-form polynomials."""
    p, q = a * s.denominator, b * s.numerator
    out = []
    for k in range(n + 1):
        j = n - k
        v = math.factorial(j) * q ** j * laguerre(j)(Fraction(p, q))
        assert v.denominator == 1
        out.append((-1) ** k * v.numerator)
    return out


lambdas = st.one_of(
    st.just(Fraction(1, 2)),
    st.integers(2, 64).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))),
)


@st.composite
def chain_points(draw):
    """(n, lam, [(a, b)]): points mu = a/b > 0, b > 0, some unreduced, among
    them mu = s (where L_1(mu/s) vanishes, a middle element for n >= 2) and
    points at and above the dyadic root bound."""
    n, lam = draw(st.integers(0, 40)), draw(lambdas)
    s = lam * (1 - lam)
    top = rootisolate._dyadic_root_bound(_projector_poly(n, lam).primitive())
    dyadic = st.tuples(st.integers(1, 2**70), st.integers(0, 80).map(lambda k: 2**k))
    other = st.tuples(st.integers(1, 2**70), st.integers(1, 2**40))
    points = draw(st.lists(st.one_of(dyadic, other), min_size=1, max_size=4))
    for x in (s, top, top * draw(st.integers(2, 2**20))):
        points.append((x.numerator, x.denominator))
    scale = draw(st.sampled_from((1, 3, 2**5)))
    return n, lam, [(a * scale, b * scale) for a, b in points]


@given(chain_points())
@settings(max_examples=150, deadline=None)
def test_the_recurrence_chain_reads_the_sturm_chain_variations(case):
    n, lam, points = case
    p, chain, generic = _chains(n, lam)
    assert chain.head == generic[0]
    assert (chain.v_zero, chain.v_inf) == (generic.v_zero, generic.v_inf) == (n, 0)
    for x in points:
        assert rootisolate._variations(chain, x) == rootisolate._variations(generic, x)


@given(chain_points())
@settings(max_examples=60, deadline=None)
def test_the_chain_values_are_the_scaled_laguerre_values(case):
    n, lam, points = case
    s = lam * (1 - lam)
    _, chain, _ = _chains(n, lam)
    for a, b in points:
        assert _chain_values(chain, (a, b)) == _closed_form_values(n, s, a, b)


def test_at_mu_equal_to_s_a_middle_element_vanishes():
    lam = Fraction(17, 45)
    s = lam * (1 - lam)
    for n in (2, 7, 12):
        _, chain, generic = _chains(n, lam)
        x = (s.numerator, s.denominator)
        values = _chain_values(chain, x)
        assert values[n - 1] == 0 and values[n - 2] * values[n] < 0  # L_1(1) = 0
        assert rootisolate._variations(chain, x) == rootisolate._variations(generic, x)


def test_an_unreduced_point_is_not_reduced():
    # mu = 6/4 with s = 3/16: the recurrence runs on (6 * 16, 4 * 3), not on
    # 8/1, so each value is the closed form at that pair exactly
    s = Fraction(3, 16)
    chain = _laguerre_chain(_projector_poly(4, Fraction(1, 4)), s)
    assert _chain_values(chain, (6, 4)) == _closed_form_values(4, s, 6, 4)
    assert _chain_values(chain, (6, 4)) != _chain_values(chain, (3, 2))


def _generic_witness(n, lam):
    """The route every polynomial takes: nonneg_on_nonneg, and at p(0) < 0
    the Cauchy lower bound on the root moduli."""
    p = _projector_poly(n, lam)
    _, witness = nonneg_on_nonneg(p)
    if witness == 0:
        a0 = abs(p.nums[0])
        return Fraction(a0, a0 + max(abs(c) for c in p.nums[1:]))
    return witness


WITNESS_LAMBDAS = (Fraction(1, 64), Fraction(17, 45), Fraction(1, 2), Fraction(40, 63))


@pytest.mark.parametrize("n", range(41))
def test_the_witness_is_the_generic_routes(n):
    for lam in WITNESS_LAMBDAS:
        witness = projector_negative_witness(n, lam)
        assert witness == _generic_witness(n, lam)
        if n:
            assert projector_closed(n, lam).form.sign_at(witness) < 0


@pytest.fixture
def calls(monkeypatch):
    counts = {"variations": 0, "horner": []}
    variations = rootisolate._variations
    homogeneous = rootisolate._homogeneous

    def spy_variations(chain, x):
        counts["variations"] += 1
        return variations(chain, x)

    def never(name):
        def fail(*args):
            raise AssertionError(f"{name} called")
        return fail

    def short_rows_only(nums, a, b):
        assert len(nums) <= 2, f"Horner on a row of length {len(nums)}"
        counts["horner"].append(len(nums))
        return homogeneous(nums, a, b)

    monkeypatch.setattr(rootisolate, "_variations", spy_variations)
    monkeypatch.setattr(rootisolate, "sturm_chain", never("sturm_chain"))
    monkeypatch.setattr(rootisolate, "divmod_poly", never("divmod_poly"))
    monkeypatch.setattr(poly_module, "divmod_poly", never("divmod_poly"))
    monkeypatch.setattr(rootisolate, "_homogeneous", short_rows_only)
    return counts


@pytest.mark.parametrize("n, lam, most", [(20, Fraction(7, 47), 13),
                                          (12, Fraction(17, 45), 12)])
def test_the_witness_builds_no_remainder_sequence(calls, n, lam, most):
    witness = projector_negative_witness(n, lam)
    assert witness > 0 and projector_closed(n, lam).form.sign_at(witness) < 0
    assert 0 < calls["variations"] <= most
    assert calls["horner"] == [1, 2] * calls["variations"]  # c_n and c_(n-1) only


def test_lam_zero_takes_the_poisson_branch(calls):
    assert all(projector_negative_witness(n, 0) is None for n in range(8))
    assert calls["variations"] == 0


@pytest.mark.parametrize("n", (1, 3, 9, 21))
def test_odd_levels_exit_at_the_cauchy_lower_bound(calls, n):
    lam = Fraction(17, 45)
    p = _projector_poly(n, lam)
    assert p.nums[0] < 0
    a0 = abs(p.nums[0])
    bound = Fraction(a0, a0 + max(abs(c) for c in p.nums[1:]))
    assert projector_negative_witness(n, lam) == bound
    assert calls["variations"] == 0
