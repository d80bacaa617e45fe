"""Root isolation skips only the work that cannot change its answer.

The dyadic bound U must cap every root of the chain's first element, or the
bisection would read V(+inf) where a root lies above the point.  A squarefree
input is isolated on its own Sturm chain without Yun's decomposition; an input
with a repeated factor still takes the Yun path.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from moyalbench import rootisolate
from moyalbench.laguerre import laguerre
from moyalbench.poly import Poly
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
