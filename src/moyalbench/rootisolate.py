"""Exact real-root counting and sign decisions for rational polynomials.

Sturm chains, kept as primitive int rows that are positive multiples of the
rational elements, count distinct real roots in half-open intervals.
Nonnegativity on [0, inf) is decided exactly: a polynomial changes sign only
at roots of odd multiplicity (Yun squarefree decomposition); a witness where
it is negative comes from bisecting toward the first positive such root
until a sample lands on the negative side.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .backend import Q, ZERO
from .errors import AccuracyError
from .poly import Poly, divmod_poly, poly_gcd


def sturm_chain(p: Poly):
    """The Sturm chain of p as primitive int rows, each a positive multiple
    of the rational element p, p', -rem(p, p'), ..."""
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r.primitive())
    return [q for q in chain if not q.is_zero]


def _variations(chain, x):
    signs = [s for s in (q.sign_at(x) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in (a, b]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    chain = sturm_chain(p)
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(p: Poly):
    """All real roots lie strictly inside (-B, B)."""
    lead = abs(p.nums[-1])
    return Fraction(lead + max((abs(n) for n in p.nums[:-1]), default=0), lead)


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: [(factor, multiplicity)] with p ~ prod factor^mult;
    factors are monic, squarefree and pairwise coprime, constants dropped."""
    if p.is_zero or p.degree == 0:
        return []
    p = p.monic()
    g = poly_gcd(p, p.derivative())
    b, _ = divmod_poly(p, g)
    c, _ = divmod_poly(p.derivative(), g)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b, _ = divmod_poly(b, a)
        c, _ = divmod_poly(d, a)
        d = c - b.derivative()
        i += 1
    return out


def odd_multiplicity_part(p: Poly) -> Poly:
    """Monic product of the squarefree factors of odd multiplicity: its
    real roots are exactly the points where p changes sign."""
    out = Poly.const(Q(1))
    for factor, mult in squarefree_decomposition(p):
        if mult % 2 == 1:
            out = out * factor
    return out


def isolate_roots(chain, lo, hi):
    """Disjoint rational intervals (a, b], one distinct root of the chain's
    polynomial in each, yielded left to right by a depth-first bisection that
    splits nothing to the right of where its caller stops."""
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            yield a, b
            continue
        mid = (a + b) / 2
        vm = _variations(chain, mid)
        stack.append((mid, b, vm, vb))
        stack.append((a, mid, va, vm))


_MAX_BISECTIONS = 256


def _negative_sample_near(p: Poly, chain, a, b):
    """p changes sign at the single root of the chain's polynomial inside
    (a, b]; return a rational point where p < 0 by shrinking the bracket."""
    for _ in range(_MAX_BISECTIONS):
        mid = (a + b) / 2
        for x in (a, b, b + (b - a), mid):
            if p.sign_at(x) < 0:
                return x
        if _variations(chain, a) > _variations(chain, mid):
            b = mid
        else:
            a = mid
    raise AccuracyError("bisection failed to find the negative side")  # pragma: no cover


def nonneg_on_nonneg(p: Poly):
    """Decide p(x) >= 0 for all x >= 0, exactly.

    Returns (True, None) or (False, witness) with p(witness) < 0, witness a
    nonnegative rational.
    """
    if p.is_zero:
        return True, None
    if p.nums[0] < 0:
        return False, ZERO
    if p.degree == 0:
        return True, None
    if p.nums[-1] < 0:
        return False, cauchy_bound(p)  # beyond every root, sign = leading
    odd = odd_multiplicity_part(p)
    if odd.degree <= 0:
        return True, None
    chain = sturm_chain(odd)
    first = next(isolate_roots(chain, ZERO, cauchy_bound(odd)), None)
    if first is None:
        return True, None  # no positive root of odd: p never changes sign
    return False, _negative_sample_near(p, chain, *first)
