"""Exact real-root counting and sign decisions for rational polynomials.

Sturm chains count distinct real roots in half-open intervals.  On top of
that, nonnegativity on [0, inf) is decided exactly: a polynomial changes
sign only at roots of odd multiplicity, so the decision reduces to locating
positive roots of the odd-multiplicity part (Yun squarefree decomposition);
witnesses where the polynomial is negative are produced by bisecting toward
such a root until a sample lands on the negative side.  No floats anywhere.
"""

from __future__ import annotations

from .backend import Q, ZERO
from .errors import AccuracyError
from .poly import Poly, divmod_poly, poly_gcd


def sturm_chain(p: Poly):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero]


def _variations(chain, x):
    signs = []
    for q in chain:
        v = q(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, a, b, chain=None) -> int:
    """Number of distinct real roots of p in (a, b]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    chain = chain or sturm_chain(p)
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(p: Poly):
    """All real roots lie strictly inside (-B, B)."""
    lead = p.leading
    m = max((abs(c / lead) for c in p.coeffs[:-1]), default=ZERO)
    return Q(1) + m


def squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    q, _ = divmod_poly(p, g)
    return q.monic()


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: [(factor, multiplicity)] with p ~ prod factor^mult.

    Factors are monic, squarefree, pairwise coprime; constant factors are
    dropped (the overall scalar is not tracked).
    """
    if p.is_zero or p.degree == 0:
        return []
    p = p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return [(p, 1)]
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
    """Monic product of the squarefree factors of odd multiplicity.

    Its real roots are exactly the points where p changes sign.
    """
    out = Poly.const(Q(1))
    for factor, mult in squarefree_decomposition(p):
        if mult % 2 == 1:
            out = out * factor
    return out


def isolate_roots(q: Poly, lo, hi):
    """Disjoint rational intervals (a, b], one distinct root of q in each."""
    chain = sturm_chain(q)
    total = count_roots(q, lo, hi, chain)
    out = []
    stack = [(lo, hi, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        left = count_roots(q, a, mid, chain)
        stack.append((a, mid, left))
        stack.append((mid, b, n - left))
    out.sort()
    return out


def _negative_sample_near(p: Poly, odd: Poly, a, b, max_iter: int = 256):
    """p changes sign at the single root of odd inside (a, b]; return a
    rational point where p < 0 by shrinking the bracket around that root."""
    chain = sturm_chain(odd)
    for _ in range(max_iter):
        for x in (a, b, b + (b - a)):
            if p(x) < 0:
                return x
        mid = (a + b) / 2
        if p(mid) < 0:
            return mid
        if count_roots(odd, a, mid, chain) > 0:
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
    if p(ZERO) < 0:
        return False, ZERO
    if p.degree == 0:
        return True, None
    if p.leading < 0:
        return False, cauchy_bound(p)  # beyond every root, sign = leading
    odd = odd_multiplicity_part(p)
    if odd.degree <= 0:
        return True, None
    bound = cauchy_bound(odd)
    if count_roots(odd, ZERO, bound) == 0:
        return True, None
    for a, b in isolate_roots(odd, ZERO, bound):
        w = _negative_sample_near(p, odd, a, b)
        if w is not None and w >= 0:
            return False, w
    return True, None  # pragma: no cover - a sign change always yields a witness


def find_negative_point(p: Poly):
    """A rational x >= 0 with p(x) < 0, or None if p >= 0 on [0, inf)."""
    ok, witness = nonneg_on_nonneg(p)
    return None if ok else witness
