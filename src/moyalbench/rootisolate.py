"""Exact real-root counting and sign decisions for rational polynomials.

Sturm chains, kept as primitive int rows that are positive multiples of the
rational elements, count distinct real roots in half-open intervals.
Nonnegativity on [0, inf) is decided exactly: a polynomial changes sign only
at roots of odd multiplicity; a witness where it is negative comes from
bisecting toward the first positive such root until a sample lands on the
negative side.  No floats anywhere.

One remainder sequence serves a squarefree polynomial: its Sturm chain ends
in a constant, so it is its own odd-multiplicity part and that chain is the
one to bisect with; Yun's squarefree decomposition runs only when the chain
ends in a nonconstant gcd.  The bisection evaluates the chain only where the
count can differ from one already known: V(0) is read from the constant
terms, and at every point from a dyadic Fujiwara bound U on the root moduli
upward, V is V(+inf), read from the leading coefficients.
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


def _sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _variations(chain, x):
    return _sign_changes([q.sign_at(x) for q in chain])


def _distinct_roots_chain(chain):
    """The chain divided through by its last row g = gcd(p, p'), when g is
    not constant.  At a root of g every row vanishes, so the chain itself
    reads no sign change there; the quotients are a Sturm sequence of the
    squarefree part p/g, whose sign changes count each distinct root of p
    once.  A chain ending in a constant comes back as it is."""
    g = chain[-1]
    if g.degree <= 0:
        return chain
    return [divmod_poly(q, g)[0].primitive() for q in chain]


def count_roots(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in (a, b]."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    chain = _distinct_roots_chain(sturm_chain(p))
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(p: Poly):
    """All real roots lie strictly inside (-B, B)."""
    lead = abs(p.nums[-1])
    return Fraction(lead + max((abs(n) for n in p.nums[:-1]), default=0), lead)


def _dyadic_root_bound(p: Poly) -> Fraction:
    """U = 2^(max_k t_k + 1), t_k = ceil((bits(a_(n-k)) - bits(a_n) + 1) / k):
    Fujiwara's 2 max_k |a_(n-k) / a_n|^(1/k), rounded up to a power of two
    on bit lengths alone, so every complex root of p has modulus <= U."""
    nums = p.nums
    lead_bits = nums[-1].bit_length()
    top = max((-((lead_bits - a.bit_length() - 1) // k)
               for k, a in enumerate(reversed(nums[:-1]), 1) if a), default=0)
    return Fraction(2) ** (top + 1)


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
    splits nothing to the right of where its caller stops.  The chain is any
    `sturm_chain` result, such as the one `nonneg_on_nonneg` built to learn
    that its polynomial is squarefree; a chain that ends in a nonconstant
    gcd is first divided through by it (see _distinct_roots_chain).

    V(x), the sign changes of the chain at x, is read without evaluating the
    chain where it is known: at x = 0 from the constant terms, and at
    x >= U, the dyadic bound on the root moduli of chain[0], from the leading
    coefficients, since V(x) - V(+inf) counts the roots in (x, inf)."""
    chain = _distinct_roots_chain(chain)
    top = _dyadic_root_bound(chain[0])
    v_inf = _sign_changes([q.nums[-1] for q in chain])

    def variations(x):
        if x >= top:
            return v_inf
        if not x:
            return _sign_changes([q.nums[0] for q in chain])
        return _variations(chain, x)

    lo, hi = Q(lo), Q(hi)  # int ends would halve into floats
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            yield a, b
            continue
        mid = (a + b) / 2
        vm = variations(mid)
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
    # a constant last row means gcd(p, p') = 1: p is its own odd-multiplicity
    # part, with the same primitive chain rows since its leading coefficient
    # is positive; otherwise p has a repeated factor and Yun's algorithm runs
    chain, odd = sturm_chain(p), p
    if chain[-1].degree > 0:
        odd = odd_multiplicity_part(p)
        if odd.degree <= 0:
            return True, None
        chain = sturm_chain(odd)
    first = next(isolate_roots(chain, ZERO, cauchy_bound(odd)), None)
    if first is None:
        return True, None  # no positive root of odd: p never changes sign
    return False, _negative_sample_near(p, chain, *first)
