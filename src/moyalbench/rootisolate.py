"""Exact real-root counting and sign decisions for rational polynomials.

Sturm chains count distinct real roots in half-open intervals.  Nonnegativity
on [0, inf) is decided exactly: a polynomial changes sign only at roots of odd
multiplicity; a witness where it is negative comes from bisecting toward the
first positive such root until a sample lands on the negative side.  No
floats anywhere.

Every chain is one record, a ``_Chain``: its last rows and the steps of its
remainder recurrence, its head row for the root bound, V(0) and V(+inf).
``_chain_values`` evaluates it bottom-up, Horner on the last two rows and then
one step per row, so no high-degree row runs through Horner; ``_variations``
reads its sign changes for ``isolate_roots`` and ``_negative_sample_near``.
Two builders fill the record:

- ``sturm_chain(p)`` serves any polynomial: every row, each a positive
  multiple of the rational element p, p', -rem(p, p'), ..., with the steps
  read off the pseudo-divisions that built them.
- ``_laguerre_chain(p, s)`` serves a multiple of L_n(x/s), s > 0, such as
  the polynomial factor of a spectral projector: the Sturm sequence
  (-1)^k L_(n-k)(x/s), k = 0..n, on (0, inf) (Szego, Orthogonal
  Polynomials, sec. 3.3), whose steps are the three-term recurrence's.

One remainder sequence serves a squarefree polynomial: its Sturm chain ends
in a constant, so it is its own odd-multiplicity part and that chain is the
one to bisect with; Yun's squarefree decomposition runs only when the chain
ends in a nonconstant gcd.  The bisection runs on int coordinates j/2^k of
its interval and evaluates the chain only where the count can differ from one
already known: at 0, V is V(0), and at every point from a dyadic Fujiwara
bound U on the root moduli upward, V is V(+inf).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .backend import Q, ZERO
from .errors import AccuracyError, DomainError
from .poly import Poly, _homogeneous, _row, divmod_poly, poly_gcd


class _Chain(list):
    """Sturm chain rows c_0, ..., c_m, or at least c_(m-1) and c_m, with the
    steps of their recurrence stored bottom-up: step i, for i = m-1 down to
    1, is (q_i, qd_i, kappa_i, d_(i-1) - d_(i+1)), the int quotient row q_i
    over qd_i > 0 of c_(i-1) by c_i and the int kappa_i > 0, with
    qd_i c_(i-1) = q_i c_i - kappa_i c_(i+1).  head is the chain's
    polynomial as a primitive int row; v_zero and v_inf are V(0) and
    V(+inf)."""
    __slots__ = ("steps", "head", "v_zero", "v_inf")

    def __init__(self, rows, steps, head, v_zero, v_inf):
        super().__init__(rows)
        self.steps, self.head, self.v_zero, self.v_inf = steps, head, v_zero, v_inf


def _rows_chain(rows, steps):
    """The chain of every row c_0, ..., c_m: its head is c_0, and V(0) and
    V(+inf) are read off the rows' constant and leading coefficients."""
    return _Chain(rows, steps, rows[0], _sign_changes([q.nums[0] for q in rows]),
                  _sign_changes([q.nums[-1] for q in rows]))


def sturm_chain(p: Poly):
    """The Sturm chain of p as primitive int rows, each a positive multiple
    of the rational element p, p', -rem(p, p'), ..., with its steps, stored
    bottom-up.

    divmod_poly gives c_(i-1) = (q_i/qd_i) c_i + r/rd; the next row is
    c_(i+1) = -r/g, g = gcd(r), so kappa_i = qd_i g / rd.  That is an int:
    from m c_(i-1) = Q c_i + R, q_i/qd_i = Q/m and r/rd = R/m in lowest
    terms, kappa_i = gcd(R) / gcd(m, gcd(Q)), and what divides both m and Q
    divides R."""
    if p.is_zero:
        raise DomainError("the zero polynomial has no Sturm chain")
    rows, steps = [p.primitive(), p.derivative().primitive()], []
    while not rows[-1].is_zero and rows[-1].degree > 0:
        q, r = divmod_poly(rows[-2], rows[-1])
        if r.is_zero:
            break
        g = math.gcd(*r.nums)
        rows.append(_row([n // -g for n in r.nums], 1))
        steps.append((q.nums, q.den, q.den * g // r.den, rows[-3].degree - rows[-1].degree))
    steps.reverse()
    return _rows_chain([row for row in rows if not row.is_zero], steps)


def _laguerre_chain(p: Poly, s) -> _Chain:
    """The Sturm sequence f_k = (-1)^k L_(n-k)(x/s), k = 0..n, on (0, inf) of
    a polynomial p of degree n that is a nonzero multiple of L_n(x/s),
    s = u/v > 0.

    Its rows are c_k = (-1)^k P_(n-k), P_j = j! u^j L_j(v x/u), positive
    multiples of the f_k with int coefficients.  The three-term recurrence
    (j+1) L_(j+1) = (2j+1-y) L_j - j L_(j-1) gives
    P_(j+1) = ((2j+1)u - vx) P_j - j^2 u^2 P_(j-1), so
    c_(k-1) = (vx - (2j+1)u) c_k - j^2 u^2 c_(k+1), j = n - k: step k is
    ((-(2j+1)u, v), 1, j^2 u^2, 2), and only the rows c_(n-1) =
    (-1)^(n-1) (u - vx) and c_n = (-1)^n are kept.  At 0 the f_k alternate
    in sign, so V(0) = n; every L_j has the leading sign (-1)^j, so the f_k
    agree past every root and V(+inf) = 0.  The sign of p is not read:
    negating every element changes no count.  L_n has n distinct positive
    roots, and the chain ends in a constant, so it counts each root once."""
    n, u, v = p.degree, s.numerator, s.denominator
    sign, uu = (-1) ** n, u * u
    rows = [_row([-sign * u, sign * v], 1), _row([sign], 1)][-1 - n:]  # one at n = 0
    steps = [((-(2 * j + 1) * u, v), 1, j * j * uu, 2) for j in range(1, n)]
    return _Chain(rows, steps, p.primitive(), n, 0)


def _sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _chain_values(chain, x):
    """[H_0, ..., H_m]: H_j = b^(d_j) c_j(a/b), an int, for x = (a, b), the
    point a/b with b > 0, computed bottom-up.  Horner gives H_m and H_(m-1);
    each step then gives
    H_(i-1) = (Q_i H_i - kappa_i b^(d_(i-1) - d_(i+1)) H_(i+1)) / qd_i,
    Q_i = b^(deg q_i) q_i(a/b), a division with no remainder, skipped at
    qd_i = 1.  A drop of one degree a row makes every shift 2, so b^2 is
    formed once."""
    a, b = x
    values = [_homogeneous(q.nums, a, b) for q in reversed(chain[-2:])]
    if chain.steps:
        bb = b * b
        h1, h0 = values
        for q, qd, kappa, s in chain.steps:
            hq = q[1] * a + q[0] * b if len(q) == 2 else _homogeneous(q, a, b)
            h = hq * h0 - kappa * (bb if s == 2 else b ** s) * h1
            h1, h0 = h0, h if qd == 1 else h // qd
            values.append(h0)
    values.reverse()
    return values


def _variations(chain, x):
    """Sign changes of the chain at x = (a, b), the point a/b with b > 0."""
    return _sign_changes(_chain_values(chain, x))


def _distinct_roots_chain(chain):
    """The chain divided through by its last row g = gcd(p, p'), when g is
    not constant.  At a root of g every row vanishes, so the chain itself
    reads no sign change there; the quotients are a Sturm sequence of the
    squarefree part p/g, whose sign changes count each distinct root of p
    once.  A chain ending in a constant comes back as it is.  By Gauss's
    lemma each quotient is the int row c_j/g, so the steps carry over.  A
    chain that keeps only its last two rows ends in a constant."""
    g = chain[-1]
    if g.degree <= 0:
        return chain
    return _rows_chain([divmod_poly(q, g)[0].primitive() for q in chain], chain.steps)


def _interval(lo, hi):
    """lo and hi as exact rationals, lo <= hi."""
    lo, hi = Q(lo), Q(hi)
    if lo > hi:
        raise DomainError(f"empty interval: lo = {lo} > hi = {hi}")
    return lo, hi


def count_roots(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in (a, b]; a and b are read as
    exact rationals, and a > b or the zero polynomial is a DomainError."""
    a, b = _interval(a, b)
    chain = _distinct_roots_chain(sturm_chain(p))
    return (_variations(chain, (a.numerator, a.denominator))
            - _variations(chain, (b.numerator, b.denominator)))


def cauchy_bound(p: Poly):
    """All real roots lie strictly inside (-B, B)."""
    if p.is_zero:
        raise DomainError("the zero polynomial has no root bound")
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
    splits nothing to the right of where its caller stops.  The chain is a
    `sturm_chain` result, such as the one `nonneg_on_nonneg` built to learn
    that its polynomial is squarefree, or a `_laguerre_chain`; a chain that
    ends in a nonconstant gcd is first divided through by it (see
    _distinct_roots_chain).  lo and hi are read as exact rationals, and
    lo > hi is a DomainError.

    The bisection runs on ints: the point at coordinate j/2^k of (lo, hi]
    is (n_lo 2^k + j w) / (m 2^k), lo = n_lo/m and hi = (n_lo + w)/m, and a
    Fraction is built only for the ends of an interval that is yielded.
    V(x), the sign changes of the chain at x, is read without evaluating the
    chain where it is known: at x = 0 it is the chain's V(0), and at x >= U,
    the dyadic bound on the root moduli of its head, V(+inf), since
    V(x) - V(+inf) counts the roots in (x, inf)."""
    lo, hi = _interval(lo, hi)
    chain = _distinct_roots_chain(chain)
    top = _dyadic_root_bound(chain.head)
    tn, td = top.numerator, top.denominator
    v_inf = chain.v_inf
    m = math.lcm(lo.denominator, hi.denominator)
    base = lo.numerator * (m // lo.denominator)
    w = hi.numerator * (m // hi.denominator) - base

    def point(j, k):
        return (base << k) + j * w, m << k

    def variations(j, k):
        a, b = point(j, k)
        if a * td >= tn * b:
            return v_inf
        if not a:
            return chain.v_zero
        return _variations(chain, (a, b))

    stack = [(0, 0, variations(0, 0), variations(1, 0))]
    while stack:
        j, k, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            yield Fraction(*point(j, k)), Fraction(*point(j + 1, k))
            continue
        j, k = 2 * j, k + 1
        vm = variations(j + 1, k)
        stack.append((j + 1, k, vm, vb))
        stack.append((j, k, va, vm))


_MAX_BISECTIONS = 256


def _negative_sample_near(p: Poly, chain, a, b):
    """p changes sign at the single root of the chain's polynomial inside
    (a, b]; return a rational point where p < 0 by shrinking the bracket.
    V(a) is read once, in the first round that bisects: a moves only to a
    midpoint with V(mid) = V(a), so a round evaluates the chain once."""
    va = None
    for _ in range(_MAX_BISECTIONS):
        mid = (a + b) / 2
        for x in (a, b, b + (b - a), mid):
            if p.sign_at(x) < 0:
                return x
        if va is None:
            va = _variations(chain, (a.numerator, a.denominator))
        if va > _variations(chain, (mid.numerator, mid.denominator)):
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
    witness = _negative_point(p, chain, cauchy_bound(odd))
    return witness is None, witness


def _negative_point(p: Poly, chain, hi):
    """A rational x > 0 with p(x) < 0, next to the first root in (0, hi] of
    the chain's polynomial, whose roots are where p changes sign; None when
    it has no root there."""
    first = next(isolate_roots(chain, ZERO, hi), None)
    return None if first is None else _negative_sample_near(p, chain, *first)
