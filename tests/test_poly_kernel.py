"""The integer kernel of ``Poly`` and root isolation against a naive reference.

The reference is the Fraction polynomial the kernel replaced: one Fraction
per coefficient, Fraction Horner, Euclidean division one Fraction at a time,
monic Euclid for the gcd, and Sturm chains of rational elements.  The root
isolation and nonnegativity decisions are rebuilt on it step for step, so
every witness the kernel returns is checked against code that shares none
of its tricks (int rows, one denominator, pseudo-division, homogeneous
Horner, primitive chain rows).
"""

import math
from fractions import Fraction
from random import Random

import mpmath
import pytest

from moyalbench.exppoly import ExpPoly, exp_integral
from moyalbench.poly import Poly, _row, divmod_poly, poly_gcd
from moyalbench.rootisolate import nonneg_on_nonneg, sturm_chain
from moyalbench.spectral import projector_closed, projector_negative_witness


class RefPoly:
    """Dense polynomial with one Fraction per coefficient."""

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RefPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return RefPoly()
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return RefPoly(out)
        return RefPoly([c * other for c in self.coeffs])

    def __truediv__(self, scalar):
        return RefPoly([c / scalar for c in self.coeffs])

    def derivative(self):
        return RefPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return 0.0 if isinstance(x, float) else Fraction(0)
        return acc

    def scale_arg(self, c):
        return RefPoly([a * c**k for k, a in enumerate(self.coeffs)])

    def shift(self, k):
        return RefPoly((0,) * k + self.coeffs) if self.coeffs else self

    def monic(self):
        return self / self.leading if self.coeffs else self


def ref_divmod(num, den):
    q = [Fraction(0)] * max(num.degree - den.degree + 1, 0)
    rem = list(num.coeffs)
    d, lead = den.degree, den.leading
    while len(rem) - 1 >= d and any(rem):
        k = len(rem) - 1
        if not rem[k]:
            rem.pop()
            continue
        f = rem[k] / lead
        q[k - d] = f
        for j, c in enumerate(den.coeffs):
            rem[k - d + j] -= f * c
        rem.pop()
    return RefPoly(q), RefPoly(rem)


def ref_gcd(a, b):
    a, b = a.monic(), b.monic()
    while not b.is_zero:
        _, r = ref_divmod(a, b)
        a, b = b, r.monic()
    return a


def ref_sturm_chain(p):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = ref_divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero]


def ref_count_roots(chain, a, b):
    def variations(x):
        signs = [v > 0 for v in (q(x) for q in chain) if v]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b)


def ref_cauchy_bound(p):
    return 1 + max((abs(c / p.leading) for c in p.coeffs[:-1]), default=Fraction(0))


def ref_odd_multiplicity_part(p):
    """Yun's squarefree decomposition, keeping the odd-multiplicity factors."""
    out = RefPoly([1])
    p = p.monic()
    g = ref_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    b, _ = ref_divmod(p, g)
    c, _ = ref_divmod(p.derivative(), g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = ref_gcd(b, d)
        if a.degree > 0 and i % 2 == 1:
            out = out * a
        b, _ = ref_divmod(b, a)
        c, _ = ref_divmod(d, a)
        d = c - b.derivative()
        i += 1
    return out


def ref_isolate_roots(q, lo, hi):
    chain = ref_sturm_chain(q)
    out, stack = [], [(lo, hi, ref_count_roots(chain, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 1:
            out.append((a, b))
        elif n > 1:
            mid = (a + b) / 2
            left = ref_count_roots(chain, a, mid)
            stack += [(a, mid, left), (mid, b, n - left)]
    return sorted(out)


def ref_nonneg_on_nonneg(p):
    if p.is_zero:
        return True, None
    if p(Fraction(0)) < 0:
        return False, Fraction(0)
    if p.degree == 0:
        return True, None
    if p.leading < 0:
        return False, ref_cauchy_bound(p)
    odd = ref_odd_multiplicity_part(p)
    if odd.degree <= 0:
        return True, None
    chain = ref_sturm_chain(odd)
    for a, b in ref_isolate_roots(odd, Fraction(0), ref_cauchy_bound(odd)):
        for _ in range(256):
            for x in (a, b, b + (b - a), (a + b) / 2):
                if p(x) < 0:
                    return False, x
            mid = (a + b) / 2
            if ref_count_roots(chain, a, mid) > 0:
                b = mid
            else:
                a = mid
    return True, None


def ref_sign_at(terms, x):
    """Exact parts by Fraction Horner, then outward-rounded intervals."""
    by_exp = {}
    for r, p in terms:
        by_exp[r * x] = by_exp.get(r * x, Fraction(0)) + p(x)
    parts = [(c, e) for e, c in by_exp.items() if c]
    if not parts:
        return 0
    if all(c > 0 for c, _ in parts):
        return 1
    if all(c < 0 for c, _ in parts):
        return -1
    ctx = mpmath.iv.__class__()
    for prec in (64, 128, 256, 512, 1024, 2048, 4096):
        ctx.prec = prec
        iv = sum((ctx.mpf(c.numerator) / c.denominator
                  * ctx.exp(-ctx.mpf(e.numerator) / e.denominator) for c, e in parts),
                 ctx.mpf(0))
        if iv.b < 0:
            return -1
        if iv.a > 0:
            return 1
    raise AssertionError("reference sign did not resolve")


def ref_exppoly_nonneg(terms):
    checks = [ref_nonneg_on_nonneg(p) for _, p in terms]
    if all(ok for ok, _ in checks):
        return True, None
    if len(terms) == 1:
        return False, checks[0][1]
    slowest = min(terms, key=lambda t: t[0])[1]
    if slowest.leading < 0:
        x = Fraction(1)
        for _ in range(1024):
            if ref_sign_at(terms, x) < 0:
                return False, x
            x *= 2
    for ok, witness in checks:
        if not ok and ref_sign_at(terms, witness) < 0:
            return False, witness
    return None, None


def ref_projector(n, lam):
    """(rate, RefPoly) of pi_n^lam from the closed Laguerre coefficients."""
    one_m = 1 - lam
    lag = RefPoly([Fraction((-1) ** j * math.comb(n, j), math.factorial(j))
                   for j in range(n + 1)])
    pref = (-lam / one_m) ** n / one_m
    return 1 / one_m, lag.scale_arg(1 / (lam * one_m)) * pref


def ref_projector_witness(n, lam):
    _, poly = ref_projector(n, lam)
    ok, witness = ref_nonneg_on_nonneg(poly)
    if not ok and witness == 0:
        a = [abs(c) for c in poly.coeffs]
        return a[0] / (a[0] + max(a[1:], default=0))
    return None if ok else witness


def ref_exp_integral(terms):
    return sum((c * math.factorial(k) / r ** (k + 1)
                for r, p in terms for k, c in enumerate(p.coeffs)), Fraction(0))


# -- inputs -------------------------------------------------------------------


def _rational(rng, bits):
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def _random_polys(seed, count):
    rng = Random(seed)
    out = []
    for _ in range(count):
        bits = rng.choice((3, 8, 40, 120))
        coeffs = [_rational(rng, bits) if rng.random() < 0.8 else Fraction(0)
                  for _ in range(rng.randint(0, 12))]
        out.append(coeffs)
    out += [[], [0], [5], [Fraction(-3, 7)], [0, 0, 1], [1, -2, 1], [-2, 5, -4, 1],
            [Fraction(1, 3), 0, Fraction(-2, 9)]]
    return out


POLYS = _random_polys(11, 60)
PAIRS = list(zip(POLYS, POLYS[7:] + POLYS[:7]))


def _lambdas(seed, count):
    rng = Random(seed)
    out = []
    while len(out) < count:
        q = rng.randint(33, 64)
        out.append(Fraction(rng.randint(1, q // 2), q))
    return out


def _points(seed):
    rng = Random(seed)
    pts = [Fraction(0), Fraction(1), Fraction(-3), Fraction(7, 2), Fraction(-1, 3)]
    for bits in (1, 8, 64, 200, 300):
        for _ in range(4):
            pts.append(Fraction(rng.randint(-(2**(bits + 8)), 2**(bits + 8)),
                                rng.randint(1, 2**bits)))
    pts.append(Fraction(2**301 + 1, 2**300))
    return pts


def canonical(p: Poly, ref: RefPoly):
    """p is in canonical form and holds exactly the reference's values."""
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == ref.coeffs
    assert p.degree == ref.degree


# -- arithmetic ---------------------------------------------------------------


@pytest.mark.parametrize("a,b", PAIRS)
def test_ring_operations_match_the_fraction_reference(a, b):
    pa, pb, ra, rb = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    canonical(pa, ra)
    canonical(pa + pb, ra + rb)
    canonical(pa - pb, ra - rb)
    canonical(-pa, -ra)
    canonical(pa * pb, ra * rb)
    canonical(pa.derivative(), ra.derivative())
    canonical(pa.shift(3), ra.shift(3))
    canonical(pa.monic(), ra.monic())
    for c in (Fraction(0), Fraction(1), Fraction(-5, 3), Fraction(2**90 + 1, 3**40)):
        canonical(pa.scale_arg(c), ra.scale_arg(c))
        canonical(pa * c, ra * c)
        if c:
            canonical(pa / c, ra / c)
    assert pa + pb == Poly((ra + rb).coeffs)
    assert (pa == pb) == (ra.coeffs == rb.coeffs)


@pytest.mark.parametrize("a,b", PAIRS)
def test_division_and_gcd_match_the_fraction_reference(a, b):
    pa, pb, ra, rb = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    if not pb.is_zero:
        (q, r), (rq, rr) = divmod_poly(pa, pb), ref_divmod(ra, rb)
        canonical(q, rq)
        canonical(r, rr)
    # a common factor makes the gcd nontrivial
    f = RefPoly([Fraction(-3, 2), 0, 1]) * RefPoly([Fraction(5, 7), 1])
    canonical(poly_gcd(pa, pb), ref_gcd(ra, rb))
    canonical(poly_gcd(pa * Poly(f.coeffs), pb * Poly(f.coeffs)), ref_gcd(ra * f, rb * f))


@pytest.mark.parametrize("coeffs", POLYS[:30])
def test_exact_values_and_signs_match_at_wide_rationals(coeffs):
    p, ref = Poly(coeffs), RefPoly(coeffs)
    for x in _points(len(coeffs)):
        v = ref(x)
        assert p(x) == v and type(p(x)) is Fraction
        assert p.sign_at(x) == (v > 0) - (v < 0)


@pytest.mark.parametrize("top,den,nums,reduced", [
    (7, 3**51, (0,) * 50 + (7,), 3**51),  # no common factor behind the zeros
    (9, 3**51, (0,) * 50 + (1,), 3**49),  # the factor sits after 50 zeros
    (0, 3**51, (), 1),                    # an all-zero row is the zero Poly
])
def test_rows_with_leading_zeros_are_canonical(top, den, nums, reduced):
    p = _row([0] * 50 + [top], den)
    assert (p.nums, p.den) == (nums, reduced)
    assert p == Poly([0] * 50 + [Fraction(top, den)])
    assert p == Poly.monomial(50, Fraction(top, den))


@pytest.mark.parametrize("n", [0, 1, 7, 30, 125])
def test_float_evaluation_keeps_its_bytes(n):
    from moyalbench.laguerre import laguerre

    p = laguerre(n)
    ref = RefPoly(p.coeffs)
    for z in (0.0, 1e-300, 0.125, 1.0 / 3.0, 2.5, 17.75, 123.456, 600.0):
        assert p(z).hex() == float(ref(z)).hex()


def test_exp_integral_matches_the_fraction_reference():
    rng = Random(5)
    for coeffs in POLYS:
        terms = [(Fraction(rng.randint(1, 90), rng.randint(1, 64)), coeffs),
                 (Fraction(rng.randint(1, 9), rng.randint(1, 2**70)), coeffs[::-1])]
        f = ExpPoly([(Poly(c), r) for r, c in terms])
        ref_terms = {}
        for r, c in terms:
            ref_terms[r] = ref_terms.get(r, RefPoly()) + RefPoly(c)
        assert exp_integral(f) == ref_exp_integral(list(ref_terms.items()))


# -- Sturm chains and witnesses -------------------------------------------------


def _chain_inputs():
    out = [Poly(c) for c in POLYS if len(c) > 1]
    for n, lam in zip(range(2, 21, 3), _lambdas(3, 7)):
        (_, p), = projector_closed(n, lam).form.terms.items()
        out.append(p)
    return out


@pytest.mark.parametrize("p", _chain_inputs(), ids=lambda p: f"deg{p.degree}")
def test_sturm_rows_are_positive_multiples_of_the_rational_chain(p):
    chain, ref = sturm_chain(p), ref_sturm_chain(RefPoly(p.coeffs))
    assert len(chain) == len(ref)
    for row, element in zip(chain, ref):
        assert row.den == 1 and math.gcd(*row.nums) == 1
        assert row.degree == element.degree
        ratio = row.coeffs[-1] / element.leading
        assert ratio > 0
        assert row.coeffs == (element * ratio).coeffs


WITNESS_CASES = list(zip(range(1, 21), _lambdas(21, 20)))


@pytest.mark.parametrize("n,lam", WITNESS_CASES)
def test_projector_witness_matches_the_reference(n, lam):
    assert projector_negative_witness(n, lam) == ref_projector_witness(n, lam)
    (_, p), = projector_closed(n, lam).form.terms.items()
    assert nonneg_on_nonneg(p) == ref_nonneg_on_nonneg(RefPoly(p.coeffs))


@pytest.mark.parametrize("coeffs", POLYS)
def test_nonneg_on_random_polys_matches_the_reference(coeffs):
    assert nonneg_on_nonneg(Poly(coeffs)) == ref_nonneg_on_nonneg(RefPoly(coeffs))


def _exppoly_cases():
    lams = _lambdas(31, 24)
    cases = []
    for k, n in enumerate((2, 4, 6, 8, 10, 12, 14, 3, 9, 20)):
        l1, l2 = sorted((lams[2 * k], lams[2 * k + 1]))
        if l1 == l2:
            l2 = Fraction(1, 2)
        cases.append((n, l1, l2))
    return cases


@pytest.mark.parametrize("n,l1,l2", _exppoly_cases())
def test_exppoly_nonneg_matches_the_reference(n, l1, l2):
    form = projector_closed(n, l1).form - projector_closed(n, l2).form
    r1, p1 = ref_projector(n, l1)
    r2, p2 = ref_projector(n, l2)
    terms = [(r1, p1), (r2, -p2)] if r1 != r2 else [(r1, p1 - p2)]
    assert form.nonneg_on_nonneg() == ref_exppoly_nonneg(terms)
    # the single-rate factors alone, and their mixed sum with a positive part
    single = ExpPoly.single(Poly(p1.coeffs), r1)
    assert single.nonneg_on_nonneg() == ref_exppoly_nonneg([(r1, p1)])
    bump = RefPoly([Fraction(1, 1000)])
    mixed = single + ExpPoly.single(Poly(bump.coeffs), r1 / 3)
    assert mixed.nonneg_on_nonneg() == ref_exppoly_nonneg([(r1, p1), (r1 / 3, bump)])
