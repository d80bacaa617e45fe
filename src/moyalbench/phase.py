"""Polynomial algebra on phase space in holomorphic coordinates.

A PhasePoly is a finite sum  c_{ijd} * a^i * abar^j * hbar^d  with exact
Gaussian-rational coefficients; hbar is a formal variable, never a float.
The deformed products live here:

* ``star(f, g, lam)``: the one-parameter family of associative products
  built from the commuting derivations d/da and d/dabar,

      f *_lam g = f . exp(hbar((1-lam) <d_a d_abar> - lam <d_abar d_a>)) . g,

  which expands to the exact finite sum over (r, s) of
  hbar^(r+s) (1-lam)^r (-lam)^s / (r! s!) (d_a^r d_abar^s f)(d_abar^r d_a^s g).
  lam = 0 is normal ordering, lam = 1/2 the Groenewold-Moyal form.
* ``apply_equivalence_map``: exp(lam*hbar*d_a*d_abar), the transition
  operator realizing the equivalence of *_lam with the normal product.

Coefficients are stored internally as Gaussian integers over one common
positive denominator, so the convolution loops run on machine/big ints; the
exact rational view is recovered through ``coefficient``.
"""

from __future__ import annotations

import math
from random import Random

from .backend import Q, ZERO, is_rational, qfact
from .gauss import GaussScalar, format_gauss, parse_gauss
from .params import as_lambda
from .poly import Poly


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _normalize(terms: dict, den: int):
    clean = {k: v for k, v in terms.items() if v[0] or v[1]}
    if not clean:
        return {}, 1
    g = den
    for re, im in clean.values():
        g = math.gcd(g, re)
        g = math.gcd(g, im)
        if g == 1:
            break
    if g > 1:
        clean = {k: (re // g, im // g) for k, (re, im) in clean.items()}
        den //= g
    return clean, den


def _scalar_parts(c):
    """(re_num, im_num, den) for an int / rational / GaussScalar."""
    if isinstance(c, GaussScalar):
        d = _lcm(c.re.denominator, c.im.denominator)
        return (
            c.re.numerator * (d // c.re.denominator),
            c.im.numerator * (d // c.im.denominator),
            d,
        )
    q = Q(c)
    return q.numerator, 0, q.denominator


class PhasePoly:
    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        terms, den = _normalize(dict(terms or {}), den)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("PhasePoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def build(cls, mapping) -> "PhasePoly":
        """From {(i, j): coeff} or {(i, j, d): coeff}; coeff may be a scalar,
        a GaussScalar, or an hbar-polynomial given as a Poly/coefficient list."""
        acc: dict = {}
        den = 1
        for key, coeff in mapping.items():
            if len(key) == 2:
                i, j = key
                d0 = 0
            else:
                i, j, d0 = key
            if isinstance(coeff, Poly):
                coeff = list(coeff.coeffs)
            if not isinstance(coeff, (list, tuple)):
                coeff = [coeff]
            for dd, c in enumerate(coeff):
                re, im, cd = _scalar_parts(c)
                if not re and not im:
                    continue
                if cd != den:
                    new = _lcm(den, cd)
                    if new != den:
                        f = new // den
                        acc = {k: (r * f, m * f) for k, (r, m) in acc.items()}
                        den = new
                    re *= den // cd
                    im *= den // cd
                k = (i, j, d0 + dd)
                r0, m0 = acc.get(k, (0, 0))
                acc[k] = (r0 + re, m0 + im)
        return cls(acc, den)

    @classmethod
    def zero(cls) -> "PhasePoly":
        return cls()

    @classmethod
    def one(cls) -> "PhasePoly":
        return cls({(0, 0, 0): (1, 0)})

    @classmethod
    def scalar(cls, c) -> "PhasePoly":
        return cls.build({(0, 0): c})

    @classmethod
    def a(cls) -> "PhasePoly":
        return cls({(1, 0, 0): (1, 0)})

    @classmethod
    def abar(cls) -> "PhasePoly":
        return cls({(0, 1, 0): (1, 0)})

    @classmethod
    def hbar(cls) -> "PhasePoly":
        return cls({(0, 0, 1): (1, 0)})

    @classmethod
    def position(cls) -> "PhasePoly":
        """q = (a + abar)/2 in the normalized holomorphic substitution."""
        return cls({(1, 0, 0): (1, 0), (0, 1, 0): (1, 0)}, den=2)

    @classmethod
    def momentum(cls) -> "PhasePoly":
        """p = -i(a - abar)."""
        return cls({(1, 0, 0): (0, -1), (0, 1, 0): (0, 1)})

    # -- views -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def deg_a(self) -> int:
        return max((i for i, _, _ in self.terms), default=-1)

    @property
    def deg_abar(self) -> int:
        return max((j for _, j, _ in self.terms), default=-1)

    @property
    def hbar_degree(self) -> int:
        return max((d for _, _, d in self.terms), default=-1)

    def coefficient(self, i: int, j: int) -> Poly:
        """The hbar-polynomial carried by a^i abar^j, over GaussScalar."""
        ds = {d: v for (ii, jj, d), v in self.terms.items() if ii == i and jj == j}
        if not ds:
            return Poly()
        out = []
        for d in range(max(ds) + 1):
            re, im = ds.get(d, (0, 0))
            out.append(GaussScalar(Q(re, self.den), Q(im, self.den)))
        return Poly(out)

    def hbar_coefficient(self, k: int) -> "PhasePoly":
        """Coefficient of hbar^k, as an hbar-free PhasePoly."""
        sub = {
            (i, j, 0): v for (i, j, d), v in self.terms.items() if d == k
        }
        return PhasePoly(sub, self.den)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_phase(other)
        if other is NotImplemented:
            return NotImplemented
        den = _lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        acc = {k: (re * f1, im * f1) for k, (re, im) in self.terms.items()}
        for k, (re, im) in other.terms.items():
            r0, m0 = acc.get(k, (0, 0))
            acc[k] = (r0 + re * f2, m0 + im * f2)
        return PhasePoly(acc, den)

    __radd__ = __add__

    def __neg__(self):
        return PhasePoly(
            {k: (-re, -im) for k, (re, im) in self.terms.items()}, self.den
        )

    def __sub__(self, other):
        other = _as_phase(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_phase(other) - self

    def __mul__(self, other):
        """Pointwise (commutative, hbar -> 0 limit) product or scalar scale."""
        if isinstance(other, PhasePoly):
            acc: dict = {}
            for (i1, j1, d1), (re1, im1) in self.terms.items():
                for (i2, j2, d2), (re2, im2) in other.terms.items():
                    key = (i1 + i2, j1 + j2, d1 + d2)
                    if im1 or im2:
                        re = re1 * re2 - im1 * im2
                        im = re1 * im2 + im1 * re2
                    else:
                        re = re1 * re2
                        im = 0
                    r0, m0 = acc.get(key, (0, 0))
                    acc[key] = (r0 + re, m0 + im)
            return PhasePoly(acc, self.den * other.den)
        re, im, cd = _scalar_parts(other)
        acc = {}
        for k, (r, m) in self.terms.items():
            if im:
                acc[k] = (r * re - m * im, r * im + m * re)
            else:
                acc[k] = (r * re, m * re)
        return PhasePoly(acc, self.den * cd)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out, base = PhasePoly.one(), self
        if n < 0:
            raise ValueError("negative power")
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = _as_phase(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def diff_a(self) -> "PhasePoly":
        return PhasePoly(_diff_a(self.terms), self.den)

    def diff_abar(self) -> "PhasePoly":
        return PhasePoly(_diff_abar(self.terms), self.den)

    # -- radial view ---------------------------------------------------------

    @property
    def is_radial(self) -> bool:
        return all(i == j for i, j, _ in self.terms)

    def radial_series(self, kx: int = 32, ky: int = 32):
        """For radial real elements: the exact polynomial in (s, hbar) with
        s = a*abar, returned as a BiSeries keyed (s-power, hbar-power)."""
        from .biseries import BiSeries

        coeffs = {}
        for (i, j, d), (re, im) in self.terms.items():
            if i != j:
                raise ValueError("not a radial element")
            if im:
                raise ValueError("not a real radial element")
            coeffs[(i, d)] = coeffs.get((i, d), ZERO) + Q(re, self.den)
        return BiSeries(coeffs, kx, ky)

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        by_ij: dict = {}
        for (i, j, d), (re, im) in self.terms.items():
            by_ij.setdefault((i, j), {})[d] = GaussScalar(
                Q(re, self.den), Q(im, self.den)
            )
        out = []
        for (i, j) in sorted(by_ij):
            ds = by_ij[(i, j)]
            top = max(ds)
            out.append(
                {
                    "a": i,
                    "abar": j,
                    "coeff": [
                        format_gauss(ds.get(d, GaussScalar(0))) for d in range(top + 1)
                    ],
                }
            )
        return {"terms": out}

    @classmethod
    def from_json_obj(cls, obj) -> "PhasePoly":
        mapping = {}
        for t in obj["terms"]:
            mapping[(t["a"], t["abar"])] = [parse_gauss(s) for s in t["coeff"]]
        return cls.build(mapping)

    def __repr__(self):
        if self.is_zero:
            return "PhasePoly(0)"
        bits = []
        for (i, j, d) in sorted(self.terms):
            re, im = self.terms[(i, j, d)]
            c = GaussScalar(Q(re, self.den), Q(im, self.den))
            mono = "".join(
                [f"a^{i}" if i else "", f"ab^{j}" if j else "", f"h^{d}" if d else ""]
            )
            bits.append(f"({format_gauss(c)}){mono}")
        return "PhasePoly(" + " + ".join(bits) + ")"


def _as_phase(x):
    if isinstance(x, PhasePoly):
        return x
    if is_rational(x) or isinstance(x, GaussScalar):
        return PhasePoly.build({(0, 0): x})
    return NotImplemented


def _diff_a(terms: dict) -> dict:
    return {
        (i - 1, j, d): (i * re, i * im)
        for (i, j, d), (re, im) in terms.items()
        if i
    }


def _diff_abar(terms: dict) -> dict:
    return {
        (i, j - 1, d): (j * re, j * im)
        for (i, j, d), (re, im) in terms.items()
        if j
    }


def _deriv_table(terms: dict, first, second, max_first: int, max_second: int):
    """table[(r, s)] = second^s(first^r(terms)); empty dicts are pruned later."""
    table = {(0, 0): terms}
    cur = terms
    for r in range(1, max_first + 1):
        cur = first(cur)
        if not cur:
            break
        table[(r, 0)] = cur
    for r in range(0, max_first + 1):
        base = table.get((r, 0))
        if base is None:
            break
        cur = base
        for s in range(1, max_second + 1):
            cur = second(cur)
            if not cur:
                break
            table[(r, s)] = cur
    return table


def star(f: PhasePoly, g: PhasePoly, lam) -> PhasePoly:
    """The deformed product f *_lam g, expanded exactly (always terminates)."""
    lam = as_lambda(lam)
    one_minus = Q(1) - lam
    r_max = min(f.deg_a, g.deg_abar)
    s_max = min(f.deg_abar, g.deg_a)
    fd = _deriv_table(f.terms, _diff_a, _diff_abar, max(r_max, 0), max(s_max, 0))
    gd = _deriv_table(g.terms, _diff_abar, _diff_a, max(r_max, 0), max(s_max, 0))

    # scale factors (1-lam)^r (-lam)^s / (r! s!), with one shared denominator
    # so the accumulation below runs on integers only
    pairs = []
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            if (r, s) in fd and (r, s) in gd:
                c = one_minus**r * (-lam) ** s / (qfact(r) * qfact(s))
                pairs.append((r, s, c))
    L = 1
    for _, _, c in pairs:
        L = _lcm(L, c.denominator)

    acc: dict = {}
    for r, s, c in pairs:
        m = c.numerator * (L // c.denominator)
        if not m:
            continue
        shift = r + s
        for (i1, j1, d1), (re1, im1) in fd[(r, s)].items():
            for (i2, j2, d2), (re2, im2) in gd[(r, s)].items():
                key = (i1 + i2, j1 + j2, d1 + d2 + shift)
                if im1 or im2:
                    re = (re1 * re2 - im1 * im2) * m
                    im = (re1 * im2 + im1 * re2) * m
                else:
                    re = re1 * re2 * m
                    im = 0
                cur = acc.get(key)
                if cur is None:
                    acc[key] = (re, im)
                else:
                    acc[key] = (cur[0] + re, cur[1] + im)
    return PhasePoly(acc, f.den * g.den * L)


def star_commutator(f: PhasePoly, g: PhasePoly, lam) -> PhasePoly:
    return star(f, g, lam) - star(g, f, lam)


def apply_equivalence_map(f: PhasePoly, lam, inverse: bool = False) -> PhasePoly:
    """exp(+-lam * hbar * d_a d_abar) applied to f (finite exact expansion)."""
    lam = as_lambda(lam)
    if inverse:
        lam = -lam
    m_max = min(f.deg_a, f.deg_abar)
    out = f
    cur = f.terms
    den = f.den
    for m in range(1, m_max + 1):
        cur = _diff_a(_diff_abar(cur))
        if not cur:
            break
        c = lam**m / qfact(m)
        shifted = {
            (i, j, d + m): (re * c.numerator, im * c.numerator)
            for (i, j, d), (re, im) in cur.items()
        }
        out = out + PhasePoly(shifted, den * c.denominator)
    return out


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """d_a f d_abar g - d_abar f d_a g (the first-order commutator, any lam)."""
    return f.diff_a() * g.diff_abar() - f.diff_abar() * g.diff_a()


def check_equivalence(f: PhasePoly, g: PhasePoly, lam) -> bool:
    """star_lam equals the transition-conjugated normal product, exactly."""
    lhs = star(f, g, lam)
    tf = apply_equivalence_map(f, lam)
    tg = apply_equivalence_map(g, lam)
    rhs = apply_equivalence_map(star(tf, tg, 0), lam, inverse=True)
    return lhs == rhs


def check_associativity(f: PhasePoly, g: PhasePoly, h: PhasePoly, lam) -> bool:
    return star(star(f, g, lam), h, lam) == star(f, star(g, h, lam), lam)


def hamiltonian(omega=Q(1)) -> PhasePoly:
    """H = omega * a * abar."""
    w = Q(omega)
    return PhasePoly({(1, 1, 0): (w.numerator, 0)}, w.denominator)


def random_phase_poly(
    rng: Random,
    max_total_degree: int = 4,
    coeff_lo: int = -3,
    coeff_hi: int = 3,
    gauss: bool = False,
) -> PhasePoly:
    """Random polynomial with small integer coefficients, reproducible by seed."""
    terms = {}
    for i in range(max_total_degree + 1):
        for j in range(max_total_degree + 1 - i):
            re = rng.randint(coeff_lo, coeff_hi)
            im = rng.randint(coeff_lo, coeff_hi) if gauss else 0
            if re or im:
                terms[(i, j, 0)] = (re, im)
    return PhasePoly(terms, 1)
