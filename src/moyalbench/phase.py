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

Coefficients are stored as Gaussian integers over one common positive
denominator; ``repr``, the one text form, prints them with ``gauss``.

``star`` and the pointwise ``*`` share one integer kernel (``_star``;
``*`` is its (r, s) = (0, 0) case).  With lam = p/q the (r, s) factor is
(q-p)^r (-p)^s / (q^(r+s) r! s!).  The 1/(r! s!) goes to f's side as
binomials C(i, r) C(j, s) and g's side carries falling factorials, so every
coefficient is an int; the rows of all (r, s) are built in one pass over
each factor.  Exponents are flattened to one key (d*I + i)*J + j, so an
exponent sum and the hbar^(r+s) shift are single integer additions into one
dense list.  Each weight is scaled by q^(T-r-s), T the largest r+s used, and
the result's denominator is f.den * g.den * q^T.  Gaussian coefficients are
packed as re + im*2^w with w wide enough for every accumulated part, so one
int product per pair of terms serves real and Gaussian inputs alike.

``star`` and ``apply_equivalence_map`` read lam = p/q and call the cores
``_star(f, g, p, q)`` and ``_equivalence(f, p, q)``, which take any int p.
At q = 1 every weight is an int polynomial in p, so on int inputs each
coefficient of a result is the value at L = p of an int polynomial in L.
``verify``'s star check evaluates both identities once, at an L = X larger
than twice a bound on those polynomials' coefficients, which decides them
for every lam, and ties ``star`` to the digits of the result at sampled lam.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from random import Random

from .backend import Q, content_gcd, is_rational
from .errors import DomainError
from .gauss import format_gauss
from .params import as_lambda, nonneg_int


def _poly(terms: dict, den: int) -> "PhasePoly":
    """The canonical PhasePoly of trusted parts (int pairs at keys of
    nonnegative ints, over an int den > 0): every arithmetic result."""
    clean = {k: v for k, v in terms.items() if v[0] or v[1]}
    g = content_gcd(den, chain.from_iterable(clean.values()))
    if g > 1:
        clean = {k: (re // g, im // g) for k, (re, im) in clean.items()}
    out = object.__new__(PhasePoly)
    object.__setattr__(out, "terms", clean)
    object.__setattr__(out, "den", den // g)
    return out


class PhasePoly:
    __slots__ = ("terms", "den")

    def __new__(cls, terms=None, den: int = 1):
        """From {(i, j, d): (re, im)}: (re + im*i)/den times a^i abar^j hbar^d,
        with int parts, nonnegative int exponents and an int den > 0.  A zero
        coefficient is dropped before its key is looked at."""
        if type(den) is not int or den <= 0:
            raise DomainError(f"denominator must be positive and an integer, got {den!r}")
        terms = dict(terms or {})
        for key, v in terms.items():
            if not (type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)):
                raise DomainError(f"coefficient must be a pair of ints (re, im), got {v!r}")
            if v[0] or v[1]:
                if not (type(key) is tuple and len(key) == 3):
                    raise DomainError(f"exponent key must be (i, j, d), got {key!r}")
                for e in key:
                    nonneg_int("exponent", e)
        return _poly(terms, den)

    def __setattr__(self, *_):
        raise AttributeError("PhasePoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def build(cls, mapping) -> "PhasePoly":
        """From {(i, j): c} or {(i, j, d): c} with rational c, over the one
        lcm of their denominators."""
        parts = []
        for key, c in mapping.items():
            if not (type(key) is tuple and len(key) in (2, 3)):
                raise DomainError(f"exponent key must be (i, j) or (i, j, d), got {key!r}")
            parts.append((key if len(key) == 3 else (*key, 0), Q(c)))
        den = math.lcm(*(c.denominator for _, c in parts))
        acc: dict = {}
        for key, c in parts:
            acc[key] = acc.get(key, 0) + c.numerator * (den // c.denominator)
        return cls({key: (re, 0) for key, re in acc.items()}, den)

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

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_phase(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        acc = {k: (re * f1, im * f1) for k, (re, im) in self.terms.items()}
        for k, (re, im) in other.terms.items():
            r0, m0 = acc.get(k, (0, 0))
            acc[k] = (r0 + re * f2, m0 + im * f2)
        return _poly(acc, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: (-re, -im) for k, (re, im) in self.terms.items()}, self.den)

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
            return _star(self, other, 0, 1, pointwise=True)
        c = Q(other)
        n = c.numerator
        acc = {k: (re * n, im * n) for k, (re, im) in self.terms.items()}
        return _poly(acc, self.den * c.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        nonneg_int("power", n)
        out, base = PhasePoly.one(), self
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
        return _poly({(i - 1, j, d): (i * re, i * im)
                      for (i, j, d), (re, im) in self.terms.items() if i}, self.den)

    def diff_abar(self) -> "PhasePoly":
        return _poly({(i, j - 1, d): (j * re, j * im)
                      for (i, j, d), (re, im) in self.terms.items() if j}, self.den)

    # -- radial view ---------------------------------------------------------

    @property
    def is_radial(self) -> bool:
        return all(i == j for i, j, _ in self.terms)

    def __repr__(self):
        if self.is_zero:
            return "PhasePoly(0)"
        bits = []
        for (i, j, d), (re, im) in sorted(self.terms.items()):
            mono = "".join(
                [f"a^{i}" if i else "", f"ab^{j}" if j else "", f"h^{d}" if d else ""]
            )
            bits.append(f"({format_gauss(re, im, self.den)}){mono}")
        return "PhasePoly(" + " + ".join(bits) + ")"


def _as_phase(x):
    if isinstance(x, PhasePoly):
        return x
    if is_rational(x):
        return PhasePoly.scalar(x)
    return NotImplemented


@functools.lru_cache(maxsize=64)
def _factor_table(n: int, left: bool):
    """t[m][k] = C(m, k) (left) or m!/(m-k)! (right) for 0 <= k <= m <= n."""
    fn = math.comb if left else math.perm
    return tuple(tuple(fn(m, k) for k in range(m + 1)) for m in range(n + 1))


def _rows(terms: dict, r_max: int, s_max: int, I: int, J: int, left: bool, top: int):
    """The (r, s) derivative rows of one factor, built in one pass.

    rows[r][s] lists (key, re, im) with key = (d*I + i)*J + j flattened from
    the surviving exponents.  The left factor gets d_a^r d_abar^s divided by
    r! s!, i.e. binomials C(i, r) C(j, s); the right factor gets d_abar^r d_a^s
    as falling factorials l^(r) k^(s), so every coefficient stays an int.
    top is the factor's largest exponent of a or abar.
    """
    rows = [[[] for _ in range(s_max + 1)] for _ in range(r_max + 1)]
    tab = _factor_table(top, left)
    for (i, j, d), (re, im) in terms.items():
        # left: r lowers i, s lowers j; right: r lowers j, s lowers i
        a, b = (i, j) if left else (j, i)
        ta, tb = tab[a], tab[b]
        key0 = (d * I + i) * J + j
        da, db = (J, 1) if left else (1, J)
        for r in range(min(a, r_max) + 1):
            row = rows[r]
            ma, ka = ta[r], key0 - r * da
            for s in range(min(b, s_max) + 1):
                m = ma * tb[s]
                row[s].append((ka - s * db, re * m, im * m))
    return rows


def _packed(row: list, width):
    """(key, coeff) pairs; with a width, coeff = re + im * 2^width."""
    if width is None:
        return [(k, re) for k, re, _ in row]
    return [(k, re + (im << width)) for k, re, im in row]


def _unpacked(v: int, width) -> tuple:
    """(re, im) of an accumulated A + C 2^width + E 2^(2 width): (A - E, C).

    A, C and E are read as balanced base-2^width digits, low first; each
    lies within 2^(width-1), which is what ``_star`` sizes width for.
    """
    if width is None:
        return v, 0
    digits = []
    for _ in range(2):
        low = v & ((1 << width) - 1)
        if low >> (width - 1):
            low -= 1 << width
        digits.append(low)
        v = (v - low) >> width
    return digits[0] - v, digits[1]


def _star(f: "PhasePoly", g: "PhasePoly", p: int, q: int, pointwise: bool = False):
    """f *_(p/q) g for any int p and int q > 0; with pointwise, f * g.

    The sum over (r, s) of hbar^(r+s) w_rs (left row rs of f)(right row rs
    of g), with w_rs = (q-p)^r (-p)^s / q^(r+s); pointwise keeps (r, s) =
    (0, 0) alone.  Each weight is scaled by q^T (T the largest r+s used) so
    that the accumulation runs on ints and the result's denominator is
    f.den * g.den * q^T.  At q = 1 every weight is an int polynomial in p.
    """
    if not f.terms or not g.terms:
        return _poly({}, 1)
    fa, fb, fd = f.deg_a, f.deg_abar, f.hbar_degree  # each scan once per call
    ga, gb, gd = g.deg_a, g.deg_abar, g.hbar_degree
    r_max = 0 if pointwise else min(fa, gb)
    s_max = 0 if pointwise or not p else min(fb, ga)
    I = fa + ga + 1
    J = fb + gb + 1
    IJ = I * J
    fr = _rows(f.terms, r_max, s_max, I, J, True, max(fa, fb))
    gr = _rows(g.terms, r_max, s_max, I, J, False, max(ga, gb))
    pairs = [
        (r, s, fr[r][s], gr[r][s])
        for r in range(r_max + 1)
        for s in range(s_max + 1)
        if fr[r][s] and gr[r][s]
    ]
    T = max(r + s for r, s, _, _ in pairs)
    weights = [(q - p) ** r * (-p) ** s * q ** (T - r - s) for r, s, _, _ in pairs]
    width = None
    if any(im for _, im in f.terms.values()) or any(im for _, im in g.terms.values()):
        # Gaussian coefficients are packed as re + im*2^width, so one product
        # gives re1 re2 + (re1 im2 + im1 re2) 2^width + im1 im2 2^(2 width);
        # bound caps each accumulated part, whatever its sign
        bound = 0
        for w, (_, _, a, b) in zip(weights, pairs):
            mass_a = sum(abs(re) + abs(im) for _, re, im in a)
            mass_b = sum(abs(re) + abs(im) for _, re, im in b)
            bound += abs(w) * mass_a * mass_b
        width = bound.bit_length() + 2
    # one dense accumulator; key (d*I + i)*J + j, so hbar^(r+s) is a shift
    acc = [0] * ((fd + gd + T + 1) * IJ)
    for w, (r, s, a, b) in zip(weights, pairs):
        shift = (r + s) * IJ
        inner = _packed(b, width)
        for k0, c0 in _packed(a, width):
            k0 += shift
            c0 *= w
            for k, c in inner:
                acc[k0 + k] += c0 * c
    terms = {}
    for k, v in enumerate(acc):
        if v:
            d, rem = divmod(k, IJ)
            i, j = divmod(rem, J)
            terms[(i, j, d)] = _unpacked(v, width)
    return _poly(terms, f.den * g.den * q**T)


def star(f: PhasePoly, g: PhasePoly, lam) -> PhasePoly:
    """The deformed product f *_lam g, expanded exactly (always terminates)."""
    lam = as_lambda(lam)
    return _star(f, g, lam.numerator, lam.denominator)


def star_commutator(f: PhasePoly, g: PhasePoly, lam) -> PhasePoly:
    return star(f, g, lam) - star(g, f, lam)


def apply_equivalence_map(f: PhasePoly, lam, inverse: bool = False) -> PhasePoly:
    """exp(+-lam * hbar * d_a d_abar) applied to f (finite exact expansion)."""
    lam = as_lambda(lam)
    p = -lam.numerator if inverse else lam.numerator
    return _equivalence(f, p, lam.denominator)


def _equivalence(f: PhasePoly, p: int, q: int) -> PhasePoly:
    """exp((p/q) hbar d_a d_abar) applied to f, for any int p and int q > 0.

    Order m sends a^i abar^j hbar^d to C(i,m) C(j,m) m! (p/q)^m a^(i-m)
    abar^(j-m) hbar^(d+m), an int weight over f.den q^top.  It shares no
    code with ``_star``, so ``check_equivalence`` has two sides.
    """
    top = max((min(i, j) for i, j, _ in f.terms), default=0)
    powers = [p**m * q ** (top - m) for m in range(top + 1)]
    acc: dict = {}
    for (i, j, d), (re, im) in f.terms.items():
        for m in range(min(i, j) + 1):
            w = math.comb(i, m) * math.comb(j, m) * math.factorial(m) * powers[m]
            key = (i - m, j - m, d + m)
            r0, m0 = acc.get(key, (0, 0))
            acc[key] = (r0 + re * w, m0 + im * w)
    return _poly(acc, f.den * q**top)


def check_equivalence(f: PhasePoly, g: PhasePoly, lam) -> bool:
    """star_lam equals the transition-conjugated normal product, exactly."""
    lhs = star(f, g, lam)
    tf = apply_equivalence_map(f, lam)
    tg = apply_equivalence_map(g, lam)
    rhs = apply_equivalence_map(star(tf, tg, 0), lam, inverse=True)
    return lhs == rhs


def check_associativity(f: PhasePoly, g: PhasePoly, h: PhasePoly, lam) -> bool:
    return star(star(f, g, lam), h, lam) == star(f, star(g, h, lam), lam)


def hamiltonian() -> PhasePoly:
    """H = a * abar, in units of omega."""
    return PhasePoly({(1, 1, 0): (1, 0)}, 1)


def random_phase_poly(
    rng: Random,
    max_total_degree: int = 4,
    gauss: bool = False,
) -> PhasePoly:
    """Random polynomial with int coefficients in -3..3, reproducible by seed."""
    terms = {}
    for i in range(max_total_degree + 1):
        for j in range(max_total_degree + 1 - i):
            re = rng.randint(-3, 3)
            im = rng.randint(-3, 3) if gauss else 0
            if re or im:
                terms[(i, j, 0)] = (re, im)
    return PhasePoly(terms, 1)
