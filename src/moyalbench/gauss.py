"""Gaussian rationals: exact complex numbers with rational real/imag parts."""

from __future__ import annotations

from .backend import Q, is_rational, rational_str


class GaussScalar:
    """Immutable a + b*i with exact rational a, b.  All field ops are exact."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Q(re))
        object.__setattr__(self, "im", Q(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussScalar is immutable")

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, GaussScalar):
            return x
        if is_rational(x):
            return cls(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussScalar(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.im and not o.im:
            return GaussScalar(self.re * o.re)
        return GaussScalar(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero GaussScalar")
        return GaussScalar(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conj(self) -> "GaussScalar":
        return GaussScalar(self.re, -self.im)

    def abs2(self):
        """|x|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussScalar):
            return self.re == other.re and self.im == other.im
        if is_rational(other):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussScalar({self})"

    def __str__(self):
        return format_gauss(self)


I = GaussScalar(0, 1)


def format_gauss(x: GaussScalar) -> str:
    """Canonical string: "p/q", "p/q i", "a+bi", "a-bi"; unit imag as "i"."""
    if not x.im:
        return rational_str(x.re)
    if x.im == 1:
        im = "i"
    elif x.im == -1:
        im = "-i"
    else:
        im = f"{rational_str(x.im)}i"
    if not x.re:
        return im
    sign = "" if im.startswith("-") else "+"
    return f"{rational_str(x.re)}{sign}{im}"


def parse_gauss(s: str) -> GaussScalar:
    """Inverse of :func:`format_gauss`."""
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty GaussScalar string")
    if not t.endswith("i"):
        return GaussScalar(Q(t))
    body = t[:-1]
    # split the imaginary tail off at the last +/- that is not the leading sign
    cut = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            cut = k
            break
    if cut == -1:
        im = body if body not in ("", "+", "-") else body + "1"
        return GaussScalar(0, Q(im))
    re_part, im_part = body[:cut], body[cut:]
    if im_part in ("+", "-"):
        im_part += "1"
    return GaussScalar(Q(re_part), Q(im_part))
