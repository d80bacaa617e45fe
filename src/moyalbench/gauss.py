"""Gaussian rationals: exact complex numbers with rational real/imag parts.

A GaussScalar is an input/output value: PhasePoly takes coefficients in
this form and prints and serializes them this way, while its arithmetic
runs on Gaussian integers over one denominator.
"""

from __future__ import annotations

from .backend import Q, is_rational, rational_str


class GaussScalar:
    """Immutable a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Q(re))
        object.__setattr__(self, "im", Q(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussScalar is immutable")

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

    def __repr__(self):
        return f"GaussScalar({self})"

    def __str__(self):
        return format_gauss(self)


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
