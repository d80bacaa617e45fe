"""Gaussian rationals as strings: the text form of PhasePoly's coefficients.

A coefficient is the triple of ints (re, im, den), meaning (re + im*i)/den,
the form PhasePoly stores.  ``format_gauss`` prints a triple and
``parse_gauss`` reads one back; there is no arithmetic here.
"""

from __future__ import annotations

import math

from .backend import Q, rational_str


def format_gauss(re: int, im: int, den: int) -> str:
    """Canonical string: "p/q", "p/qi", "a+bi", "a-bi"; unit imag as "i"."""
    r, m = rational_str(Q(re, den)), rational_str(Q(im, den))
    if not im:
        return r
    m = (m[:-1] if m in ("1", "-1") else m) + "i"
    if not re:
        return m
    return r + ("" if m.startswith("-") else "+") + m


def parse_gauss(s: str) -> tuple:
    """Inverse of :func:`format_gauss`: the reduced triple (re, im, den)."""
    t = s.strip().replace(" ", "")
    if not t:
        raise ValueError("empty Gaussian rational string")
    re, im = t, "0"
    if t.endswith("i"):
        body = t[:-1]
        # split the imaginary tail off at the last +/- that is not the leading sign
        cut = next(
            (k for k in range(len(body) - 1, 0, -1)
             if body[k] in "+-" and body[k - 1] not in "+-/"),
            0,
        )
        re, im = body[:cut] or "0", body[cut:]
        if im in ("", "+", "-"):
            im += "1"
    r, m = Q(re), Q(im)
    den = math.lcm(r.denominator, m.denominator)
    return r.numerator * (den // r.denominator), m.numerator * (den // m.denominator), den
