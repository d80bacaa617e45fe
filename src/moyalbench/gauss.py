"""Gaussian rationals as strings: the text form of PhasePoly's coefficients.

A coefficient is the triple of ints (re, im, den), meaning (re + im*i)/den,
the form PhasePoly stores.  ``format_gauss`` prints a triple for
``PhasePoly.__repr__``; there is no arithmetic here.
"""

from __future__ import annotations

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
