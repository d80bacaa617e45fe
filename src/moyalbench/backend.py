"""Exact rational scalars.

Every identity in this package is checked in exact arithmetic, and the whole
workbench runs on one rational number type: ``fractions.Fraction``.  Its
numerators and denominators are plain Python ints, so code that needs the
integer parts reads ``.numerator``/``.denominator`` directly.  ``BACKEND``
names that type for reports and result files.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "fraction"


def Q(numerator=0, denominator=None):
    """Build an exact rational.  Accepts ints, rationals, and "p/q" strings.

    Floats are rejected: they would smuggle rounding into exact identities.
    """
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise TypeError("exact rationals cannot be built from floats")
    if isinstance(numerator, str):
        numerator = numerator.strip().removeprefix("+")
    return Fraction(numerator, denominator)


ZERO = Q(0)
ONE = Q(1)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def rational_str(x) -> str:
    """Canonical "p/q" (or "p" when q == 1) form."""
    n, d = x.numerator, x.denominator
    return f"{n}" if d == 1 else f"{n}/{d}"


def qbinom(n: int, k: int):
    return Q(math.comb(n, k)) if 0 <= k <= n else ZERO


def qfact(n: int):
    return Q(math.factorial(n))


def rceil(x) -> int:
    """Exact ceiling of a rational."""
    return -((-x.numerator) // x.denominator)
