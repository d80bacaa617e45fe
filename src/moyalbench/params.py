"""Parameter validation: lambda ranges, sizes and verify suites."""

from __future__ import annotations

from .backend import ONE, Q, is_rational, rational_str
from .errors import DomainError


def _coerce(x):
    if isinstance(x, str) or is_rational(x):
        return Q(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_lambda(x, *, hi=ONE, lo_open=False, hi_open=True):
    """Coerce to an exact rational lambda and validate its range, which starts
    at 0."""
    v = _coerce(x)
    over = v.numerator * hi.denominator - hi.numerator * v.denominator  # sign of v - hi
    if v.numerator < 0 or (lo_open and not v) or over > 0 or (hi_open and not over):
        left = "(" if lo_open else "["
        right = ")" if hi_open else "]"
        raise DomainError(
            f"lambda={rational_str(v)} outside {left}0, {rational_str(hi)}{right}"
        )
    return v


# The suites `verify.run_suite` runs; `cli` offers them without importing verify.
SUITES = ("all", "exact", "numeric", "errata")


def nonneg_int(name: str, value: int) -> int:
    """Validate a size or count argument: it must be an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value

