"""Parameter validation: lambda ranges, sizes, and oscillator constants."""

from __future__ import annotations

from dataclasses import dataclass

from .backend import ONE, Q, is_rational, rational_str
from .errors import DomainError


def _coerce(x):
    if isinstance(x, str) or is_rational(x):
        return Q(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_lambda(x, *, lo=Q(0), hi=ONE, lo_open=False, hi_open=True):
    """Coerce to an exact rational lambda and validate its range."""
    v = _coerce(x)
    if (v < lo or (lo_open and v == lo)) or (v > hi or (hi_open and v == hi)):
        left = "(" if lo_open else "["
        right = ")" if hi_open else "]"
        raise DomainError(
            f"lambda={rational_str(v)} outside {left}{rational_str(lo)}, "
            f"{rational_str(hi)}{right}"
        )
    return v


def nonneg_int(name: str, value: int) -> int:
    """Validate a size or count argument: it must be an integer >= 0."""
    if value < 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Oscillator constants: positive rational hbar and omega (defaults 1)."""

    hbar: object = ONE
    omega: object = ONE

    def __post_init__(self):
        for name in ("hbar", "omega"):
            v = _coerce(getattr(self, name))
            if v <= 0:
                raise DomainError(f"{name} must be positive")
            object.__setattr__(self, name, v)

    @property
    def dimensionless(self) -> bool:
        return self.hbar == 1 and self.omega == 1
