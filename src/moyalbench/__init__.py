"""Exact-arithmetic workbench for the lambda-family of deformed products of
the simple harmonic oscillator: star products on phase-space polynomials,
spectral projectors and their Laguerre identities, observable energy
distributions, and the uncertainty comparison that singles out the
Groenewold-Moyal form lambda = 1/2.

All identities are verified in exact rational arithmetic; floats appear only
at output boundaries (standard deviations, quadrature, plotting tables).

Every name is imported from the module that defines it, for example
``from moyalbench.phase import star``.
"""

from .backend import BACKEND

__version__ = "0.1.0"
