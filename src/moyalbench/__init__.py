"""Exact-arithmetic workbench for the lambda-family of deformed products of
the simple harmonic oscillator: star products on phase-space polynomials,
spectral projectors and their Laguerre identities, observable energy
distributions, and the uncertainty comparison that singles out the
Groenewold-Moyal form lambda = 1/2.

All identities are verified in exact rational arithmetic; floats appear only
at output boundaries (standard deviations, quadrature, plotting tables).
"""

from .backend import BACKEND, Q, rational_str
from .biseries import BiSeries
from .errors import (
    AccuracyError,
    ConditionalConvergenceWarning,
    DomainError,
    IntegrabilityError,
    MoyalBenchError,
    PoleError,
)
from .exppoly import ExpPoly, exp_integral, mu_times
from .laguerre import (
    basis_matrix,
    binomial_tail_identity,
    gamma_moment,
    generating_function_check,
    laguerre,
    mixed_orthogonality,
    moment_integral,
    verify_projector_series_identity,
)
from .observables import (
    CoefficientVector,
    DiracDelta,
    Distribution,
    ObservabilityVerdict,
    basic_distribution,
    basis_inversion,
    binomial_weights,
    duality_check,
    duality_gram,
    fourier_laguerre,
    is_observable,
    negativity_search,
    reconstruct_pure_state,
)
from .params import ModelParams
from .phase import (
    PhasePoly,
    apply_equivalence_map,
    check_associativity,
    check_equivalence,
    hamiltonian,
    poisson_bracket,
    random_phase_poly,
    star,
    star_commutator,
)
from .poly import Poly
from .quadrature import QuadResult, integrate_decay
from .spectral import (
    Projector,
    SpectrumEntry,
    StarExpEval,
    energy_identity_gap,
    partition_of_unity,
    projector_closed,
    projector_negative_witness,
    projector_series_eval,
    radial_star_apply,
    spectrum,
    star_exp_closed,
    star_exp_series,
    verify_radial_pde,
)
from .uncertainty import (
    MomentReport,
    ScanResult,
    classical_moments,
    default_lambda_grid,
    gm_asymptotics,
    moment_report,
    quantum_moments,
    scan_lambda,
    selection_inequality,
    star_square_cross_check,
    threshold_k,
    uncertainty_gap,
)
from .verify import SuiteReport, run_suite

__version__ = "0.1.0"
