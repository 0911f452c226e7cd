"""Pseudospectral simulation and verification lab for the
Benjamin-Ono-Zakharov-Kuznetsov equation

    u_t + H u_xx + u_xyy + u u_x = 0

on a periodic 2-D box, with the parabolically regularised variant
(+ mu Lap u), weighted-Sobolev diagnostics, and numeric exhibits of its
conservation laws, decay-persistence thresholds, and the Fourier-side
unique-continuation obstruction.
"""

from .grid import (
    Grid2D,
    RealField,
    SpectrumField,
    apply_multiplier,
    dealias,
    forward,
    inverse,
    make_grid,
)
from .operators import (
    dispersion,
    fractional_op,
    hilbert_x,
    propagate,
    smoothing_ratio,
)
from .weights import WeightSpec, a2_statistic, beta, beta_audit, weight_field
from .stein import (
    RefinementReport,
    SteinConfig,
    SteinResult,
    mixed_phase_bound,
    phase_bound,
    refine_divergence,
    stein_derivative,
)
from .solver import (
    PicardDivergence,
    PicardResult,
    RunDiagnostics,
    RunResult,
    SolverAbort,
    SolverConfig,
    TimeSeries,
    nonlinear_rhs,
    picard_solve,
    run,
)
from .diagnostics import (
    ConservationReport,
    NormSpec,
    algebra_ratio,
    commutator_ratio,
    conservation_report,
    half_derivative_commutator_ratio,
    interpolation_ratio,
    norm,
    trilinear_ratio,
)
from .uc import (
    CutoffSpec,
    DomainGrowthReport,
    MomentDrift,
    PersistenceTable,
    UCReport,
    b1_indicator,
    domain_growth_study,
    moment_drift,
    obstruction_density,
    persistence_scan,
)
from . import fields

__version__ = "0.1.0"
