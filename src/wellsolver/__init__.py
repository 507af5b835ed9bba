"""Certified iterative ground-state solver for one-dimensional wells.

The package turns a trial wavefunction with a known modified Hamiltonian
into a convergent sequence of energy shifts and wavefunction ratios, and
certifies at runtime that the sequence obeys the ordering theorem it is
built on (monotone under the outer-edge normalization, alternating and
interleaving under the origin normalization). An analytic double square
well and an independent finite-difference eigensolver provide ground
truth at two very different levels of rigor.

Layout:

* :mod:`wellsolver.grid` - piecewise-uniform grids, Simpson-consistent
  quadrature, weighted brackets that survive 600-decade amplitude ranges;
* :mod:`wellsolver.trialgen` - trial functions for the harmonic, symmetric
  quartic, and tilted quartic families, with residual self-checks;
* :mod:`wellsolver.hierarchy` - the iteration engine and the ordering
  certification;
* :mod:`wellsolver.squarewell` - the closed-form benchmark family;
* :mod:`wellsolver.oracle` - the independent eigensolver;
* :mod:`wellsolver.cli` - the ``wellsolver`` command.
"""

from . import grid as grid
from . import hierarchy as hierarchy
from . import oracle as oracle
from . import squarewell as squarewell
from . import trialgen as trialgen
from .grid import (
    Grid,
    Samples,
    bracket,
    concat_grids,
    cumulative_from,
    integrate,
    make_grid,
    mirror_grid,
    slice_grid,
)
from .hierarchy import (
    CertificationReport,
    FullLineProblem,
    HalfLinePair,
    HalfLineStageError,
    IterateOptions,
    IterationState,
    IterationTrace,
    PairVerdict,
    certify,
    certify_shift_sequence,
    glue_full_line,
    iterate,
    iterate_full_line,
    solve_half_line_pair,
)
from .oracle import (
    EigensolveError,
    OracleResult,
    RefinementLevel,
    RefinementReport,
    fd_ground_state,
    fd_levels,
)
from .squarewell import (
    PolyIterate,
    RegimeError,
    RegionSolution,
    SquareWellModel,
    TwoLevelModel,
    asymptotic_delta_residual,
    build_squarewell_problem,
    closed_form_overlaps,
    exact_shift,
    exact_v,
    exact_v_series,
    first_iteration_energy,
    greens_function,
    ground_state_values,
    iterate_squarewell,
    overlap_integrals,
    poly_iterates,
    potential_samples,
    region_solution_n1,
    series_coefficients,
    solve_asymmetric,
    solve_even_well,
    squarewell_grid,
    theta_asymptotic,
    trial_log_samples,
    trial_values,
    two_level,
    two_level_from_model,
    wronskian_overlap_residuals,
)
from .trialgen import (
    ResidualReport,
    TrialFunction,
    build_asymmetric_quartic_trial,
    build_harmonic_trial,
    build_symmetric_quartic_trial,
    default_truncation,
    quartic_grid,
    residual_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "Grid",
    "Samples",
    "bracket",
    "concat_grids",
    "cumulative_from",
    "integrate",
    "make_grid",
    "mirror_grid",
    "slice_grid",
    # hierarchy
    "CertificationReport",
    "FullLineProblem",
    "HalfLinePair",
    "HalfLineStageError",
    "IterateOptions",
    "IterationState",
    "IterationTrace",
    "PairVerdict",
    "certify",
    "certify_shift_sequence",
    "glue_full_line",
    "iterate",
    "iterate_full_line",
    "solve_half_line_pair",
    # oracle
    "EigensolveError",
    "OracleResult",
    "RefinementLevel",
    "RefinementReport",
    "fd_ground_state",
    "fd_levels",
    # squarewell
    "PolyIterate",
    "RegimeError",
    "RegionSolution",
    "SquareWellModel",
    "TwoLevelModel",
    "asymptotic_delta_residual",
    "build_squarewell_problem",
    "closed_form_overlaps",
    "exact_shift",
    "exact_v",
    "exact_v_series",
    "first_iteration_energy",
    "greens_function",
    "ground_state_values",
    "iterate_squarewell",
    "overlap_integrals",
    "poly_iterates",
    "potential_samples",
    "region_solution_n1",
    "series_coefficients",
    "solve_asymmetric",
    "solve_even_well",
    "squarewell_grid",
    "theta_asymptotic",
    "trial_log_samples",
    "trial_values",
    "two_level",
    "two_level_from_model",
    "wronskian_overlap_residuals",
    # trialgen
    "ResidualReport",
    "TrialFunction",
    "build_asymmetric_quartic_trial",
    "build_harmonic_trial",
    "build_symmetric_quartic_trial",
    "default_truncation",
    "quartic_grid",
    "residual_check",
]
