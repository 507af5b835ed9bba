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
* :mod:`wellsolver.ordering` - the engine's options and the shift-sequence
  ordering verdicts, in plain Python (no numpy);
* :mod:`wellsolver.squarewell` - the closed-form benchmark family;
* :mod:`wellsolver.oracle` - the independent eigensolver;
* :mod:`wellsolver.cli` - the ``wellsolver`` command.

Importing the package loads none of them. Each submodule, and each name
in ``__all__``, is imported from its home module on first access (PEP
562), so ``wellsolver.iterate is wellsolver.hierarchy.iterate`` and a
cold process pays only for the modules it touches: numpy comes in with
the first of ``grid``, ``trialgen``, ``hierarchy``, ``oracle`` or
``squarewell``, and ``ordering`` needs only the standard library.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("grid", "hierarchy", "oracle", "ordering", "squarewell", "trialgen")

# every public name, in ``__all__`` order, and the module that defines it
_HOME = {
    # grid
    "Grid": "grid",
    "Samples": "grid",
    "bracket": "grid",
    "concat_grids": "grid",
    "cumulative_from": "grid",
    "integrate": "grid",
    "make_grid": "grid",
    "mirror_grid": "grid",
    "slice_grid": "grid",
    # hierarchy (three of them live in ordering; hierarchy re-exports them)
    "CertificationReport": "hierarchy",
    "FullLineProblem": "hierarchy",
    "HalfLinePair": "hierarchy",
    "HalfLineStageError": "hierarchy",
    "IterateOptions": "ordering",
    "IterationState": "hierarchy",
    "IterationTrace": "hierarchy",
    "PairVerdict": "ordering",
    "certify": "hierarchy",
    "certify_shift_sequence": "ordering",
    "glue_full_line": "hierarchy",
    "iterate": "hierarchy",
    "iterate_full_line": "hierarchy",
    "solve_half_line_pair": "hierarchy",
    # oracle
    "EigensolveError": "oracle",
    "OracleResult": "oracle",
    "RefinementLevel": "oracle",
    "RefinementReport": "oracle",
    "fd_ground_state": "oracle",
    "fd_levels": "oracle",
    # squarewell
    "PolyIterate": "squarewell",
    "RegimeError": "squarewell",
    "RegionSolution": "squarewell",
    "SquareWellModel": "squarewell",
    "TwoLevelModel": "squarewell",
    "asymptotic_delta_residual": "squarewell",
    "build_squarewell_problem": "squarewell",
    "closed_form_overlaps": "squarewell",
    "exact_shift": "squarewell",
    "exact_v": "squarewell",
    "exact_v_series": "squarewell",
    "first_iteration_energy": "squarewell",
    "greens_function": "squarewell",
    "ground_state_values": "squarewell",
    "iterate_squarewell": "squarewell",
    "overlap_integrals": "squarewell",
    "poly_iterates": "squarewell",
    "potential_samples": "squarewell",
    "region_solution_n1": "squarewell",
    "series_coefficients": "squarewell",
    "solve_asymmetric": "squarewell",
    "solve_even_well": "squarewell",
    "squarewell_grid": "squarewell",
    "theta_asymptotic": "squarewell",
    "trial_log_samples": "squarewell",
    "trial_values": "squarewell",
    "two_level": "squarewell",
    "two_level_from_model": "squarewell",
    "wronskian_overlap_residuals": "squarewell",
    # trialgen
    "ResidualReport": "trialgen",
    "TrialFunction": "trialgen",
    "build_asymmetric_quartic_trial": "trialgen",
    "build_harmonic_trial": "trialgen",
    "build_symmetric_quartic_trial": "trialgen",
    "default_truncation": "trialgen",
    "quartic_grid": "trialgen",
    "residual_check": "trialgen",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_HOME})
