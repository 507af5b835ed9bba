"""Independent finite-difference eigensolver used as validation ground truth.

Discretizes -1/2 d^2/dx^2 + V with Dirichlet zeros at both grid edges and
solves for the lowest eigenpair(s) directly. It deliberately shares no
numerics with the iteration engine beyond the Grid/Samples containers, so
agreement between the two methods is evidence rather than circularity.

Discretization: piecewise-linear finite elements with a lumped (diagonal)
mass matrix, similarity-transformed by M^(1/2) so the problem stays a
symmetric tridiagonal ordinary eigenproblem even on nonuniform grids. On a
uniform segment this reduces exactly to the familiar second-order stencil
(diagonal 1/h^2 + V, off-diagonal -1/(2 h^2)); the eigenvalue error is
O(h^2) and one Richardson step across a grid refinement gives O(h^4).

Eigenvalues come from Sturm-sequence bisection restricted to the requested
indices, eigenvectors from inverse iteration (LAPACK stebz/stein through
scipy's tridiagonal driver). Only the coarsest level of
``fd_ground_state`` needs its eigenvector; its refined levels and
``fd_levels`` ask for eigenvalues only and skip stein.

scipy.linalg is imported inside ``_lowest_pairs``, on the first
eigensolve, not at module import: it is the slowest import in the
package, and the engine verbs (solve, certify, sweep) import this module
without ever solving an eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, Samples, concat_grids, integrate, mirror_grid

Array = NDArray[np.float64]

__all__ = [
    "EigensolveError",
    "RefinementLevel",
    "RefinementReport",
    "OracleResult",
    "fd_ground_state",
    "fd_levels",
]

# Relative magnitude below which eigenvector tail entries are treated as
# inverse-iteration noise: their sign carries no information, so they are
# snapped to zero instead of failing the nodeless-ground-state check.
_NOISE_FLOOR = 1e-11


class EigensolveError(RuntimeError):
    """Tridiagonal eigensolve failed, or returned a sign-changing ground state."""


@dataclass(frozen=True)
class RefinementLevel:
    """One resolution of a refinement study."""

    factor: int
    n_nodes: int
    energy: float


@dataclass(frozen=True)
class RefinementReport:
    """Energies across grid refinements plus the Richardson extrapolation.

    ``error_estimate`` bounds the finest raw eigenvalue's discretization
    error (difference of the two finest levels divided by factor^2 - 1);
    the extrapolated value is better still. ``order`` is the measured
    convergence exponent, available once three or more levels exist.
    """

    levels: tuple[RefinementLevel, ...]
    richardson: float
    error_estimate: float
    order: float | None


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth eigenpair: best energy, eigenvector, refinement study.

    ``psi`` lives on the grid the eigenproblem was assembled on (the
    mirrored full-line grid when ``mirror_even`` was set), is positive at
    interior nodes above the noise floor, and has unit L2 norm under the
    grid's own quadrature rule.
    """

    E_ground: float
    psi: Samples
    refinement: RefinementReport | None

    @property
    def grid(self) -> Grid:
        return self.psi.grid


def _node_values(V: Samples) -> Array:
    """Potential at each node, averaging the two one-sided values at jumps."""
    vals = np.array(V.values, dtype=np.float64, copy=True)
    for idx, (left, right) in V.jumps.items():
        vals[idx] = 0.5 * (left + right)
    if not np.all(np.isfinite(vals[1:-1])):
        raise ValueError("potential must be finite at interior nodes")
    return vals


def _tridiagonal(nodes: Array, v: Array) -> tuple[Array, Array, Array]:
    """Symmetrized tridiagonal (diagonal, off-diagonal, lumped masses)."""
    h = np.diff(nodes)
    hm, hp = h[:-1], h[1:]
    m = 0.5 * (hm + hp)
    d = 0.5 * (1.0 / hm + 1.0 / hp) / m + v[1:-1]
    e = -0.5 / (hp[:-1] * np.sqrt(m[:-1] * m[1:]))
    return d, e, m


def _lowest_pairs(
    d: Array, e: Array, count: int, *, vectors: bool
) -> tuple[Array, Array | None]:
    """Lowest ``count`` eigenvalues, with eigenvectors when ``vectors``."""
    from scipy.linalg import eigh_tridiagonal  # deferred: see module docstring

    if count < 1 or count > d.size:
        raise ValueError("eigenpair count out of range for this grid")
    try:
        out = eigh_tridiagonal(
            d, e, eigvals_only=not vectors, select="i",
            select_range=(0, count - 1), lapack_driver="stebz",
        )
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(
            f"tridiagonal eigensolve failed on {d.size + 2}-node grid: {exc}"
        ) from exc
    return out if vectors else (out, None)


def _ground_psi(grid: Grid, u: Array, m: Array) -> Samples:
    """Nodeless positive eigenvector as unit-norm samples with wall zeros."""
    psi = np.zeros(grid.n_nodes)
    psi[1:-1] = u / np.sqrt(m)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    floor = _NOISE_FLOOR * float(np.max(np.abs(psi)))
    tiny = np.abs(psi) < floor  # wall zeros and tail noise both land here
    if np.any(psi[~tiny] <= 0.0):
        raise EigensolveError(
            "computed ground state changes sign above the noise floor"
        )
    psi[tiny] = 0.0
    norm = integrate(Samples(grid, psi * psi))
    return Samples(grid, psi / sqrt(norm))


def _mirror_even(V: Samples, v_func: Callable | None):
    """Reflect a half-line even-parity problem onto the full line.

    Dirichlet at x=0 would select the odd first excited state, so even
    problems are solved on the reflected grid instead.
    """
    if V.grid.x_min != 0.0:
        raise ValueError("mirror_even requires a half-line grid starting at 0")
    if V.jumps:
        raise ValueError("mirror_even does not support sampled jumps")
    left = mirror_grid(V.grid)
    full = concat_grids(left, V.grid)
    vals = np.concatenate((V.values[::-1], V.values[1:]))
    mirrored = Samples(full, vals)
    if v_func is None:
        return mirrored, None
    return mirrored, (lambda x, _f=v_func: _f(np.abs(x)))


def _resample(V: Samples, fine: Grid, v_func: Callable | None) -> Samples:
    """Same potential on a refined grid, exactly (callable or constant segments)."""
    coarse = V.grid
    jumps = {
        fine.index_of(float(coarse.nodes[i])): lr for i, lr in V.jumps.items()
    }
    if v_func is not None:
        vals = np.asarray(v_func(fine.nodes), dtype=np.float64)
        return Samples(fine, vals, jumps=jumps)
    vals = np.empty(fine.n_nodes)
    for (i0, i1, _h), (j0, j1, _hf) in zip(coarse.segments, fine.segments):
        interior = V.values[i0 + 1 : i1]
        const = float(interior[0])
        if np.any(interior != const):
            raise ValueError(
                "grid refinement needs v_func unless the potential is "
                "constant on every segment"
            )
        vals[j0 : j1 + 1] = const
    return Samples(fine, vals, jumps=jumps)


def fd_ground_state(
    V: Samples,
    grid: Grid | None = None,
    *,
    v_func: Callable[[Array], Array] | None = None,
    mirror_even: bool = False,
    levels: int = 2,
    refine_factor: int = 2,
) -> OracleResult:
    """Lowest Dirichlet eigenpair of -1/2 d^2/dx^2 + V on the sample grid.

    ``levels`` resolutions are solved (the given grid, then repeated
    ``refine_factor``-fold refinements); the reported ``E_ground`` is the
    Richardson extrapolation of the two finest whenever ``levels >= 2``,
    else the raw eigenvalue. Refinement needs potential values at new
    nodes: pass ``v_func`` (vectorized x -> V) or rely on the exact
    fallback for segmentwise-constant potentials. ``mirror_even`` reflects
    a half-line grid through the origin first, for potentials whose ground
    state is even about 0.

    The eigenvector is reported for the first (coarsest) level only.
    """
    if grid is not None and grid is not V.grid:
        if not np.array_equal(grid.nodes, V.grid.nodes):
            raise ValueError("explicit grid disagrees with the sample grid")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    if mirror_even:
        V, v_func = _mirror_even(V, v_func)

    level_rows: list[RefinementLevel] = []
    psi: Samples | None = None
    cur = V
    factor = 1
    for lev in range(levels):
        g = cur.grid
        d, e, m = _tridiagonal(g.nodes, _node_values(cur))
        vals, vecs = _lowest_pairs(d, e, 1, vectors=lev == 0)
        energy = float(vals[0])
        if vecs is not None:
            psi = _ground_psi(g, vecs[:, 0], m)
        level_rows.append(RefinementLevel(factor, g.n_nodes, energy))
        if lev + 1 < levels:
            cur = _resample(cur, g.refined(refine_factor), v_func)
            factor *= refine_factor
    assert psi is not None

    if levels == 1:
        return OracleResult(level_rows[0].energy, psi, None)
    e_coarse = level_rows[-2].energy
    e_fine = level_rows[-1].energy
    gain = refine_factor**2 - 1
    richardson = e_fine + (e_fine - e_coarse) / gain
    error_estimate = abs(e_fine - e_coarse) / gain
    order = None
    if levels >= 3:
        d1 = level_rows[-3].energy - level_rows[-2].energy
        d2 = e_coarse - e_fine
        if d2 != 0.0 and d1 / d2 > 0.0:
            order = log(d1 / d2) / log(refine_factor)
    report = RefinementReport(tuple(level_rows), richardson, error_estimate, order)
    return OracleResult(richardson, psi, report)


def fd_levels(
    V: Samples, count: int = 2, *, mirror_even: bool = False
) -> np.ndarray:
    """Lowest ``count`` Dirichlet eigenvalues on the sample grid, unrefined.

    Exists for spectrum cross-checks (ground plus first excited); use
    :func:`fd_ground_state` when the eigenvector or a refinement study is
    needed.
    """
    if mirror_even:
        V, _ = _mirror_even(V, None)
    d, e, _m = _tridiagonal(V.grid.nodes, _node_values(V))
    vals, _ = _lowest_pairs(d, e, count, vectors=False)
    return np.asarray(vals, dtype=np.float64)
