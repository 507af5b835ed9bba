"""Trial wavefunctions with exactly known modified Hamiltonians.

Each builder returns a :class:`TrialFunction`: a positive reference state
phi (stored as log-amplitude), the perturbation w by which its exactly
solved potential U = V + w exceeds the physical V, and the reference
eigenvalue E0 with (-1/2 d^2/dx^2 + U) phi = E0 phi. Three families are
provided: the harmonic oscillator (w = 0, exact), the symmetric quartic
double well, and the tilted quartic double well split into two half-line
trials (the minus side is built in the mirrored coordinate s = -x, where
the tilt simply flips sign).

Both quartic families come from one half-line builder with tilt lam: the
symmetric trial is its lam = 0 case, and the tilted pair is its lam and
-lam cases. It patches together two WKB-style branches so that phi and
phi' are continuous at the potential barrier's outer edge x = 1 and
phi'(0) = 0; the price is a downward jump of w at x = 1, which is why
x = 1 must be a grid breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, log1p, sqrt
from typing import Literal

import numpy as np

from .grid import Grid, Samples, bracket, make_grid, mirror_grid, slice_grid

__all__ = [
    "TrialFunction",
    "ResidualReport",
    "quartic_grid",
    "default_truncation",
    "build_harmonic_trial",
    "build_symmetric_quartic_trial",
    "build_asymmetric_quartic_trial",
    "residual_check",
]

_AMP_FLOOR = 1e-6  # ``residual_check``'s amplitude floor; see ResidualReport


def _s0(x):
    """Leading large-g exponent of the quartic trials: phi ~ exp(-g * s0)."""
    return (x - 1.0) ** 2 * (x + 2.0) / 3.0


@dataclass(frozen=True, eq=False)
class TrialFunction:
    """A reference state whose modified Hamiltonian is solved exactly.

    ``log_phi`` is log phi (phi > 0 everywhere, so finite);
    ``w`` = U - V may carry jump samples at breakpoints; ``E0`` satisfies
    (-1/2 d2/dx2 + V + w) phi = E0 phi. ``domain_kind`` distinguishes
    half-line problems with a reflecting origin (phi'(0) = 0) from genuine
    full-line ones. Construction raises ValueError unless w is monotone,
    in either direction, which is what the iteration's convergence proof
    consumes.
    """

    grid: Grid
    log_phi: Samples
    w: Samples
    E0: float
    V: Samples
    domain_kind: Literal["half_line_even", "full_line"]
    label: str = ""

    def __post_init__(self) -> None:
        vals = self.w.values.copy()
        for j, (lo, _hi) in self.w.jumps.items():
            vals[j] = lo  # compare each node by its left-side value
        d = np.diff(vals)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        # w's endpoints set the trend; a NaN breaks either one
        bad = ~(d >= -tol) if vals[-1] > vals[0] else ~(d <= tol)
        if bad.any():
            x = float(self.grid.nodes[int(np.argmax(bad))])
            raise ValueError(
                f"w of {self.label or 'the trial'} is not monotone; "
                f"first offending node at x = {x:.6g}"
            )


@dataclass(frozen=True)
class ResidualReport:
    """How well a trial satisfies its own modified eigenproblem.

    ``max_rel``: worst |H phi - E0 phi| / (|E0| phi) over stencil-valid
    nodes whose amplitude is within ``amp_floor`` of the peak (the far
    tail is excluded: the three-point truncation error grows like the
    fourth log-derivative and says nothing about the trial there).
    ``l2_rel``: phi^2-weighted global norm of the same ratio, the measure
    the iteration actually feels.
    """

    max_rel: float
    l2_rel: float
    x_at_max: float
    amp_floor: float

    def __float__(self) -> float:
        return self.max_rel


def default_truncation(g: float) -> float:
    """Domain edge for quartic trials: amplitude < 1e-14 of peak beyond."""
    return 1.0 + 8.0 / sqrt(g)


def quartic_grid(
    g: float,
    density: float,
    *,
    x_max: float | None = None,
    full_line: bool = False,
) -> Grid:
    """Standard grid for the quartic family: breakpoints at the wells."""
    edge = default_truncation(g) if x_max is None else float(x_max)
    if full_line:
        return make_grid((-edge, edge), density, breakpoints=(-1.0, 0.0, 1.0))
    return make_grid(edge, density, breakpoints=(1.0,))


def build_harmonic_trial(g: float, grid: Grid) -> TrialFunction:
    """Exact ground state of V = g^2 x^2 / 2; the perturbation vanishes."""
    if not g > 0:
        raise ValueError("harmonic frequency g must be positive")
    x = grid.nodes
    return TrialFunction(
        grid=grid,
        log_phi=Samples(grid, -0.5 * g * x**2, kind="log_amplitude"),
        w=Samples(grid, np.zeros_like(x)),
        E0=0.5 * g,
        V=Samples(grid, 0.5 * g**2 * x**2),
        domain_kind="half_line_even" if grid.x_min == 0.0 else "full_line",
        label=f"harmonic(g={g:g})",
    )


def _quartic_potential(g: float, lam: float, x: np.ndarray) -> np.ndarray:
    """V = g^2 (x^2-1)^2 / 2 + g lam x, the quartic family's potential."""
    return 0.5 * g**2 * (x**2 - 1.0) ** 2 + g * lam * x


def _half_quartic_trial(
    g: float, lam: float, grid: Grid, log_norm: float, label: str
) -> TrialFunction:
    """Half-line quartic trial in local coordinate s >= 0, tilt ``lam``.

    ``log_norm`` is the constant term of log phi, so it sets only the
    normalisation; the caller picks it, and names the trial by ``label``.

    The two exponent branches exp(-g*s0) and exp(-4g/3 + g*s0) are mixed
    with weights (g+1+lam) and (g-1-lam) so value and slope match at s = 1
    and the slope vanishes at s = 0. All logs are formed from the bounded
    ratio t = exp(2g*s0 - 4g/3) <= 1 (s <= 1), never from the raw
    exponentials.
    """
    if grid.x_min != 0.0:
        raise ValueError("half-line trial needs a grid starting at 0")
    j1 = grid.index_of(1.0)
    x = grid.nodes
    s0 = _s0(x)
    big = g + 1.0 + lam
    small = g - 1.0 - lam
    ratio = small / big
    t_at_1 = exp(-4.0 * g / 3.0)

    log_phi = log_norm - (1.0 + lam) * np.log1p(x) - g * s0
    inner = np.empty_like(x)
    t_left = np.exp(2.0 * g * s0[: j1 + 1] - 4.0 * g / 3.0)
    inner[: j1 + 1] = np.log1p(ratio * t_left)
    inner[j1 + 1 :] = log1p(ratio * t_at_1)
    log_phi = log_phi + inner

    u = (1.0 + lam) * (2.0 + lam) / (2.0 * (1.0 + x) ** 2)
    w_vals = u.copy()
    w_vals[:j1] += (
        2.0
        * g
        * small
        * (1.0 + lam - lam * x[:j1])
        * t_left[:j1]
        / (big + small * t_left[:j1])
    )
    ghat_at_1_left = 2.0 * g * small * t_at_1 / (big + small * t_at_1)
    jumps = {}
    if ghat_at_1_left != 0.0:
        jumps = {j1: (u[j1] + ghat_at_1_left, u[j1])}
    w = Samples(grid, w_vals, jumps=jumps)

    return TrialFunction(
        grid=grid,
        log_phi=Samples(grid, log_phi, kind="log_amplitude"),
        w=w,
        E0=g * (1.0 + lam),
        V=Samples(grid, _quartic_potential(g, lam, x)),
        domain_kind="half_line_even",
        label=label,
    )


def build_symmetric_quartic_trial(g: float, grid: Grid) -> TrialFunction:
    """Trial for V = g^2 (x^2-1)^2 / 2 on the half line, E0 = g exactly.

    The zero-tilt half-line trial: w = 1/(1+x)^2 plus a barrier
    correction that is positive for g > 1 and drops to zero
    discontinuously at x = 1; w is strictly decreasing on x > 0, which is
    what the iteration's convergence proof consumes.
    """
    if g < 1.0:
        raise ValueError("symmetric quartic trial needs g >= 1")
    if grid.x_min != 0.0:
        raise ValueError("symmetric quartic trial lives on the half line")
    if grid.x_max < 1.0:
        raise ValueError("half-line grid must reach the well at x = 1")
    return _half_quartic_trial(g, 0.0, grid, log(2.0), f"sym_quartic(g={g:g})")


def build_asymmetric_quartic_trial(
    g: float, lam: float, grid: Grid
) -> tuple[TrialFunction, TrialFunction]:
    """Half-line trial pair for V = g^2 (x^2-1)^2 / 2 + g lam x.

    ``grid`` is the full-line grid (breakpoints at -1, 0, 1); the plus
    trial lives on its [0, x_max] nodes and the minus trial on the exact
    reflection of its [x_min, 0] nodes, with the tilt sign flipped (the
    potential is invariant under x -> -x, lam -> -lam). Reference
    eigenvalues are E0 = g(1 +/- lam), so their gap is 2*g*lam exactly.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("tilt must satisfy 0 <= lam < 1")
    if not g > 1.0 + lam:
        raise ValueError("need g > 1 + lam for a positive perturbation")
    if grid.x_min >= -1.0 or grid.x_max <= 1.0:
        raise ValueError("full-line grid must reach beyond both wells")
    plus_grid = slice_grid(grid, 0.0, grid.x_max)
    minus_grid = mirror_grid(slice_grid(grid, grid.x_min, 0.0))

    def half(tilt: float, half_grid: Grid, side: str) -> TrialFunction:
        log_norm = -log(2.0 * g) + log(g + 1.0 + tilt)
        label = f"asym_quartic{side}(g={g:g}, lam={abs(lam):g})"
        return _half_quartic_trial(g, tilt, half_grid, log_norm, label)

    return half(lam, plus_grid, "+"), half(-lam, minus_grid, "-")


def residual_check(t: TrialFunction) -> ResidualReport:
    """Three-point check that (T + V + w) phi = E0 phi on the samples.

    The second derivative is formed in ratio space,
    phi(x +/- h)/phi(x) = exp(L(x +/- h) - L(x)), so amplitude range costs
    nothing. Stencils never straddle a segment boundary, and nodes next to
    a w or V jump are skipped (those are one-sided there, the stencil is
    not).
    """
    L = t.log_phi.values
    vw = t.V.values + t.w.values
    skip = set()
    for j in (*t.w.jumps, *t.V.jumps):
        skip.update((j - 1, j, j + 1))
    ratios = np.zeros_like(L)
    valid = np.zeros(L.size, dtype=bool)
    for i0, i1, h in t.grid.segments:
        k = np.arange(i0 + 1, i1)
        if k.size == 0:
            continue
        dd = (np.exp(L[k - 1] - L[k]) - 2.0 + np.exp(L[k + 1] - L[k])) / h**2
        ratios[k] = -0.5 * dd + (vw[k] - t.E0)
        valid[k] = True
    for j in skip:
        if 0 <= j < valid.size:
            valid[j] = False

    scale = abs(t.E0)
    trust = valid & (L >= float(np.max(L)) + log(_AMP_FLOOR))
    if not np.any(trust):
        raise ValueError("no stencil-valid nodes above the amplitude floor")
    rel = np.abs(ratios[trust]) / scale
    k_max = int(np.argmax(rel))
    x_at_max = float(t.grid.nodes[np.nonzero(trust)[0][k_max]])

    sq = np.where(valid, ratios, 0.0) ** 2
    num = bracket(Samples(t.grid, sq), t.log_phi)
    den = scale**2 * bracket(Samples(t.grid, np.ones_like(L)), t.log_phi)
    return ResidualReport(
        max_rel=float(np.max(rel)),
        l2_rel=sqrt(max(num, 0.0) / den),
        x_at_max=x_at_max,
        amp_floor=_AMP_FLOOR,
    )
