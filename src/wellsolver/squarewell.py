"""Analytic double square-well benchmark with hard outer walls.

A box |x| < gamma holds two wells separated by an inner barrier of height
W^2/2 on |x| < alpha; the right well floor is raised by mu^2/2, the left
sits at zero, and beta = gamma - alpha is the width of each outer well.
Everything here is solvable in closed form, which makes the model the
package's analytic ground truth:

* transcendental spectra for the two symmetric comparison wells (barrier
  flanked by equal outer wells, even and odd states) and for the
  asymmetric ground state itself;
* the exact energy shift between the stitched trial state and the true
  ground state, as a ratio of overlap integrals with a Wronskian identity
  tying the two together;
* the one-sided Green's function built from the trial state and its
  irregular partner;
* a two-by-two matrix reduction that captures the tunneling physics;
* closed-form polynomial iterates of the outer-region recursion, exact
  rational coefficients included, against which the fixed-coupling power
  series (radius of convergence 1) visibly diverges while the iteration
  does not.

The stitched trial state is, on each side of the origin, the even ground
state of that side's comparison well (floors raised on the right, at zero
on the left). It is written once, in u = |x| with the side's barrier
decay q, outer wavenumber k and outer amplitude; its irregular partner is
the odd solution of the same equations.

Conventions: energies are wavenumber^2 / 2; comparison-well wavefunctions
are 1 at the origin; the asymmetric ground state is normalized so its
slope at the right wall equals the trial state's slope there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import (
    atan2,
    atanh,
    copysign,
    cos,
    cosh,
    exp,
    factorial,
    inf,
    isfinite,
    isnan,
    log,
    log1p,
    pi,
    sin,
    sinh,
    sqrt,
    tan,
    tanh,
    ulp,
)
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .grid import Grid, Samples, cumulative_from, integrate, make_grid, slice_grid
from .hierarchy import (
    Case,
    FullLineProblem,
    IterateOptions,
    IterationTrace,
    _full_line_problem,
    iterate_full_line,
)

__all__ = [
    "RegimeError",
    "SquareWellModel",
    "TwoLevelModel",
    "PolyIterate",
    "RegionSolution",
    "solve_even_well",
    "theta_asymptotic",
    "solve_asymmetric",
    "squarewell_grid",
    "potential_samples",
    "trial_log_samples",
    "ground_state_values",
    "trial_values",
    "overlap_integrals",
    "closed_form_overlaps",
    "first_iteration_energy",
    "exact_shift",
    "greens_function",
    "wronskian_overlap_residuals",
    "two_level",
    "two_level_from_model",
    "build_squarewell_problem",
    "iterate_squarewell",
    "poly_iterates",
    "exact_v",
    "exact_v_series",
    "series_coefficients",
    "region_solution_n1",
    "asymptotic_delta_residual",
]


class RegimeError(ValueError):
    """Parameters outside the regime where the requested closed form exists."""


# ---------------------------------------------------------------------------
# transcendental channel solves


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Brent's bracketed root finder, a line-for-line port of scipy's brentq.

    Follows ``scipy/optimize/Zeros/brentq.c`` (Brent 1973, ch. 4) operation
    for operation, so every step rounds as the C code does and the root
    matches ``scipy.optimize.brentq`` bit for bit; this keeps scipy.optimize
    and its import cost out of the package. Raises RegimeError on a NaN
    value, on a bracket without a sign change and on non-convergence.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if isnan(fx):
            raise RegimeError(f"root function is NaN at x={x!r}")
        return fx

    def signbit(x: float) -> bool:
        return copysign(1.0, x) < 0.0

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise RegimeError("root bracket has no sign change")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and signbit(fpre) != signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                num = -fcur * (xcur - xpre)
                den = fcur - fpre
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # C yields inf or NaN for den == 0; either fails the test below
            stry = num / den if den != 0.0 else inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RegimeError(f"root search did not converge in {maxiter} iterations")


def _channel_equation(t: float, total_sq_b2: float, ab_ratio: float,
                      closure: str) -> float:
    """Continuity condition in pole-free form, as a function of t = wavenumber*beta.

    The raw condition -t cot t = (q beta) * closure(q alpha) is steep near
    t = pi; multiplying through by sin t removes the pole, leaving
    F(t) = -t cos t - (q beta) closure(q alpha) sin t with the same roots
    on (pi/2, pi) and O(1) slope at them. ``ab_ratio`` is alpha/beta;
    ``total_sq_b2`` is (barrier wavenumber * beta)^2.
    """
    qb_sq = total_sq_b2 - t * t
    if qb_sq < 0.0:
        return float("nan")
    qb = sqrt(qb_sq)
    qa = qb * ab_ratio
    if closure == "tanh":
        c = tanh(qa) if isfinite(qa) else 1.0
    else:
        if qa == 0.0:
            return float("nan")
        c = 1.0 / tanh(qa) if isfinite(qa) else 1.0
    return -t * cos(t) - qb * c * sin(t)


def solve_even_well(
    W: float,
    beta: float,
    alpha: float,
    channel: Literal["b", "a", "od"] = "b",
    mu: float = 0.0,
) -> tuple[float, float, float]:
    """Bound-state parameters of one symmetric comparison well.

    channel "b": even ground state with the outer well floors at zero.
    channel "a": even ground state with both floors raised by mu^2/2 (the
    barrier-to-floor gap drops to W^2 - mu^2); the returned energy includes
    the raised floor. channel "od": the odd first excited state of the
    "b" potential. Returns (wavenumber, barrier decay constant, energy)
    with the wavenumber*beta root located in (pi/2, pi).

    Raises RegimeError when no sign change exists in that band (the well
    is too shallow to bind a state of the requested symmetry).
    """
    if W <= 0.0 or beta <= 0.0 or alpha <= 0.0:
        raise ValueError("W, beta, alpha must all be positive")
    if channel == "a":
        if not W * W > mu * mu:
            raise ValueError("barrier must exceed the raised floor")
        total_sq = W * W - mu * mu
    elif channel in ("b", "od"):
        if mu != 0.0:
            raise ValueError(f"channel {channel!r} takes no floor offset")
        total_sq = W * W
    else:
        raise ValueError(f"unknown channel {channel!r}")
    closure = "coth" if channel == "od" else "tanh"

    total_b2 = total_sq * beta * beta
    lo = pi / 2 + 1e-12
    hi = min(pi - 1e-12, sqrt(total_b2) * (1.0 - 1e-13))
    if hi <= lo:
        raise RegimeError(
            f"channel {channel!r}: barrier too low, no root band above pi/2"
        )

    def F(t: float) -> float:
        return _channel_equation(t, total_b2, alpha / beta, closure)

    ts = np.linspace(lo, hi, 129)
    vals = np.array([F(t) for t in ts])
    ok = np.isfinite(vals)
    bracket = None
    idx = np.nonzero(ok)[0]
    for i, j in zip(idx[:-1], idx[1:]):
        if vals[i] == 0.0:
            bracket = (ts[i], ts[i])
            break
        if vals[i] * vals[j] < 0.0:
            bracket = (ts[i], ts[j])
            break
    if bracket is None:
        raise RegimeError(
            f"channel {channel!r}: no bound state in the expected band "
            f"(W*beta = {sqrt(total_b2):.3g})"
        )
    if bracket[0] == bracket[1]:
        t_root = bracket[0]
    else:
        t_root = _brentq(F, *bracket, xtol=1e-15, rtol=8.9e-16)
    qb = sqrt(total_b2 - t_root * t_root)
    residual = abs(F(t_root))
    if residual > 1e-12 * max(1.0, qb):
        raise RegimeError(
            f"channel {channel!r}: root residual {residual:.3e} above tolerance"
        )
    wavenumber = t_root / beta
    decay = qb / beta
    if channel == "a":
        energy = 0.5 * (mu * mu + wavenumber * wavenumber)
    else:
        energy = 0.5 * wavenumber * wavenumber
    return wavenumber, decay, energy


def theta_asymptotic(Wbeta: float) -> float:
    """Series for the wall-repulsion angle of an isolated outer well.

    The exact angle is pi minus the root of t cos t = -q(t) beta sin t in
    the alpha -> infinity limit; this is its expansion in inverse powers
    of W*beta, accurate to relative O((W*beta)^-3).
    """
    if not Wbeta > 5.0:
        raise ValueError("series regime needs W*beta > 5")
    u = 1.0 / Wbeta
    return pi * u * (1.0 - u + (1.0 + pi * pi / 6.0) * u * u)


# ---------------------------------------------------------------------------
# the asymmetric ground state


@dataclass(frozen=True)
class SquareWellModel:
    """Solved double-well model: geometry, wavenumbers, energies, shape.

    Geometry: barrier height W^2/2 on |x| < alpha, right floor mu^2/2,
    hard walls at |x| = gamma = alpha + beta. Ground-state parameters
    (k, p, q, delta): k and p are the oscillation wavenumbers in the
    right (raised) and left outer wells, q the barrier decay constant,
    and delta the offset of the barrier-region minimum from the origin.
    (k_a, q_a) and (p_b, q_b) are the matching parameters of the two
    symmetric comparison wells (floors both raised, floors both zero);
    (p_od, q_od) belongs to the odd excited state of the zero-floor well.
    ``shape`` records whether the ground state keeps two humps or has
    merged into one. Derived: ``gamma``, ``E_gap`` and ``lam``, half the
    even-odd splitting of the zero-floor well, the tunneling energy scale.
    """

    W: float
    mu: float
    alpha: float
    beta: float
    k: float
    p: float
    q: float
    delta: float
    k_a: float
    q_a: float
    p_b: float
    q_b: float
    p_od: float
    q_od: float
    E: float
    E_a: float
    E_b: float
    E_od: float
    shape: Literal["double_peak", "critical", "single_peak"]

    def __post_init__(self) -> None:
        W2 = self.W * self.W
        tol = 1e-12 * W2
        if abs(self.p * self.p + self.q * self.q - W2) > tol:
            raise ValueError("wavenumber closure broken in the left well")
        if abs(self.mu**2 + self.k * abs(self.k) + self.q**2 - W2) > tol:
            raise ValueError("wavenumber closure broken in the right well")
        what2 = W2 - self.mu * self.mu
        if abs(self.k_a**2 + self.q_a**2 - what2) > tol:
            raise ValueError("comparison-channel closure broken")
        if self.mu > 0.0 and not self.delta > 0.0:
            raise ValueError("asymmetry must push the node toward the raised well")
        if not self.E < self.E_od:
            # deep tunneling: the even-odd split is below float resolution
            raise RegimeError("ground energy must sit below the odd state")
        if self.E < self.E_b - 1e-12 * abs(self.E_b):
            raise ValueError("raising one floor cannot lower the ground energy")
        if self.mu > 0.0 and not (self.E_b < self.E_a and self.E < self.E_a):
            raise ValueError("raised-floor comparison well must sit above both")

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta

    @property
    def lam(self) -> float:
        return 0.5 * (self.E_od - self.E_b)

    @property
    def E_gap(self) -> float:
        """Comparison-well energy gap, the height of the step perturbation."""
        return self.E_a - self.E_b

    @property
    def _sides(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Trial state's (barrier decay q, outer wavenumber k), right then left."""
        return (self.q_a, self.k_a), (self.q_b, self.p_b)

    @property
    def _amplitudes(self) -> tuple[float, float]:
        """Trial state's outer-well amplitudes, right then left.

        In u = |x| a side is cosh(q u) on the barrier and amplitude *
        sin(k (gamma - u)) in its outer well, meeting at u = alpha.
        """
        pa, pb = (cosh(q * self.alpha) / sin(k * self.beta) for q, k in self._sides)
        return pa, pb


def _kcot_t(s: float, length: float) -> float:
    """t * cot(t) for t = sqrt(s)*length, continued smoothly through s <= 0."""
    if s > 0.0:
        t = sqrt(s) * length
        return t / tan(t)
    if s == 0.0:
        return 1.0
    t = sqrt(-s) * length
    return t / tanh(t)


def solve_asymmetric(W: float, mu: float, alpha: float, beta: float) -> SquareWellModel:
    """Solve the full asymmetric double well for its ground state.

    The two matching conditions at x = +-alpha share the barrier decay
    constant q; eliminating the node offset delta turns them into a single
    scalar mismatch G(E) on (E_b, E_a). In the deep-tunneling regime G is
    only defined on an exponentially thin window above E_b and its root
    sits within a few float spacings of the window's singular upper edge,
    so no scan can bracket it; instead the solve bisects on the monotone
    predicate "G is defined and negative", which is true at E_b and false
    at E_a by the comparison-well ordering. delta is then read off the
    raised-well condition alone, the branch that stays well conditioned.
    """
    if W <= 0.0 or alpha <= 0.0 or beta <= 0.0:
        raise ValueError("W, alpha, beta must all be positive")
    if mu < 0.0 or not W * W > mu * mu:
        raise ValueError("need 0 <= mu < W")
    k_a, q_a, E_a = solve_even_well(W, beta, alpha, "a", mu=mu)
    p_b, q_b, E_b = solve_even_well(W, beta, alpha, "b")
    p_od, q_od, E_od = solve_even_well(W, beta, alpha, "od")

    if mu == 0.0:
        return SquareWellModel(
            W=W, mu=0.0, alpha=alpha, beta=beta,
            k=p_b, p=p_b, q=q_b, delta=0.0,
            k_a=k_a, q_a=q_a, p_b=p_b, q_b=q_b, p_od=p_od, q_od=q_od,
            E=E_b, E_a=E_a, E_b=E_b, E_od=E_od,
            shape="double_peak",
        )

    mu_sq = mu * mu
    W2 = W * W

    def halves(E: float) -> tuple[float, float, float] | None:
        q_sq = W2 - 2.0 * E
        if q_sq <= 0.0:
            return None
        q = sqrt(q_sq)
        ck = -_kcot_t(2.0 * E - mu_sq, beta) / (q * beta)
        cp = -_kcot_t(2.0 * E, beta) / (q * beta)
        if not (-1.0 < ck < 1.0 and -1.0 < cp < 1.0):
            return None
        return atanh(ck), atanh(cp), q

    def below(E: float) -> bool:
        h = halves(E)
        if h is None:
            return False
        A_k, A_p, q = h
        return A_k + A_p - 2.0 * q * alpha < 0.0

    # the nodeless branch keeps the left-well phase under pi; past it the
    # continued cotangent re-enters the band on a spurious excited branch
    lo, hi = E_b, min(E_a, 0.5 * (pi / beta) ** 2 * (1.0 - 1e-13))
    if not below(lo) or below(hi):
        raise RegimeError("no consistent ground-state root between the "
                          "comparison energies")
    while hi - lo > 2.0 * np.finfo(np.float64).eps * max(abs(hi), 1.0):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid

    E = lo
    h = halves(E)
    if h is None:
        raise RegimeError("ground-state root collapsed onto the comparison "
                          "energy; asymmetry is below float resolution")
    A_k, _, q = h
    delta = alpha - A_k / q
    s_k = 2.0 * E - mu_sq
    k = sqrt(s_k) if s_k >= 0.0 else -sqrt(-s_k)  # negative marks a tunneling branch
    p = sqrt(2.0 * E)

    # Both matching conditions, rechecked in their raw form. tanh compresses
    # toward saturation, so these residuals are far below the root tolerance.
    r1 = -_kcot_t(s_k, beta) - q * beta * tanh(q * (alpha - delta))
    r2 = -_kcot_t(2.0 * E, beta) - q * beta * tanh(q * (alpha + delta))
    if max(abs(r1), abs(r2)) > 1e-12 * max(1.0, q * beta):
        raise RegimeError(f"matching residuals {r1:.2e}, {r2:.2e} too large")

    rel = (delta - alpha) / max(alpha, 1e-300)
    shape: Literal["double_peak", "critical", "single_peak"]
    if rel < -1e-9:
        shape = "double_peak"
    elif rel > 1e-9:
        shape = "single_peak"
    else:
        shape = "critical"
    return SquareWellModel(
        W=W, mu=mu, alpha=alpha, beta=beta,
        k=k, p=p, q=q, delta=delta,
        k_a=k_a, q_a=q_a, p_b=p_b, q_b=q_b, p_od=p_od, q_od=q_od,
        E=E, E_a=E_a, E_b=E_b, E_od=E_od,
        shape=shape,
    )


def asymptotic_delta_residual(m: SquareWellModel) -> float:
    """Relative mismatch of the tunneling relation between mu^2 and delta.

    Compares mu^2 beta^2 against the leading exponential expression built
    from the isolated-well parameters (well kept fixed, partner moved to
    infinity). Small only in the deep-barrier, wide-separation regime;
    returned rather than asserted so callers decide what "small" means.
    """
    p_inf, q_inf, _ = solve_even_well(m.W, m.beta, inf, "b")
    what = sqrt(m.W**2 - m.mu**2)
    k_inf, qhat_inf, _ = solve_even_well(what, m.beta, inf, "b")
    nu1 = (p_inf * q_inf / m.W**2) * 2.0 * q_inf * m.beta / (q_inf * m.beta + 1.0)
    nu1_hat = (k_inf * qhat_inf / what**2) * (
        2.0 * qhat_inf * m.beta / (qhat_inf * m.beta + 1.0)
    )
    lhs = m.mu**2 * m.beta**2
    rhs = 2.0 * pi * (
        nu1_hat * exp(-2.0 * qhat_inf * (m.alpha - m.delta))
        - nu1 * exp(-2.0 * q_inf * (m.alpha + m.delta))
    )
    return abs(lhs - rhs) / lhs


# ---------------------------------------------------------------------------
# closed-form wavefunctions on a grid


def squarewell_grid(m: SquareWellModel, density: float) -> Grid:
    """Wall-to-wall grid with nodes exactly on the well edges and origin."""
    return make_grid(
        (-m.gamma, m.gamma), density, breakpoints=(-m.alpha, 0.0, m.alpha)
    )


def potential_samples(m: SquareWellModel, grid: Grid) -> Samples:
    """The box potential on the grid, with two-sided values at the steps."""
    x = grid.nodes
    vals = np.where(
        np.abs(x) < m.alpha,
        0.5 * m.W**2,
        np.where(x > 0.0, 0.5 * m.mu**2, 0.0),
    )
    j_lo = grid.index_of(-m.alpha)
    j_hi = grid.index_of(m.alpha)
    vals[j_lo] = 0.5 * m.W**2
    vals[j_hi] = 0.5 * m.W**2
    jumps = {
        j_lo: (0.0, 0.5 * m.W**2),
        j_hi: (0.5 * m.W**2, 0.5 * m.mu**2),
    }
    return Samples(grid, vals, jumps=jumps)


def _log_cosh(t: np.ndarray) -> np.ndarray:
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - log(2.0)


def trial_log_samples(m: SquareWellModel, grid: Grid) -> Samples:
    """Log amplitude of the stitched trial state (exact zeros at the walls).

    Right of the origin this is the raised-floor comparison ground state,
    left of it the zero-floor one; both equal 1 at the origin with zero
    slope, so the stitch is C1 and the log is finite everywhere inside.
    """
    x = grid.nodes
    u = np.abs(x)
    outer = u > m.alpha
    L = np.empty_like(x)
    for (q, k), side in zip(m._sides, (x >= 0.0, x < 0.0)):
        log_amp = _log_cosh(np.array([q * m.alpha]))[0] - log(sin(k * m.beta))
        well, barrier = side & outer, side & ~outer
        with np.errstate(divide="ignore"):
            L[well] = log_amp + np.log(np.sin(k * (m.gamma - u[well])))
        L[barrier] = _log_cosh(q * u[barrier])
    L[0] = -np.inf
    L[-1] = -np.inf
    return Samples(grid, L)


def trial_values(m: SquareWellModel, x: np.ndarray) -> np.ndarray:
    """Trial state pointwise (plain values; fine while cosh(q alpha) fits)."""
    x = np.asarray(x, dtype=np.float64)
    u = np.abs(x)
    right, left = (
        np.where(u > m.alpha, amp * np.sin(k * (m.gamma - u)), np.cosh(q * u))
        for (q, k), amp in zip(m._sides, m._amplitudes)
    )
    return np.where(x >= 0.0, right, left)


def _osc(s: float, u: np.ndarray) -> np.ndarray:
    """sin(sqrt(s) u)/sqrt(s), continued through s <= 0 (u at 0, sinh below)."""
    if s > 0.0:
        r = sqrt(s)
        return np.sin(r * u) / r
    if s == 0.0:
        return np.asarray(u, dtype=np.float64) + 0.0
    r = sqrt(-s)
    return np.sinh(r * u) / r


def _psi_coefficients(m: SquareWellModel) -> tuple[float, float, float, float, float]:
    """Coefficients of the exact ground state's closed form, region by region.

    Returns ``(s, pref, barrier, mid_den, left_pref)``: the raised well
    holds pref * sin(sqrt(s) (gamma - x))/sqrt(s), the barrier
    barrier * cosh(q (x - delta)) / mid_den and the left well
    left_pref * sin(p (x + gamma)).
    """
    s = 2.0 * m.E - m.mu**2
    pref = m.k_a * m._amplitudes[0]
    mid_den = cosh(m.q * (m.alpha - m.delta))
    barrier = pref * float(_osc(s, np.array([m.beta]))[0])
    left_pref = barrier * cosh(m.q * (m.alpha + m.delta)) / (
        mid_den * sin(m.p * m.beta)
    )
    return s, pref, barrier, mid_den, left_pref


def ground_state_values(m: SquareWellModel, x: np.ndarray) -> np.ndarray:
    """Exact ground state pointwise, slope-matched to the trial at +gamma.

    In the raised well the oscillation continues smoothly to a hyperbolic
    profile when the energy drops below the raised floor (strong
    asymmetry); the closed form covers both branches.
    """
    x = np.asarray(x, dtype=np.float64)
    s, pref, barrier, mid_den, left_pref = _psi_coefficients(m)
    return np.where(
        x > m.alpha,
        pref * _osc(s, m.gamma - x),
        np.where(
            np.abs(x) <= m.alpha,
            barrier * np.cosh(m.q * (x - m.delta)) / mid_den,
            left_pref * np.sin(m.p * (x + m.gamma)),
        ),
    )


# ---------------------------------------------------------------------------
# overlaps, exact shift, first iteration closed forms


def overlap_integrals(m: SquareWellModel, grid: Grid) -> tuple[float, float]:
    """Quadrature overlaps of trial and ground state over each half box."""
    prod = trial_values(m, grid.nodes) * ground_state_values(m, grid.nodes)
    j0 = grid.index_of(0.0)
    right = slice_grid(grid, 0.0, grid.x_max)
    left = slice_grid(grid, grid.x_min, 0.0)
    M = integrate(Samples(right, prod[j0:]))
    N = integrate(Samples(left, prod[: j0 + 1]))
    return M, N


def exact_shift(m: SquareWellModel, grid: Grid) -> float:
    """Exact trial-to-ground energy shift from the overlap ratio.

    Equals (E_a - E) from the transcendental solve; evaluating it instead
    from the two overlap integrals exercises an entirely different route
    (closed-form wavefunctions plus quadrature).
    """
    M, N = overlap_integrals(m, grid)
    if M + N <= 0.0:
        raise RuntimeError("overlap normalization must be positive")
    return N / (M + N) * m.E_gap


def closed_form_overlaps(m: SquareWellModel) -> tuple[float, float]:
    """Seed-iteration overlaps of the squared trial state, antiderivatives only."""
    M0, N0 = (
        0.5 * (
            m.alpha
            + sinh(2.0 * q * m.alpha) / (2.0 * q)
            + amp**2 * (m.beta - sin(2.0 * k * m.beta) / (2.0 * k))
        )
        for (q, k), amp in zip(m._sides, m._amplitudes)
    )
    return M0, N0


def first_iteration_energy(m: SquareWellModel) -> float:
    """Energy after one iteration step, in closed form."""
    M0, N0 = closed_form_overlaps(m)
    return m.E_b + M0 / (M0 + N0) * m.E_gap


# ---------------------------------------------------------------------------
# Green's function


def _chi(m: SquareWellModel, x: float) -> tuple[float, float, float, float]:
    """(chi, chi', chi_bar, chi_bar') at x: the trial state, its partner, slopes.

    On each side, in u = |x|, chi is that side's even comparison state
    and chi_bar the odd solution of the same equation with chi_bar(0) = 0
    and unit Wronskian chi_bar' chi - chi' chi_bar = 1.
    """
    side, sign = (0, 1.0) if x >= 0.0 else (1, -1.0)
    q, k = m._sides[side]
    u = abs(x)
    if u > m.alpha:
        amp = m._amplitudes[side]
        ch = cosh(q * m.alpha)
        skb = sin(k * m.beta)
        A = sinh(q * m.alpha) / (q * skb) - cos(k * m.beta) / (k * ch)
        t = k * (m.gamma - u)
        even, even_slope = amp * sin(t), -k * amp * cos(t)
        odd = A * sin(t) + skb / (k * ch) * cos(t)
        odd_slope = -k * A * cos(t) + skb / ch * sin(t)
    else:
        even, even_slope = cosh(q * u), q * sinh(q * u)
        odd, odd_slope = sinh(q * u) / q, cosh(q * u)
    return even, sign * even_slope, sign * odd, odd_slope


def greens_function(m: SquareWellModel, x: float, z: float) -> float:
    """One-sided Green's function of the trial-state operator.

    Zero for x >= z; for x < z it is built from the trial state and its
    irregular partner (the second solution vanishing at the origin). The
    unit-Wronskian identity between the two is rechecked at both
    evaluation points on every call.
    """
    if not (-m.gamma < x < m.gamma and -m.gamma < z < m.gamma):
        raise ValueError("evaluation points must lie strictly inside the walls")
    chi_x, chi_z = _chi(m, x), _chi(m, z)
    for point, (chi, chi_slope, bar, bar_slope) in ((x, chi_x), (z, chi_z)):
        term_a = bar_slope * chi
        term_b = chi_slope * bar
        wr = term_a - term_b
        # the two terms cancel to exactly 1, so roundoff scales with their size
        tol = 1e-9 * max(1.0, abs(term_a) + abs(term_b))
        if abs(wr - 1.0) > tol:
            raise RuntimeError(
                f"irregular-partner consistency broke at x={point!r}: "
                f"Wronskian {wr!r}"
            )
    if x >= z:
        return 0.0
    return -2.0 * (chi_x[0] * chi_z[2] - chi_x[2] * chi_z[0])


def _psi_at(m: SquareWellModel, x: float) -> float:
    return float(ground_state_values(m, np.array([x]))[0])


def _psi_slope_at(m: SquareWellModel, x: float) -> float:
    s, pref, barrier, mid_den, left_pref = _psi_coefficients(m)
    if x > m.alpha:
        u = m.gamma - x
        # d/dx of the continued sin(r u)/r is -cos(r u) on both branches
        if s > 0.0:
            return -pref * cos(sqrt(s) * u)
        if s == 0.0:
            return -pref
        return -pref * cosh(sqrt(-s) * u)
    if x >= -m.alpha:
        return barrier * m.q * sinh(m.q * (x - m.delta)) / mid_den
    return left_pref * m.p * cos(m.p * (x + m.gamma))


def wronskian_overlap_residuals(
    m: SquareWellModel, grid: Grid
) -> tuple[float, float]:
    """Consistency between cross overlaps and the trial/ground Wronskian.

    On each side of the origin the running overlap integral of trial and
    ground state, times that side's squared-wavenumber gap, must equal the
    Wronskian of the pair at the running endpoint; summed at the origin
    the two sides cancel, which is exactly what fixes the energy shift as
    the overlap ratio. Returns ``(origin_sum, pointwise_max)``, both as
    relative residuals.

    Each side's coefficient ``E - E_a`` or ``E - E_b`` is formed by
    cancellation, so the residuals carry at least its relative roundoff,
    ulp(max(|E|, |E_side|)) / |E - E_side|. Raises RegimeError when that
    figure exceeds 1e-8 on either side (deep tunneling, or mu = 0 where
    the gap is zero): there the residuals measure roundoff, not
    consistency.
    """
    cancellation = max(
        ulp(max(abs(m.E), abs(e))) / abs(m.E - e) if m.E != e else inf
        for e in (m.E_a, m.E_b)
    )
    if cancellation > 1e-8:
        raise RegimeError(
            f"energy gap cancellation {cancellation:.2e} exceeds 1e-8; "
            "the residuals would measure roundoff"
        )
    prod = trial_values(m, grid.nodes) * ground_state_values(m, grid.nodes)
    # running integral from x up to the right wall (the "right" anchor is
    # traversed leftward, hence the sign flip)
    cum_right = -cumulative_from(Samples(grid, prod), "right").values
    cum_left = cumulative_from(Samples(grid, prod), "left").values
    coef_right = m.E - m.E_a
    coef_left = m.E - m.E_b

    worst = 0.0
    nodes = grid.nodes
    inner = (nodes > grid.x_min + 1e-9) & (nodes < grid.x_max - 1e-9)
    # a handful of probe nodes per region, clear of the interfaces
    probes: list[int] = []
    for lo, hi in (
        (-m.gamma, -m.alpha),
        (-m.alpha, 0.0),
        (0.0, m.alpha),
        (m.alpha, m.gamma),
    ):
        span = hi - lo
        for frac in (0.25, 0.5, 0.75):
            target = lo + frac * span
            j = int(np.argmin(np.abs(nodes - target)))
            if inner[j] and abs(abs(nodes[j]) - m.alpha) > 1e-9:
                probes.append(j)
    for j in probes:
        x = float(nodes[j])
        chi, chi_slope, _bar, _bar_slope = _chi(m, x)
        wr = 0.5 * (chi * _psi_slope_at(m, x) - _psi_at(m, x) * chi_slope)
        if x >= 0.0:
            lhs = coef_right * cum_right[j]
            rhs = wr
        else:
            lhs = coef_left * cum_left[j]
            rhs = -wr
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)

    j0 = grid.index_of(0.0)
    term_r = coef_right * cum_right[j0]
    term_l = coef_left * cum_left[j0]
    scale0 = max(abs(term_r) + abs(term_l), 1e-300)
    origin_sum = abs(term_r + term_l) / scale0
    return origin_sum, worst


# ---------------------------------------------------------------------------
# two-level reduction


@dataclass(frozen=True)
class TwoLevelModel:
    """Tunneling physics reduced to a symmetric 2x2 matrix.

    Basis states are the two isolated-well ground states; lam is the
    tunneling coupling, mu_sq the diagonal offset of the raised well.
    E is the ground eigenvalue of the full matrix; E_a and E_b are the
    ground eigenvalues with the offset shared equally and removed,
    E_od the excited zero-offset eigenvalue. The ground eigenvalue sits
    below both diagonal entries, and above E_b whenever the offset is
    positive (the offset only pushes the asymmetric ground state up).
    """

    E_inf: float
    lam: float
    mu_sq: float
    E: float
    E_a: float
    E_b: float
    E_od: float
    mixing_angle: float

    def __post_init__(self) -> None:
        scale = max(abs(self.E_inf), abs(self.lam), self.mu_sq, 1e-300)
        tol = 1e-12 * scale
        if abs((self.E_od - self.E_b) - 2.0 * self.lam) > tol:
            raise ValueError("even-odd gap must equal twice the coupling")
        if self.E > self.E_inf + tol or self.E > self.E_a + tol:
            raise ValueError("ground eigenvalue must not exceed the diagonal")
        if self.E < self.E_b - tol:
            raise ValueError("positive offset cannot pull the ground state "
                             "below the zero-offset eigenvalue")


def two_level(E_inf: float, lam: float, mu_sq: float) -> TwoLevelModel:
    """Spectrum and mixing angle of the two-level tunneling matrix."""
    if not lam > 0.0:
        raise ValueError("tunneling coupling must be positive")
    quarter = 0.25 * mu_sq
    E = E_inf + quarter - sqrt(lam * lam + quarter * quarter)
    return TwoLevelModel(
        E_inf=E_inf,
        lam=lam,
        mu_sq=mu_sq,
        E=E,
        E_a=E_inf + 0.5 * mu_sq - lam,
        E_b=E_inf - lam,
        E_od=E_inf + lam,
        mixing_angle=0.5 * atan2(4.0 * lam, mu_sq),
    )


def two_level_from_model(m: SquareWellModel) -> TwoLevelModel:
    """Two-level reduction with parameters read off a solved double well."""
    return two_level(0.5 * (m.E_b + m.E_od), m.lam, m.mu**2)


# ---------------------------------------------------------------------------
# engine adapter


def build_squarewell_problem(m: SquareWellModel, grid: Grid) -> FullLineProblem:
    """Package the stitched trial for the engine: its perturbation is the
    comparison-well gap E_a - E_b on the left half, zero on the right."""
    return _full_line_problem(
        trial_log_samples(m, grid),
        potential_samples(m, grid),
        m.E_a,
        m.E_b,
        f"squarewell(W={m.W:g}, mu={m.mu:g}, alpha={m.alpha:g}, beta={m.beta:g})",
    )


def iterate_squarewell(
    m: SquareWellModel,
    grid: Grid,
    opts: IterateOptions = IterateOptions(),
    case: Case = "A",
) -> IterationTrace:
    """Run the iteration engine on the analytic trial state.

    The step is on the left, so Case A anchors f at the right wall and
    Case B at the left one.
    """
    return iterate_full_line(build_squarewell_problem(m, grid), case, opts)


# ---------------------------------------------------------------------------
# polynomial iterates in the outer region


def _poly_trim(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _poly_scale(a: Sequence[Fraction], s: Fraction) -> tuple[Fraction, ...]:
    return tuple(s * c for c in a)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_diff(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a[i] * i for i in range(1, len(a)))


def _poly_eval(a: Sequence[Fraction], x: float) -> float:
    out = 0.0
    for c in reversed(a):
        out = out * x + float(c)
    return out


@dataclass(frozen=True)
class PolyIterate:
    """One closed-form iterate in the outer region, exact coefficients.

    The iterate is (prod of couplings) * (S(z) sin z + C(z) cos z) in the
    scaled wall distance z, where S and C are polynomials with rational
    coefficients determined by the source-driven recursion and the
    unit-slope wall normalization.
    """

    n: int
    S_coeffs: tuple[Fraction, ...]
    C_coeffs: tuple[Fraction, ...]
    eps_list: tuple[Fraction, ...]

    @property
    def coupling_product(self) -> Fraction:
        out = Fraction(1)
        for e in self.eps_list:
            out *= e
        return out

    @property
    def sin_coeffs(self) -> tuple[Fraction, ...]:
        return _poly_scale(self.S_coeffs, self.coupling_product)

    @property
    def cos_coeffs(self) -> tuple[Fraction, ...]:
        return _poly_scale(self.C_coeffs, self.coupling_product)

    def value(self, xi: float) -> float:
        return _poly_eval(self.sin_coeffs, xi) * sin(xi) + _poly_eval(
            self.cos_coeffs, xi
        ) * cos(xi)


def poly_iterates(n: int, eps_list: Sequence[object]) -> list[PolyIterate]:
    """Closed-form outer-region iterates 1..n for the given couplings.

    Each step solves the coupled polynomial system (second derivative and
    cross-derivative against the previous sine and cosine parts) exactly
    in rational arithmetic, fixes the cosine part to vanish at the wall,
    and normalizes the slope there to one. The computed pair is
    substituted back and must reproduce the previous pair identically,
    otherwise the ansatz degree was too small and this raises.
    """
    if n < 1:
        raise ValueError("need at least one iterate")
    if len(eps_list) < n:
        raise ValueError("one coupling per iterate is required")
    eps = tuple(Fraction(e) for e in eps_list[:n])  # type: ignore[arg-type]
    if any(e == 0 for e in eps):
        raise ValueError("couplings must be nonzero")

    s_prev: tuple[Fraction, ...] = (Fraction(1),)
    c_prev: tuple[Fraction, ...] = (Fraction(0),)
    inv_prod = Fraction(1)
    out: list[PolyIterate] = []
    for step in range(1, n + 1):
        inv_prod /= eps[step - 1]
        size = max(len(s_prev), len(c_prev)) + 2
        a = list(s_prev) + [Fraction(0)] * (size - len(s_prev))
        b = list(c_prev) + [Fraction(0)] * (size - len(c_prev))
        s = [Fraction(0)] * (size + 2)
        c = [Fraction(0)] * (size + 2)
        for i in range(size - 2, -1, -1):
            c[i + 1] = (Fraction((i + 2) * (i + 1)) * s[i + 2] - a[i]) / (
                2 * (i + 1)
            )
            s[i + 1] = (b[i] - Fraction((i + 2) * (i + 1)) * c[i + 2]) / (
                2 * (i + 1)
            )
        c[0] = Fraction(0)
        s[0] = inv_prod - c[1]
        s_n = _poly_trim(s)
        c_n = _poly_trim(c)

        dd_s = _poly_diff(_poly_diff(s_n))
        dd_c = _poly_diff(_poly_diff(c_n))
        lhs1 = _poly_trim(_poly_add(dd_s, _poly_scale(_poly_diff(c_n), Fraction(-2))))
        lhs2 = _poly_trim(_poly_add(dd_c, _poly_scale(_poly_diff(s_n), Fraction(2))))
        if lhs1 != _poly_trim(s_prev) or lhs2 != _poly_trim(c_prev):
            raise ValueError(f"iterate {step}: polynomial recursion failed to close")

        out.append(PolyIterate(n=step, S_coeffs=s_n, C_coeffs=c_n, eps_list=eps[:step]))
        s_prev, c_prev = s_n, c_n
    return out


# ---------------------------------------------------------------------------
# exact outer-region profile and its fixed-coupling power series


def exact_v(eps: float, xi: float) -> float:
    """Exact outer-region profile with unit slope at the wall.

    sin(xi sqrt(1-eps))/sqrt(1-eps); continues to xi at eps = 1 and to the
    hyperbolic branch for eps > 1 (the energy below the raised floor).
    """
    h = 1.0 - eps
    if h > 0.0:
        r = sqrt(h)
        return sin(xi * r) / r
    if h == 0.0:
        return xi
    r = sqrt(-h)
    return sinh(xi * r) / r


def _binom_series(a: Fraction, order: int) -> list[Fraction]:
    """Coefficients of (1 - e)^a in powers of e, through e^order."""
    out = [Fraction(1)]
    num = Fraction(1)
    for k in range(1, order + 1):
        num *= a - (k - 1)
        out.append(num / factorial(k) * (-1) ** k)
    return out


@lru_cache(maxsize=None)
def series_coefficients(
    order: int,
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """Exact expansion of the outer profile in powers of the coupling.

    Returns (sin_parts, cos_parts); entry k of each is the polynomial in
    the scaled wall distance multiplying e^k sin or e^k cos. Derived by
    composing the shifted-argument sine with the binomial series rather
    than transcribed, so it can cross-check independently derived forms.
    """
    if order < 0 or order > 3:
        raise ValueError("series is specified through third order only")
    # shift s(e) = 1 - sqrt(1-e); the argument is xi*(1 - s) = xi - xi*s
    root = _binom_series(Fraction(1, 2), order)
    shift = [-c for c in root]
    shift[0] = Fraction(0)
    inv_root = _binom_series(Fraction(-1, 2), order)

    zero_poly: tuple[Fraction, ...] = ()
    xs: list[tuple[Fraction, ...]] = [
        (Fraction(0), shift[k]) if shift[k] != 0 else zero_poly
        for k in range(order + 1)
    ]

    def es_mul(
        A: Sequence[tuple[Fraction, ...]], B: Sequence[tuple[Fraction, ...]]
    ) -> list[tuple[Fraction, ...]]:
        out: list[tuple[Fraction, ...]] = [zero_poly] * (order + 1)
        for ka, pa in enumerate(A):
            if not pa:
                continue
            for kb in range(0, order + 1 - ka):
                pb = B[kb]
                if not pb:
                    continue
                out[ka + kb] = _poly_add(out[ka + kb], _poly_mul(pa, pb))
        return out

    one = [(Fraction(1),)] + [zero_poly] * order
    cos_shift = [p for p in one]
    sin_shift = [zero_poly] * (order + 1)
    power = one
    for mth in range(1, order + 1):
        power = es_mul(power, xs)
        term = Fraction((-1) ** (mth // 2), factorial(mth))
        scaled = [_poly_scale(p, term) for p in power]
        if mth % 2:
            sin_shift = [_poly_add(u, v) for u, v in zip(sin_shift, scaled)]
        else:
            cos_shift = [_poly_add(u, v) for u, v in zip(cos_shift, scaled)]

    inv = [(c,) if c != 0 else zero_poly for c in inv_root]
    sin_parts = es_mul(inv, cos_shift)
    cos_parts = [_poly_scale(p, Fraction(-1)) for p in es_mul(inv, sin_shift)]
    return tuple(sin_parts), tuple(cos_parts)


def exact_v_series(eps: float, xi: float, order: int) -> float:
    """Partial sum of the fixed-coupling expansion of the outer profile.

    Converges only for |eps| < 1; past that the partial sums drift away
    from the exact profile, which is the textbook contrast with the
    iteration (whose per-step couplings shrink as the energy settles).
    """
    sin_parts, cos_parts = series_coefficients(order)
    total = 0.0
    ek = 1.0
    for k in range(order + 1):
        total += ek * (
            _poly_eval(sin_parts[k], xi) * sin(xi)
            + _poly_eval(cos_parts[k], xi) * cos(xi)
        )
        ek *= eps
    return total


# ---------------------------------------------------------------------------
# four-region first iteration


@dataclass(frozen=True)
class RegionSolution:
    """Closed-form first iterate in the four regions of the box.

    eps holds the per-region coupling (outer right, barrier right,
    barrier left, outer left); the barrier and left-well amplitudes are
    fixed by continuity at the right well edge, the origin, and the left
    well edge in that order. The left-edge slope mismatch is not used to
    fix anything, so it is recorded in ``residuals`` as an independent
    consistency check on the first-iteration energy.
    """

    model: SquareWellModel
    E1: float
    eps: tuple[float, float, float, float]
    kappa_II: float
    rho_II: float
    kappa_III: float
    rho_III: float
    kappa_IV: float
    residuals: Mapping[str, float] = field(default_factory=dict)

    def value(self, x: np.ndarray) -> np.ndarray:
        m = self.model
        x = np.asarray(x, dtype=np.float64)
        e1, e2, e3, e4 = self.eps
        pa, pb = m._amplitudes

        xi_i = m.k_a * (m.gamma - x)
        r_i = pa * ((1.0 + 0.5 * e1) * np.sin(xi_i) - 0.5 * e1 * xi_i * np.cos(xi_i))
        xi_ii = m.q_a * x
        r_ii = (self.kappa_II + 0.5 * e2 * xi_ii) * np.sinh(xi_ii) + (
            self.rho_II * np.cosh(xi_ii)
        )
        xi_iii = -m.q_b * x
        r_iii = (self.kappa_III + 0.5 * e3 * xi_iii) * np.sinh(xi_iii) + (
            self.rho_III * np.cosh(xi_iii)
        )
        xi_iv = m.p_b * (x + m.gamma)
        r_iv = pb * (
            (self.kappa_IV + 0.5 * e4) * np.sin(xi_iv)
            - 0.5 * e4 * xi_iv * np.cos(xi_iv)
        )
        return np.where(
            x > m.alpha,
            r_i,
            np.where(x >= 0.0, r_ii, np.where(x >= -m.alpha, r_iii, r_iv)),
        )


def region_solution_n1(m: SquareWellModel) -> RegionSolution:
    """First iterate assembled region by region from its local closed forms.

    The first-step energy comes from the closed-form overlaps; each region
    then has a two-parameter family of solutions of the driven equation,
    pinned down by value and slope continuity marching leftward from the
    right wall. The final slope condition at the left well edge is
    overdetermined and must close on its own; its residual is reported.
    """
    e_hat1 = m.E_a - first_iteration_energy(m)
    E1 = m.E_a - e_hat1
    e1 = 2.0 * (m.E_a - E1) / m.k_a**2
    e2 = 2.0 * (m.E_a - E1) / m.q_a**2
    e3 = 2.0 * (m.E_b - E1) / m.q_b**2
    e4 = 2.0 * (m.E_b - E1) / m.p_b**2

    pa, pb = m._amplitudes
    kb = m.k_a * m.beta
    val_right = pa * ((1.0 + 0.5 * e1) * sin(kb) - 0.5 * e1 * kb * cos(kb))
    slope_right = -m.k_a * pa * (cos(kb) + 0.5 * e1 * kb * sin(kb))

    qa_al = m.q_a * m.alpha
    sh, ch = sinh(qa_al), cosh(qa_al)
    r1 = val_right - 0.5 * e2 * qa_al * sh
    r2 = slope_right / m.q_a - 0.5 * e2 * qa_al * ch - 0.5 * e2 * sh
    kappa_ii = ch * r2 - sh * r1
    rho_ii = ch * r1 - sh * r2

    rho_iii = rho_ii
    kappa_iii = -(m.q_a / m.q_b) * kappa_ii

    qb_al = m.q_b * m.alpha
    sh3, ch3 = sinh(qb_al), cosh(qb_al)
    val_left = (kappa_iii + 0.5 * e3 * qb_al) * sh3 + rho_iii * ch3
    slope_left = -m.q_b * (
        (kappa_iii + 0.5 * e3 * qb_al) * ch3 + (rho_iii + 0.5 * e3) * sh3
    )

    pbb = m.p_b * m.beta
    spb, cpb = sin(pbb), cos(pbb)
    if spb == 0.0 or abs(pb) == 0.0:
        raise RegimeError("degenerate outer-well phase, cannot match regions")
    kappa_iv = (val_left / pb + 0.5 * e4 * pbb * cpb) / spb - 0.5 * e4
    slope_iv = m.p_b * pb * (kappa_iv * cpb + 0.5 * e4 * pbb * spb)
    scale = max(abs(slope_left), abs(slope_iv), 1e-300)
    residuals = {
        "slope_gap_left_edge": (slope_iv - slope_left) / scale,
    }
    return RegionSolution(
        model=m,
        E1=E1,
        eps=(e1, e2, e3, e4),
        kappa_II=kappa_ii,
        rho_II=rho_ii,
        kappa_III=kappa_iii,
        rho_III=rho_iii,
        kappa_IV=kappa_iv,
        residuals=residuals,
    )
