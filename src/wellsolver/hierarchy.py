"""Certified iterative refinement of a trial ground state.

Starting from a trial phi with exactly solved modified potential V + w,
each step fixes an energy shift and a ratio correction:

    shift_n = [w f_{n-1}] / [f_{n-1}],         [F] = integral phi^2 F dx
    sigma_n = phi^2 (w - shift_n) f_{n-1},     total charge exactly zero
    D_n(x)  = cumulative integral of sigma_n,  zero at both domain ends
    f_n'    = -2 phi^{-2} D_n,                 f_n = 1 at the anchor edge

Anchoring f at the far edge ("Case A") yields shifts that climb
monotonically and energies E_n = E0 - shift_n that descend as upper
bounds; anchoring at the origin ("Case B") yields an alternating sequence
whose even and odd subsequences sandwich the true energy. ``certify``
checks those orderings on an actual run and reports margins instead of
trusting the theory.

The ratio phi^{-2}(x) D_n(x) spans the square of phi's dynamic range if
evaluated literally. The engine instead scans the charge density once
from each end, switching at the node where w - shift_n changes sign, so
every partial integral is single-signed and carried relative to the local
log-amplitude; no intermediate ever overflows, underflows, or cancels
catastrophically. Everything those scans and the brackets need that
depends only on phi, the grid and w's jump nodes (the block partition,
the per-block scale factors, the bracket weights) is built once per run
into a ``_Plan``, and ``_step`` runs one iteration on raw arrays from
it. ``_step`` is the package's only implementation of the update: every
problem, half line or full line, iterates through it.

Two-stage full-line pipeline: solve the two half-line problems
independently (Case A), glue chi = phi * f at the origin, and iterate on
the full line where the leftover perturbation is a step of height
|E_a - E_b| at the origin (``_step_at_origin``, shared with the analytic
square well). ``iterate_full_line`` takes the case: Case A anchors f at
the step-free edge, Case B at the step's edge.

Every trial reaching the engine has a monotone w, in either direction:
``TrialFunction`` checks that once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, ulp
from typing import Literal, Mapping

import numpy as np

from .grid import (
    Grid,
    Samples,
    _pair_increments,
    concat_grids,
    cumulative_from,
    integrate,
    mirror_grid,
)
from .ordering import (
    Case,
    IterateOptions,
    PairVerdict,
    _floor,
    certify_shift_sequence,
)
from .trialgen import TrialFunction

__all__ = [
    "IterationState",
    "IterationTrace",
    "CertificationReport",
    "PairVerdict",
    "FullLineProblem",
    "HalfLinePair",
    "IterateOptions",
    "HalfLineStageError",
    "iterate",
    "certify",
    "certify_shift_sequence",
    "solve_half_line_pair",
    "glue_full_line",
    "iterate_full_line",
]

Anchor = Literal["left", "right"]

# Per-block cap on the log-amplitude range (in 2L units) of the scaled
# scans; e^{+-cap} stays far from both float64 overflow and denormals.
_BLOCK_LOG_RANGE = 300.0

# A gap between the two half-line energies of at most this many ulps of
# the larger one is roundoff, not a step (see ``glue_full_line``).
_GAP_ULPS = 4


class HalfLineStageError(RuntimeError):
    """A half-line stage of the full-line pipeline stopped unconverged."""

    def __init__(self, label: str, stop_reason: str) -> None:
        super().__init__(f"half-line stage '{label}' did not converge: {stop_reason}")
        self.label = label
        self.stop_reason = stop_reason


@dataclass(frozen=True, eq=False)
class IterationState:
    """One step of the recursion: shift, energy, ratio and charge brackets.

    ``bracket_wf`` and ``bracket_f`` are [w f_{n-1}] and [f_{n-1}].
    Derived: ``charge_total``, what remains of [(w - shift_n) f_{n-1}],
    and ``charge_residual``.
    """

    n: int
    f: Samples
    E_shift: float
    E_n: float
    bracket_wf: float = 0.0
    bracket_f: float = 0.0

    @property
    def charge_total(self) -> float:
        return self.bracket_wf - self.E_shift * self.bracket_f

    @property
    def charge_residual(self) -> float:
        """|total charge| over the natural scale [w f] + shift [f]."""
        scale = abs(self.bracket_wf) + abs(self.E_shift * self.bracket_f)
        if scale == 0.0:
            return 0.0
        return abs(self.charge_total) / scale


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Full record of a run; states[0] is the seed f0 == 1.

    Derived: ``E0``, the seed's energy; ``converged``, a stop on tolerance;
    ``E_limit`` and ``f_limit``, the last state's if converged, else None.
    """

    case: Case
    states: tuple[IterationState, ...]
    stop_reason: Literal[
        "tolerance", "max_iter", "positivity_violation", "nonfinite"
    ]
    anchor: Anchor
    label: str = ""

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    @property
    def E0(self) -> float:
        return self.states[0].E_n

    @property
    def E_limit(self) -> float | None:
        return self.states[-1].E_n if self.converged else None

    @property
    def f_limit(self) -> Samples | None:
        return self.states[-1].f if self.converged else None

    @property
    def shifts(self) -> tuple[float, ...]:
        return tuple(s.E_shift for s in self.states)

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(s.E_n for s in self.states)


@dataclass(frozen=True)
class CertificationReport:
    """The ordering verdicts of one run. Derived from them: ``degenerate``
    (w = 0, a fixed point), ``ok`` (all pass) and ``worst_margin`` (the
    smallest finite margin, NaN if none)."""

    case: Case
    energy_verdicts: tuple[PairVerdict, ...]
    f_verdicts: tuple[PairVerdict, ...]
    cross_verdicts: tuple[PairVerdict, ...]
    notes: tuple[str, ...] = ()

    @property
    def _verdicts(self) -> tuple[PairVerdict, ...]:
        return (*self.energy_verdicts, *self.f_verdicts, *self.cross_verdicts)

    @property
    def degenerate(self) -> bool:
        return any(v.kind == "degenerate_w_zero" for v in self.energy_verdicts)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self._verdicts)

    @property
    def worst_margin(self) -> float:
        margins = [v.margin for v in self._verdicts if np.isfinite(v.margin)]
        return min(margins) if margins else float("nan")


@dataclass(frozen=True, eq=False)
class HalfLinePair:
    """Converged Case-A traces of the two half-line problems; ``E_plus``
    and ``E_minus``, their limits, are derived."""

    trace_plus: IterationTrace
    trace_minus: IterationTrace

    @property
    def E_plus(self) -> float:
        return float(self.trace_plus.E_limit)  # type: ignore[arg-type]

    @property
    def E_minus(self) -> float:
        return float(self.trace_minus.E_limit)  # type: ignore[arg-type]


@dataclass(frozen=True, eq=False)
class FullLineProblem:
    """Glued second-stage problem: trial chi, whose w is the step at the
    origin, the two channel energies and the side the step lifts."""

    chi: TrialFunction
    E_a: float
    E_b: float
    step_side: Literal["left", "right", "none"]


def _segment_blocks(L_seg: np.ndarray) -> list[tuple[int, int]]:
    """Split a segment's nodes into pair-aligned blocks of bounded L range.

    Greedy from the left: each block ends at the first pair boundary where
    its running L range (in 2L units) exceeds ``_BLOCK_LOG_RANGE``.
    """
    n = L_seg.size - 1  # panels, even
    if 2.0 * (float(np.max(L_seg)) - float(np.min(L_seg))) <= _BLOCK_LOG_RANGE:
        return [(0, n)]
    blocks: list[tuple[int, int]] = []
    start = 0
    while start < n:
        tail = L_seg[start:]
        hi = np.maximum.accumulate(tail)[2::2]
        lo = np.minimum.accumulate(tail)[2::2]
        with np.errstate(invalid="ignore"):
            (over,) = np.nonzero(2.0 * (hi - lo) > _BLOCK_LOG_RANGE)
        end = start + 2 * (int(over[0]) + 1) if over.size else n
        blocks.append((start, end))
        start = end
    return blocks


@dataclass(frozen=True, eq=False)
class _Block:
    """Run-invariant factors of one scan block, nodes j0..j1 of a segment.

    Partial sums inside the block are carried relative to its maximum
    log-amplitude M: ``damp`` = e^{2(L - M)} scales the charge density
    down, ``grow`` = e^{2(M - L)} turns the scaled cumulative back into a
    ratio (0 at a hard-wall zero, where the charge integral vanishes one
    order faster than phi^2), and ``carry_left``/``carry_right`` =
    e^{2(L[edge] - M)} rescale the ratio handed over at the block edge a
    scan enters through. ``zeros`` masks the nodes where ``damp`` is 0
    (None if there are none). ``jump_first``/``jump_last`` flag a segment
    edge where the integrand's one-sided jump value replaces the node value.
    """

    j0: int
    j1: int
    h: float
    damp: np.ndarray
    grow: np.ndarray
    zeros: np.ndarray | None
    carry_left: float
    carry_right: float
    jump_first: bool
    jump_last: bool


@dataclass(frozen=True, eq=False)
class _Plan:
    """Everything a run's iterations share: blocks and bracket weights.

    Depends only on the trial's log-amplitude L, the grid and the jump
    nodes of w; built once per run by :func:`_make_plan`.
    """

    grid: Grid
    blocks: tuple[_Block, ...]
    w: np.ndarray
    w_jumps: Mapping[int, tuple[float, float]]
    ref: float
    weight: np.ndarray
    jump_weight: Mapping[int, float]
    scale: float

    def bracket(
        self, vals: np.ndarray, jumps: Mapping[int, tuple[float, float]]
    ) -> float:
        """[F] = integral of e^{2L} F, rescaled by e^{2 ref} as ``grid.bracket``."""
        if self.ref == -np.inf:
            return 0.0
        jw = self.jump_weight
        weighted = Samples(
            self.grid,
            vals * self.weight,
            jumps={j: (lo * jw[j], hi * jw[j]) for j, (lo, hi) in jumps.items()},
        )
        return self.scale * integrate(weighted)

    def scan_left(
        self,
        q: np.ndarray,
        jumps: Mapping[int, tuple[float, float]],
        R: np.ndarray,
        stop: int,
    ) -> None:
        """R[:stop + 1] = e^{-2L} * integral from x_min of e^{2L} q.

        Every partial sum is carried relative to its block's maximum
        log-amplitude, so the result is forward-stable even where e^{2L}
        under- or overflows. Walls with L = -inf contribute zero exactly
        (their damp factor vanishes; no inf - inf is ever formed).
        """
        edge = None
        for b in self.blocks:
            if b.j0 > stop:
                break
            k = min(b.j1, stop) - b.j0  # panels needed from this block
            n = k + (k & 1)  # rounded up to whole Simpson pairs
            damp = b.damp[: n + 1]
            u = q[b.j0 : b.j0 + n + 1] * damp
            if b.jump_first:
                u[0] = jumps[b.j0][1] * damp[0]
            if b.jump_last and n == b.j1 - b.j0:
                u[-1] = jumps[b.j1][0] * damp[-1]
            if b.zeros is not None:
                u[b.zeros[: n + 1]] = 0.0  # covers q = +-inf walls paired with L = -inf
            csum = np.concatenate(((0.0,), np.cumsum(_pair_increments(u, b.h))))
            carry = edge * b.carry_left if edge else 0.0
            R[b.j0 : b.j0 + k + 1] = (carry + csum[: k + 1]) * b.grow[: k + 1]
            edge = R[b.j1] if b.j1 <= stop else None

    def scan_right(
        self,
        q: np.ndarray,
        jumps: Mapping[int, tuple[float, float]],
        R: np.ndarray,
        start: int,
    ) -> None:
        """R[start:] = -e^{-2L} * integral to x_max of e^{2L} q; see scan_left."""
        edge = None
        for b in reversed(self.blocks):
            if b.j1 < start:
                break
            s = max(b.j0, start) - b.j0  # first node needed from this block
            s2 = s - (s & 1)  # rounded down to whole Simpson pairs
            damp = b.damp[s2:]
            u = q[b.j0 + s2 : b.j1 + 1] * damp
            if b.jump_first and s2 == 0:
                u[0] = jumps[b.j0][1] * damp[0]
            if b.jump_last:
                u[-1] = jumps[b.j1][0] * damp[-1]
            if b.zeros is not None:
                u[b.zeros[s2:]] = 0.0
            inc = _pair_increments(u, b.h)
            rsum = np.concatenate((np.cumsum(inc[::-1])[::-1], (0.0,)))
            carry = -edge * b.carry_right if edge else 0.0
            R[b.j0 + s : b.j1 + 1] = -(carry + rsum[s - s2 :]) * b.grow[s:]
            edge = R[b.j0] if b.j0 >= start else None

    def ratio(
        self, q: np.ndarray, jumps: Mapping[int, tuple[float, float]]
    ) -> np.ndarray:
        """Ratio R = phi^{-2} D with the scan switch at the charge sign change.

        Left of the switch the charge density is nonnegative, right of it
        nonpositive (w decreasing), so each scan accumulates a
        single-signed integrand and the ratio never suffers cancellation.
        Each scan runs only over its own side of the switch node. R is
        exactly 0 at both domain ends by construction; the two scans'
        agreement at the switch node is the numerical zero-total-charge
        statement.
        """
        positive = q > 0.0
        for j, (lo, _hi) in jumps.items():
            positive[j] = lo > 0.0
        (idx,) = np.nonzero(positive)
        m = int(idx[-1]) if idx.size else 0
        R = np.empty(q.size)
        self.scan_right(q, jumps, R, m + 1 if m > 0 else 0)
        if m > 0:
            self.scan_left(q, jumps, R, m)
        return R


def _make_plan(trial: TrialFunction) -> _Plan:
    """Hoist the run-invariant scan and bracket factors out of the loop."""
    grid = trial.grid
    L = trial.log_phi.values
    w = trial.w
    blocks = []
    for i0, i1, h in grid.segments:
        L_seg = L[i0 : i1 + 1]
        n_seg = i1 - i0
        for b0, b1 in _segment_blocks(L_seg):
            L_blk = L_seg[b0 : b1 + 1]
            M = float(np.max(L_blk))
            with np.errstate(under="ignore", over="ignore"):
                damp = np.exp(2.0 * (L_blk - M))
                grow = np.exp(2.0 * (M - L_blk))
            grow[np.isinf(grow)] = 0.0
            zeros = damp == 0.0
            blocks.append(
                _Block(
                    j0=i0 + b0,
                    j1=i0 + b1,
                    h=h,
                    damp=damp,
                    grow=grow,
                    zeros=zeros if zeros.any() else None,
                    carry_left=exp(2.0 * (L[i0 + b0] - M)),
                    carry_right=exp(2.0 * (L[i0 + b1] - M)),
                    jump_first=b0 == 0 and i0 in w.jumps,
                    jump_last=b1 == n_seg and i1 in w.jumps,
                )
            )
    ref = float(np.max(L))
    return _Plan(
        grid=grid,
        blocks=tuple(blocks),
        w=w.values,
        w_jumps=w.jumps,
        ref=ref,
        weight=np.exp(2.0 * (L - ref)),
        jump_weight={j: float(np.exp(2.0 * (L[j] - ref))) for j in w.jumps},
        scale=float(np.exp(2.0 * ref)),
    )


def _step(
    plan: _Plan, fv: np.ndarray, anchor: Anchor
) -> tuple[float, float, float, np.ndarray]:
    """One iteration on raw arrays: [w f], [f], the shift and the new f."""
    wf_jumps = {j: (lo * fv[j], hi * fv[j]) for j, (lo, hi) in plan.w_jumps.items()}
    num = plan.bracket(plan.w * fv, wf_jumps)
    den = plan.bracket(fv, {})
    shift = 0.0 if num == 0.0 else num / den
    q_jumps = {
        j: ((lo - shift) * fv[j], (hi - shift) * fv[j])
        for j, (lo, hi) in plan.w_jumps.items()
    }
    R = plan.ratio((plan.w - shift) * fv, q_jumps)
    f_new = 1.0 - 2.0 * cumulative_from(Samples(plan.grid, R), anchor).values
    return num, den, shift, f_new


def _run_engine(
    trial: TrialFunction, case: Case, anchor: Anchor, opts: IterateOptions
) -> IterationTrace:
    grid = trial.grid
    tol_e_abs = opts.tol_e * abs(trial.E0)
    plan = _make_plan(trial)

    f = Samples(grid, np.ones(grid.n_nodes))
    states = [IterationState(n=0, f=f, E_shift=0.0, E_n=trial.E0)]
    stop_reason: str = "max_iter"
    for n in range(1, opts.max_iter + 1):
        fv = f.values
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow or NaN here ends the run as "nonfinite" below
            num, den, shift, f_new = _step(plan, fv, anchor)
        d_shift = abs(shift - states[-1].E_shift)
        d_f = float(np.max(np.abs(f_new - fv)))
        f = Samples(grid, f_new)
        states.append(
            IterationState(
                n=n,
                f=f,
                E_shift=shift,
                E_n=trial.E0 - shift,
                bracket_wf=num,
                bracket_f=den,
            )
        )
        if not (isfinite(shift) and isfinite(d_f)):
            stop_reason = "nonfinite"
            break
        if case == "B" and np.any(f_new <= 0.0):
            stop_reason = "positivity_violation"
            break
        if d_shift < tol_e_abs and d_f < opts.tol_f:
            stop_reason = "tolerance"
            break

    return IterationTrace(
        case, tuple(states), stop_reason, anchor, trial.label  # type: ignore[arg-type]
    )


def iterate(
    trial: TrialFunction,
    case: Case,
    opts: IterateOptions = IterateOptions(),
) -> IterationTrace:
    """Run the half-line recursion under the chosen boundary normalization.

    Case A anchors f = 1 at the truncation edge (shift sequence ascends,
    energies descend as upper bounds, any perturbation size); Case B
    anchors f = 1 at the origin (alternating sequence, interleaved bounds,
    fails by positivity_violation when w is too large).
    """
    if case not in ("A", "B"):
        raise ValueError("case must be 'A' or 'B'")
    if trial.domain_kind != "half_line_even":
        raise ValueError("iterate runs half-line trials; see iterate_full_line")
    anchor: Anchor = "right" if case == "A" else "left"
    return _run_engine(trial, case, anchor, opts)


def solve_half_line_pair(
    tplus: TrialFunction,
    tminus: TrialFunction,
    opts: IterateOptions = IterateOptions(),
) -> HalfLinePair:
    """Converge both half-line problems under Case A and return the limits.

    Raises HalfLineStageError, carrying the stage's stop reason, when either
    stage ends without converging.
    """
    out = []
    for t in (tplus, tminus):
        trace = iterate(t, "A", opts)
        if not trace.converged:
            raise HalfLineStageError(t.label, trace.stop_reason)
        out.append(trace)
    return HalfLinePair(*out)


def glue_full_line(
    half: HalfLinePair, tplus: TrialFunction, tminus: TrialFunction
) -> FullLineProblem:
    """Join the converged half-line states into one full-line trial.

    chi = phi * f on each side, with the minus side rescaled so
    chi(0-) = chi(0+); both one-sided slopes vanish at 0, so chi is a
    genuine C^1 trial. What remains of the perturbation is the step
    |E_plus - E_minus| on the lower-energy side; the reference eigenvalue
    is the larger half-line energy.

    A gap of at most 4 ulps of max(|E_plus|, |E_minus|) counts as no step
    (``step_side="none"``). Two limits that should agree, as at zero tilt,
    where the minus side runs on the mirrored grid, differ by that much
    roundoff; a step of that height would be iterated as if it were real.
    """
    E_a, E_b = half.E_plus, half.E_minus
    plus_grid = tplus.grid
    minus_grid_mirrored = mirror_grid(tminus.grid)
    full = concat_grids(minus_grid_mirrored, plus_grid)

    log_chi_plus = tplus.log_phi.values + np.log(half.trace_plus.f_limit.values)
    log_chi_minus = tminus.log_phi.values + np.log(half.trace_minus.f_limit.values)
    if not np.isfinite(log_chi_plus[0]) or not np.isfinite(log_chi_minus[0]):
        raise ValueError("degenerate gluing: chi vanishes at the origin")
    # Minus-side normalization enforcing chi(0-) = chi(0+).
    log_chi_minus = log_chi_minus + (log_chi_plus[0] - log_chi_minus[0])
    log_chi = np.concatenate((log_chi_minus[::-1], log_chi_plus[1:]))

    V_full = np.concatenate((tminus.V.values[::-1], tplus.V.values[1:]))
    gap = E_a - E_b
    if abs(gap) <= _GAP_ULPS * ulp(max(abs(E_a), abs(E_b))):
        gap = 0.0
    w, step_side = _step_at_origin(full, gap)

    chi = TrialFunction(
        grid=full,
        log_phi=Samples(full, log_chi, kind="log_amplitude"),
        w=w,
        E0=max(E_a, E_b),
        V=Samples(full, V_full),
        domain_kind="full_line",
        label=f"glued({tplus.label}, {tminus.label})",
    )
    return FullLineProblem(chi=chi, E_a=E_a, E_b=E_b, step_side=step_side)


def _step_at_origin(
    grid: Grid, gap: float
) -> tuple[Samples, Literal["left", "right", "none"]]:
    """Step perturbation of height |gap| at x = 0, and the side it lifts.

    ``gap`` is the right channel's energy minus the left one's; the lower
    channel's side carries the step, and the origin node holds both
    one-sided values.
    """
    j0 = grid.index_of(0.0)
    w_vals = np.zeros(grid.n_nodes)
    if gap > 0.0:
        w_vals[:j0] = gap
        return Samples(grid, w_vals, jumps={j0: (gap, 0.0)}), "left"
    if gap < 0.0:
        w_vals[j0 + 1 :] = -gap
        return Samples(grid, w_vals, jumps={j0: (0.0, -gap)}), "right"
    return Samples(grid, w_vals), "none"


def iterate_full_line(
    p: FullLineProblem,
    case: Case,
    opts: IterateOptions = IterateOptions(),
) -> IterationTrace:
    """Second-stage recursion on the glued problem.

    Case A anchors f = 1 at the step-free edge (the monotone regime), Case
    B at the step's edge (the alternating one). With no step, w is zero
    and the run is Case A at the edge the requested case names: the right
    one for A, the left one for B. The converged energy is chi.E0 minus
    the final shift.
    """
    if case not in ("A", "B"):
        raise ValueError("case must be 'A' or 'B'")
    # a zero step is placed like a left one
    anchor: Anchor = "right" if (case == "A") != (p.step_side == "right") else "left"
    if p.step_side == "none":
        case = "A"
    return _run_engine(p.chi, case, anchor, opts)


def certify(trace: IterationTrace) -> CertificationReport:
    """Check the ordering theorem on an actual run, reporting margins.

    Case A: shifts strictly ascend and f ascends pointwise at every
    interior node. Case B: odd-index shifts ascend, even-index descend,
    every even exceeds every odd, and successive ratios f_{n+1}/f_n are
    monotone with alternating direction. A margin within the relative
    roundoff floor (1e-13) of zero counts as a tie and passes — near
    convergence adjacent iterates agree to machine precision and a sign
    there carries no information; a margin below -floor is a real
    ordering violation and fails.
    """
    case = trace.case
    states = trace.states
    if len(states) < 2:
        raise ValueError("certify needs at least the seed and one iterate")
    shifts = [s.E_shift for s in states[1:]]

    degenerate = all(s == 0.0 for s in shifts) and all(
        np.all(st.f.values == 1.0) for st in states
    )
    if degenerate:
        verdict = PairVerdict("degenerate_w_zero", (0, len(states) - 1), 0.0, True)
        note = "all shifts are exactly zero and every f is exactly 1"
        return CertificationReport(case, (verdict,), (), (), (note,))

    energy_verdicts, cross_verdicts = certify_shift_sequence(shifts, case)
    f_verdicts: list[PairVerdict] = []
    interior = slice(1, -1)
    if case == "A":
        for a, b in zip(states, states[1:]):
            diff = b.f.values[interior] - a.f.values[interior]
            margin = float(np.min(diff))
            fl = _floor(float(np.max(np.abs(b.f.values))))
            f_verdicts.append(
                PairVerdict("f_ascending", (a.n, b.n), margin, margin > -fl)
            )
    else:
        for a, b in zip(states, states[1:]):
            if np.any(a.f.values <= 0.0) or np.any(b.f.values <= 0.0):
                f_verdicts.append(
                    PairVerdict("f_ratio_slope", (a.n, b.n), float("nan"), False)
                )
                continue
            ratio = b.f.values / a.f.values
            d = np.diff(ratio)
            fl = _floor(float(np.max(np.abs(ratio))))
            if a.n % 2 == 0:  # after an even index the ratio must fall
                margin = float(-np.max(d))
            else:  # after an odd index it must rise
                margin = float(np.min(d))
            f_verdicts.append(
                PairVerdict("f_ratio_slope", (a.n, b.n), margin, margin > -fl)
            )

    return CertificationReport(case, energy_verdicts, tuple(f_verdicts), cross_verdicts)
