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
depends only on phi, the grid and w's jump nodes is built once per run
into a ``_Plan``, laid out per Simpson pair: each pair's h/12, its
block's scale factors at its three nodes, the wall masks and the pairs a
jump node overrides, plus the bracket weights and scratch buffers the
steps reuse. ``_step`` runs one iteration on raw arrays from it, with one
whole-grid call of the half-pair kernel each for [w f], [f], the charge
density and the ratio; both scans sum the same charge increments, block
by block. ``_step`` is the package's only implementation of the update:
every problem, half line or full line, iterates through it.

Two-stage full-line pipeline: solve the two half-line problems
independently (Case A), glue chi = phi * f at the origin, and iterate on
the full line where the leftover perturbation is the channel gap
E_a - E_b >= 0, a step lifting the left side of the origin. One
constructor, ``_full_line_problem``, shared with the analytic square
well, builds that step; it refuses a right channel below the left one,
which the caller mirrors instead. ``iterate_full_line`` anchors as
``iterate`` does: Case A at the right edge, Case B at the left one.

Every trial reaching the engine has a nonincreasing w: ``TrialFunction``
checks that once, when it is built, and ``_Plan.ratio`` relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, ulp
from typing import Literal, Mapping

import numpy as np

from .grid import (
    Grid,
    Samples,
    _cumulate,
    _pair_h12,
    _pair_increments,
    _pair_slots,
    concat_grids,
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
# the larger one is roundoff, not a step (see ``_full_line_problem``).
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
    origin, and the two channel energies, right (E_a) and left (E_b).
    Derived: ``step_side``, "left" if there is a step, else "none"."""

    chi: TrialFunction
    E_a: float
    E_b: float

    @property
    def step_side(self) -> Literal["left", "none"]:
        return "left" if self.chi.w.jumps else "none"


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
    log-amplitude M. ``grow`` = e^{2(M - L)} turns the scaled cumulative
    back into a ratio (0 at a hard-wall zero, where the charge integral
    vanishes one order faster than phi^2), and ``carry_left``/
    ``carry_right`` = e^{2(L[edge] - M)} rescale the ratio handed over at
    the block edge a scan enters through. The matching damp factors
    e^{2(L - M)} live per Simpson pair in the plan: blocks are
    pair-aligned, so every pair lies in exactly one block.
    """

    j0: int
    j1: int
    grow: np.ndarray
    carry_left: float
    carry_right: float


@dataclass(frozen=True, eq=False)
class _Plan:
    """Everything a run's iterations share, laid out per Simpson pair.

    Depends only on the trial's log-amplitude L, the grid and the jump
    nodes of w; built once per run by :func:`_make_plan`. Per pair p
    (nodes 2p, 2p + 1, 2p + 2): ``h12``, its spacing over 12, and
    ``damp[:, p]``, its block's damp factor e^{2(L - M)} at the three
    nodes; ``walls`` masks the entries where that factor is 0 (None if
    there are none). ``slots`` maps each jump node of w to the pairs it
    starts and ends (see ``grid._pair_slots``). The bracket weights are
    per node. The remaining fields are scratch buffers the run's steps
    overwrite: every quantity of a step takes one whole-grid call of the
    half-pair kernel, and no step allocates a grid-sized temporary beyond
    the new f.
    """

    grid: Grid
    blocks: tuple[_Block, ...]
    w: np.ndarray
    w_jumps: Mapping[int, tuple[float, float]]
    ref: float
    weight: np.ndarray
    jump_weight: Mapping[int, float]
    scale: float
    h12: np.ndarray
    damp: np.ndarray
    walls: np.ndarray | None
    slots: Mapping[int, tuple[int | None, int | None]]
    node: np.ndarray
    R: np.ndarray
    positive: np.ndarray
    u: np.ndarray
    inc: np.ndarray
    csum: np.ndarray
    work: np.ndarray

    def bracket(
        self, vals: np.ndarray, jumps: Mapping[int, tuple[float, float]]
    ) -> float:
        """[F] = integral of e^{2L} F, rescaled by e^{2 ref} as ``grid.bracket``."""
        if self.ref == -np.inf:
            return 0.0
        v = np.multiply(vals, self.weight, out=self.node)
        a, b, c = v[0:-1:2], v[1::2], v[2::2]
        if jumps:  # overridden copies: a jump node is one pair's c, the next's a
            np.copyto(self.u[0], a)
            np.copyto(self.u[2], c)
            a, c = self.u[0], self.u[2]
            jw = self.jump_weight
            for j, (lo, hi) in jumps.items():
                starts, ends = self.slots[j]
                if starts is not None:
                    a[starts] = hi * jw[j]
                if ends is not None:
                    c[ends] = lo * jw[j]
        inc = _pair_increments(a, b, c, self.h12, self.inc, self.work)
        return self.scale * float(np.cumsum(inc, out=self.csum)[-1])

    def _charge_increments(
        self, q: np.ndarray, jumps: Mapping[int, tuple[float, float]]
    ) -> np.ndarray:
        """Half-pair increments of the damped charge density e^{2(L - M)} q."""
        u = self.u
        np.multiply(q[0:-1:2], self.damp[0], out=u[0])
        np.multiply(q[1::2], self.damp[1], out=u[1])
        np.multiply(q[2::2], self.damp[2], out=u[2])
        for j, (lo, hi) in jumps.items():
            starts, ends = self.slots[j]
            if starts is not None:
                u[0, starts] = hi * self.damp[0, starts]
            if ends is not None:
                u[2, ends] = lo * self.damp[2, ends]
        if self.walls is not None:
            u[self.walls] = 0.0  # covers q = +-inf walls paired with L = -inf
        return _pair_increments(u[0], u[1], u[2], self.h12, self.inc, self.work)

    def _scan_left(self, inc: np.ndarray, R: np.ndarray, stop: int) -> None:
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
            seg = R[b.j0 : b.j0 + k + 1]
            seg[0] = 0.0
            np.cumsum(inc[b.j0 : b.j0 + k], out=seg[1:])
            np.add(seg, edge * b.carry_left if edge else 0.0, out=seg)
            np.multiply(seg, b.grow[: k + 1], out=seg)
            edge = R[b.j1] if b.j1 <= stop else None

    def _scan_right(self, inc: np.ndarray, R: np.ndarray, start: int) -> None:
        """R[start:] = -e^{-2L} * integral to x_max of e^{2L} q; see _scan_left."""
        edge = None
        for b in reversed(self.blocks):
            if b.j1 < start:
                break
            s = max(b.j0, start) - b.j0  # first node needed from this block
            seg = R[b.j0 + s : b.j1 + 1]
            seg[-1] = 0.0
            np.cumsum(inc[b.j0 + s : b.j1][::-1], out=seg[-2::-1])
            np.add(seg, -edge * b.carry_right if edge else 0.0, out=seg)
            np.negative(seg, out=seg)
            np.multiply(seg, b.grow[s:], out=seg)
            edge = R[b.j0] if b.j0 >= start else None

    def ratio(
        self, q: np.ndarray, jumps: Mapping[int, tuple[float, float]]
    ) -> np.ndarray:
        """Ratio R = phi^{-2} D with the scan switch at the charge sign change.

        Left of the switch the charge density is nonnegative, right of it
        nonpositive (``TrialFunction`` checks that w is nonincreasing), so
        each scan accumulates a single-signed integrand and the ratio never
        suffers cancellation. Both scans sum the same whole-grid increments,
        each only over its own side of the switch node. R is exactly 0 at
        both domain ends by construction; the two scans' agreement at the
        switch node is the numerical zero-total-charge statement. R is the
        plan's buffer, valid until the next call.
        """
        positive = np.greater(q, 0.0, out=self.positive)
        for j, (lo, _hi) in jumps.items():
            positive[j] = lo > 0.0
        last = q.size - 1 - int(np.argmax(positive[::-1]))
        m = last if positive[last] else 0
        inc = self._charge_increments(q, jumps)
        R = self.R
        self._scan_right(inc, R, m + 1 if m > 0 else 0)
        if m > 0:
            self._scan_left(inc, R, m)
        return R


def _make_plan(trial: TrialFunction) -> _Plan:
    """Hoist the run-invariant scan and bracket factors out of the loop."""
    grid = trial.grid
    L = trial.log_phi.values
    w = trial.w
    n = grid.n_nodes
    pairs = (n - 1) // 2
    damp = np.empty((3, pairs))
    blocks = []
    for i0, i1, _h in grid.segments:
        for b0, b1 in _segment_blocks(L[i0 : i1 + 1]):
            j0, j1 = i0 + b0, i0 + b1
            L_blk = L[j0 : j1 + 1]
            M = float(np.max(L_blk))
            with np.errstate(under="ignore", over="ignore"):
                d = np.exp(2.0 * (L_blk - M))
                grow = np.exp(2.0 * (M - L_blk))
            grow[np.isinf(grow)] = 0.0
            for k in range(3):
                damp[k, j0 // 2 : j1 // 2] = d[k : k + j1 - j0 - 1 : 2]
            blocks.append(
                _Block(
                    j0=j0,
                    j1=j1,
                    grow=grow,
                    carry_left=exp(2.0 * (L[j0] - M)),
                    carry_right=exp(2.0 * (L[j1] - M)),
                )
            )
    walls = damp == 0.0
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
        h12=_pair_h12(grid),
        damp=damp,
        walls=walls if walls.any() else None,
        slots={j: _pair_slots(j, n) for j in w.jumps},
        node=np.empty(n),
        R=np.empty(n),
        positive=np.empty(n, dtype=bool),
        u=np.empty((3, pairs)),
        inc=np.empty(n - 1),
        csum=np.empty(n - 1),
        work=np.empty((2, pairs)),
    )


def _step(
    plan: _Plan, fv: np.ndarray, anchor: Anchor
) -> tuple[float, float, float, np.ndarray]:
    """One iteration on raw arrays: [w f], [f], the shift and the new f.

    One half-pair kernel call each for [w f], [f], the charge density and
    the ratio; only the returned f is a fresh array.
    """
    wf_jumps = {j: (lo * fv[j], hi * fv[j]) for j, (lo, hi) in plan.w_jumps.items()}
    num = plan.bracket(np.multiply(plan.w, fv, out=plan.node), wf_jumps)
    den = plan.bracket(fv, {})
    shift = 0.0 if num == 0.0 else num / den
    q_jumps = {
        j: ((lo - shift) * fv[j], (hi - shift) * fv[j])
        for j, (lo, hi) in plan.w_jumps.items()
    }
    q = np.subtract(plan.w, shift, out=plan.node)
    R = plan.ratio(np.multiply(q, fv, out=q), q_jumps)
    inc = _pair_increments(R[0:-1:2], R[1::2], R[2::2], plan.h12, plan.inc, plan.work)
    F = _cumulate(inc, anchor, plan.node)
    return num, den, shift, 1.0 - np.multiply(F, 2.0, out=F)


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
        diff = np.subtract(f_new, fv, out=plan.node)
        d_f = float(np.max(np.abs(diff, out=diff)))
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
    if trial.domain_kind != "half_line_even":
        raise ValueError("iterate runs half-line trials; see iterate_full_line")
    return _run_engine(trial, case, _anchor(case), opts)


def _anchor(case: Case) -> Anchor:
    """Case A anchors f at the right edge, Case B at the left one."""
    if case not in ("A", "B"):
        raise ValueError("case must be 'A' or 'B'")
    return "right" if case == "A" else "left"


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
    E_plus - E_minus on the minus side (see ``_full_line_problem``, which
    refuses E_plus below E_minus).
    """
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
    return _full_line_problem(
        Samples(full, log_chi),
        Samples(full, V_full),
        half.E_plus,
        half.E_minus,
        f"glued({tplus.label}, {tminus.label})",
    )


def _full_line_problem(
    log_phi: Samples, V: Samples, E_a: float, E_b: float, label: str
) -> FullLineProblem:
    """The full-line problem whose perturbation is the channel-gap step.

    E_a and E_b are the right and left channels' energies; E0 is the larger.
    w is the gap E_a - E_b left of the origin, the origin node holding both
    one-sided values. A gap within 4 ulps of max(|E_a|, |E_b|) is roundoff,
    as in a zero-tilt glue whose minus side runs on the mirrored grid, and
    counts as no step. A negative gap would lift the right side: refused.
    """
    gap = E_a - E_b
    if abs(gap) <= _GAP_ULPS * ulp(max(abs(E_a), abs(E_b))):
        gap = 0.0
    if gap < 0.0:
        raise ValueError(
            f"{label}: the right channel lies below the left one "
            f"(gap {gap:.6g}); mirror the problem so the step lifts the left side"
        )
    grid = log_phi.grid
    j0 = grid.index_of(0.0)
    w_vals = np.zeros(grid.n_nodes)
    w_vals[:j0] = gap
    chi = TrialFunction(
        grid=grid,
        log_phi=log_phi,
        w=Samples(grid, w_vals, jumps={j0: (gap, 0.0)} if gap else {}),
        E0=max(E_a, E_b),
        V=V,
        label=label,
    )
    return FullLineProblem(chi=chi, E_a=E_a, E_b=E_b)


def iterate_full_line(
    p: FullLineProblem,
    case: Case,
    opts: IterateOptions = IterateOptions(),
) -> IterationTrace:
    """Second-stage recursion on the glued problem.

    The step lifts the left side, so the anchors are ``iterate``'s: Case A
    anchors f = 1 at the step-free right edge (the monotone regime), Case
    B at the step's left edge (the alternating one). With no step, w is
    zero and the run is Case A at the edge the requested case names. The
    converged energy is chi.E0 minus the final shift.
    """
    anchor = _anchor(case)
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
