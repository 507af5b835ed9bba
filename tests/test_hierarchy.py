"""The iteration engine and its runtime ordering certification.

The ordering claims are the point of the package, so they are asserted
here on live runs, not on canned sequences: Case A must march one way,
Case B must alternate around the target, and every iteration must carry
zero total charge.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellsolver as ws
from wellsolver import hierarchy

CAPPED = ws.IterateOptions(max_iter=6, tol_e=0.0, tol_f=0.0)


def _toy(density=30.0):
    """A plan for phi^2 = e^{-x}, w = -x^2 on [0, 1], and its inputs."""
    g = ws.make_grid((0.0, 1.0), density)
    w = ws.Samples(g, -g.nodes**2)
    phi_sq = ws.Samples(g, np.exp(-g.nodes))
    trial = ws.TrialFunction(
        grid=g,
        log_phi=ws.Samples(g, -0.5 * g.nodes),
        w=w,
        E0=1.0,
        V=ws.Samples(g, np.zeros(g.n_nodes)),
    )
    return hierarchy._make_plan(trial), np.ones(g.n_nodes), w, phi_sq


# ---------------------------------------------------------------------------
# the iteration step


def test_step_shift_zeroes_total_charge():
    plan, one, w, phi_sq = _toy()
    _num, _den, shift, _f = hierarchy._step(plan, one, "right")
    charge = ws.integrate(ws.Samples(plan.grid, (w.values - shift) * phi_sq.values))
    total = ws.integrate(ws.Samples(plan.grid, w.values * phi_sq.values))
    assert abs(charge) < 1e-15 * abs(total)


def test_step_displacement_vanishes_at_far_edge():
    plan, one, w, phi_sq = _toy()
    _num, _den, shift, _f = hierarchy._step(plan, one, "right")
    sigma = ws.Samples(plan.grid, phi_sq.values * (w.values - shift))
    D = ws.cumulative_from(sigma, "left")
    assert abs(D.values[-1]) < 1e-15
    # the step's scans carry D / phi^2, zero at both ends by construction
    R = plan.ratio((plan.w - shift) * one, {})
    assert R[0] == 0.0 and R[-1] == 0.0


def test_step_anchors_f_at_its_own_edge():
    plan, one, _w, _phi_sq = _toy()
    fa = hierarchy._step(plan, one, "right")[3]
    fb = hierarchy._step(plan, one, "left")[3]
    assert fa[-1] == 1.0  # far edge
    assert fb[0] == 1.0  # origin
    assert not np.array_equal(fa, fb)


# ---------------------------------------------------------------------------
# input validation


def test_iterate_needs_half_line_trial():
    full = ws.build_harmonic_trial(2.0, ws.make_grid((-6.0, 6.0), 40.0))
    with pytest.raises(ValueError, match="half-line"):
        ws.iterate(full, "A")
    t = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 40.0))
    with pytest.raises(ValueError, match="case"):
        ws.iterate(t, "C")


def test_iterate_rejects_non_monotone_perturbation():
    t = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 40.0))
    bumpy = t.w.values.copy()
    bumpy[10] += 1.0
    with pytest.raises(ValueError, match="monotone"):
        dataclasses.replace(t, w=ws.Samples(t.grid, bumpy))


# ---------------------------------------------------------------------------
# degenerate and generic runs


def test_harmonic_trial_is_a_fixed_point():
    g = ws.make_grid(6.0, 60.0)
    t = ws.build_harmonic_trial(1.0, g)
    tr = ws.iterate(t, "A")
    assert tr.converged
    assert all(s == 0.0 for s in tr.shifts)
    assert tr.E_limit == 0.5
    rep = ws.certify(tr)
    assert rep.ok and rep.degenerate
    assert rep.notes


def test_case_a_certifies_and_balances_charge():
    t = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 120.0))
    tr = ws.iterate(t, "A", CAPPED)
    assert tr.case == "A"
    assert tr.states[0].E_shift == 0.0  # seed row
    rep = ws.certify(tr)
    assert rep.ok
    assert rep.worst_margin > 0.0
    sh = tr.shifts[1:]
    assert all(b > a for a, b in zip(sh, sh[1:]))
    for st_ in tr.states[1:]:
        assert st_.charge_residual < 1e-10


def test_case_b_alternates_around_case_a_limit():
    t = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 120.0))
    opts = ws.IterateOptions(max_iter=7, tol_e=0.0, tol_f=0.0)
    tr = ws.iterate(t, "B", opts)
    assert tr.case == "B"
    assert ws.certify(tr).ok
    sh = tr.shifts[1:]
    odd, even = sh[0::2], sh[1::2]
    assert all(b > a for a, b in zip(odd, odd[1:]))
    assert all(b < a for a, b in zip(even, even[1:]))
    assert min(even) > max(odd)
    # the two normalizations bracket the same limit
    ref = ws.iterate(t, "A").E_limit
    assert max(t.E0 - np.array(even)) < ref < min(t.E0 - np.array(odd))


def test_stop_reason_max_iter():
    t = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 80.0))
    tr = ws.iterate(t, "A", ws.IterateOptions(max_iter=3, tol_e=0.0, tol_f=0.0))
    assert tr.stop_reason == "max_iter"
    assert not tr.converged
    assert len(tr.states) == 4  # seed + 3


def test_case_b_stops_on_positivity_when_w_is_huge():
    t = ws.build_symmetric_quartic_trial(1.5, ws.quartic_grid(1.5, 80.0))
    big = ws.Samples(
        t.w.grid,
        t.w.values * 400.0,
        jumps={k: (a * 400.0, b * 400.0) for k, (a, b) in t.w.jumps.items()},
    )
    tr = ws.iterate(dataclasses.replace(t, w=big), "B", CAPPED)
    assert tr.stop_reason == "positivity_violation"
    assert not tr.converged


@pytest.mark.parametrize(
    "g, density, n_max",
    [(2.0, 25.0, 9), (8.0, 25.0, 13), (32.0, 25.0, 11), (1e6, 400.0, 2)],
)
def test_too_coarse_grid_stops_on_nonfinite(g, density, n_max):
    # the shift or the ratio overflows to inf/NaN within a few iterations;
    # the run must stop there instead of iterating on NaN to max_iter
    t = ws.build_symmetric_quartic_trial(g, ws.quartic_grid(g, density))
    with np.errstate(all="ignore"):
        tr = ws.iterate(t, "A")
    assert tr.stop_reason == "nonfinite"
    assert not tr.converged and tr.E_limit is None
    assert len(tr.states) - 1 == n_max
    last = tr.states[-1]
    assert not (
        math.isfinite(last.E_shift) and np.all(np.isfinite(last.f.values))
    )
    assert all(math.isfinite(s.E_shift) for s in tr.states[:-1])


# ---------------------------------------------------------------------------
# the per-run plan: energies pinned to the engine it replaced

# E_n of the per-iteration scan engine, which rebuilt the block partition
# and the scale factors on every step and scanned the whole grid from both
# ends; the plan must reproduce them.
PINNED_SYM_G2_D400 = {
    "A": (
        2.0, 1.4484022955818205, 1.4149647965424341, 1.4045439303021077,
        1.4018546184053524, 1.4011827756519508, 1.4010140253824446,
        1.4009715511582181, 1.4009608606964843, 1.4009581700959144,
        1.400957492911486, 1.4009573224733955, 1.4009572795764393,
        1.4009572687798584, 1.4009572660625045, 1.400957265378585,
        1.4009572652064504,
    ),
    "B": (
        2.0, 1.4484022955818205, 1.391295976529041, 1.402463277922985,
        1.400714608633808, 1.400996263431586, 1.4009509918381233,
        1.4009582742570146, 1.400957102820445, 1.4009572912611739,
        1.4009572609479886, 1.4009572658242717, 1.4009572650398554,
        1.40095726516604,
    ),
}
PINNED_README_WELL = (
    1.1363098122015172, 1.002056458355405, 0.8990410677495794,
    0.8972179229298427, 0.8969921403774946, 0.8969664966879942,
    0.8969642562221909, 0.8969640741206397, 0.8969640584776205,
    0.8969640571020447, 0.8969640569826324, 0.8969640569723356,
    0.8969640569714455, 0.8969640569713668,
)


def _switch_node(w, shift):
    """Last node where w - shift > 0 (left-side value at a jump)."""
    vals = w.values.copy()
    for j, (lo, _hi) in w.jumps.items():
        vals[j] = lo
    return int(np.nonzero(vals > shift)[0][-1])


@pytest.fixture(scope="module")
def sym_g2_trial():
    return ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 400.0))


@pytest.mark.parametrize("case", ["A", "B"])
def test_planned_engine_reproduces_pinned_energies(sym_g2_trial, case):
    tr = ws.iterate(sym_g2_trial, case)
    assert tr.stop_reason == "tolerance"
    np.testing.assert_allclose(
        tr.energies, PINNED_SYM_G2_D400[case], rtol=1e-13, atol=0.0
    )


def test_planned_engine_reproduces_readme_well(moderate_model, moderate_grid):
    tr = ws.iterate_squarewell(moderate_model, moderate_grid)
    assert tr.stop_reason == "tolerance"
    np.testing.assert_allclose(
        tr.energies, PINNED_README_WELL, rtol=1e-13, atol=0.0
    )


def test_plan_blocks_carry_across_the_switch(
    sym_g2_trial, moderate_model, moderate_grid
):
    # g = 2 spans more log-amplitude than one block may hold: its right
    # scan hands a carry from block to block before reaching the switch
    plan = hierarchy._make_plan(sym_g2_trial)
    assert len(plan.blocks) > 1
    shift = ws.iterate(sym_g2_trial, "A").states[-1].E_shift
    m = _switch_node(sym_g2_trial.w, shift)
    assert sum(b.j1 > m for b in plan.blocks) > 1
    # the README well's hard walls split off blocks of their own, so its
    # left scan carries across blocks (and over the jump at the origin)
    problem = ws.build_squarewell_problem(moderate_model, moderate_grid)
    plan = hierarchy._make_plan(problem.chi)
    shift = ws.iterate_squarewell(moderate_model, moderate_grid).states[-1].E_shift
    m = _switch_node(problem.chi.w, shift)
    assert sum(b.j0 <= m for b in plan.blocks) > 1
    # blocks tile the grid, sharing their edge nodes
    assert plan.blocks[0].j0 == 0
    assert plan.blocks[-1].j1 == moderate_grid.n_nodes - 1
    assert all(a.j1 == b.j0 for a, b in zip(plan.blocks, plan.blocks[1:]))


@pytest.mark.parametrize("shift", [0.3, 0.6, 0.9])
def test_plan_ratio_matches_plain_cumulatives(shift):
    # e^{2L} spans 1e-283..1, still representable, so the literal
    # cumulative of sigma = e^{2L} q divided by e^{2L} is accurate on each
    # side of the switch. phi peaks at w's jump, so the one-sided jump
    # values weigh in, and each segment holds three blocks. Shift 0.3 puts
    # the switch right of the jump (the left scan crosses it), 0.6 on it
    # (the left value decides), 0.9 left of it (the right scan crosses it).
    grid = ws.make_grid((0.0, 1.0), 200.0, breakpoints=(0.5,))
    x = grid.nodes
    j = grid.index_of(0.5)
    L = -1300.0 * (x - 0.5) ** 2 + 0.3 * np.sin(7.0 * x)
    w_vals = 1.0 - x + np.where(x < 0.5, 0.3, 0.0)
    w_vals[j] = 0.55  # neither side: only the one-sided values may count
    w = ws.Samples(grid, w_vals, jumps={j: (0.8, 0.5)})
    trial = ws.TrialFunction(
        grid=grid,
        log_phi=ws.Samples(grid, L),
        w=w,
        E0=1.0,
        V=ws.Samples(grid, np.zeros_like(x)),
    )
    plan = hierarchy._make_plan(trial)
    assert sum(b.j1 <= j for b in plan.blocks) == 3
    f = 1.0 + 0.1 * x
    q = ws.Samples(
        grid,
        (w.values - shift) * f,
        jumps={j: ((0.8 - shift) * f[j], (0.5 - shift) * f[j])},
    )
    R = plan.ratio(q.values, q.jumps)

    scale = np.exp(2.0 * L)
    sigma = ws.Samples(
        grid,
        q.values * scale,
        jumps={j: (q.jumps[j][0] * scale[j], q.jumps[j][1] * scale[j])},
    )
    m = _switch_node(w, shift)
    assert (m > j, m == j, m < j) == (shift < 0.5, 0.5 < shift < 0.8, shift > 0.8)
    plain = np.concatenate(
        (
            ws.cumulative_from(sigma, "left").values[: m + 1],
            ws.cumulative_from(sigma, "right").values[m + 1 :],
        )
    ) / scale
    assert R[0] == 0.0 and R[-1] == 0.0
    np.testing.assert_allclose(R, plain, rtol=1e-13, atol=0.0)


def _greedy_blocks_loop(L_seg):
    """Pair-by-pair form of the block partition, the vectorized one's reference."""
    cap = hierarchy._BLOCK_LOG_RANGE
    n = L_seg.size - 1
    if 2.0 * (float(np.max(L_seg)) - float(np.min(L_seg))) <= cap:
        return [(0, n)]
    blocks = []
    start = 0
    lo = hi = L_seg[0]
    for p in range(0, n, 2):
        lo = min(lo, L_seg[p + 1], L_seg[p + 2])
        hi = max(hi, L_seg[p + 1], L_seg[p + 2])
        if 2.0 * (hi - lo) > cap:
            blocks.append((start, p + 2))
            start = p + 2
            lo = hi = L_seg[p + 2]
    if start < n:
        blocks.append((start, n))
    return blocks


@given(
    steps=st.lists(
        st.floats(min_value=-250.0, max_value=250.0), min_size=2, max_size=80
    ),
    walls=st.sampled_from(["none", "left", "right", "both"]),
)
@settings(max_examples=300)
def test_block_partition_matches_pairwise_loop(steps, walls):
    L = np.concatenate(([0.0], np.cumsum(steps)))
    if L.size % 2 == 0:
        L = L[:-1]
    if walls in ("left", "both"):
        L[0] = -np.inf
    if walls in ("right", "both"):
        L[-1] = -np.inf
    with np.errstate(invalid="ignore"):
        assert hierarchy._segment_blocks(L) == _greedy_blocks_loop(L)


@pytest.fixture(scope="module")
def glued_asym_g4():
    grid = ws.quartic_grid(4.0, 400.0, full_line=True)
    tp, tm = ws.build_asymmetric_quartic_trial(4.0, 0.3, grid)
    return ws.glue_full_line(ws.solve_half_line_pair(tp, tm), tp, tm).chi


@pytest.mark.parametrize("which", ["sym_quartic", "readme_well", "glued_asym"])
def test_step_matches_grid_quadrature(
    which, request, sym_g2_trial, moderate_model, moderate_grid
):
    # the plan's pair-level kernel calls must reproduce the grid's own
    # quadrature bit for bit: w jumps at x = 1 for the quartic, hard walls
    # and a jump at the origin for the README well, a glued step for asym
    if which == "sym_quartic":
        trial = sym_g2_trial
    elif which == "readme_well":
        trial = ws.build_squarewell_problem(moderate_model, moderate_grid).chi
    else:
        trial = request.getfixturevalue("glued_asym_g4")
    assert trial.w.jumps
    grid, w = trial.grid, trial.w
    plan = hierarchy._make_plan(trial)

    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    for anchor in ("left", "right"):
        fv = np.ones(grid.n_nodes)
        for _ in range(5):
            with np.errstate(over="ignore", invalid="ignore"):
                num, den, shift, f_new = hierarchy._step(plan, fv, anchor)
                wf_jumps = {
                    j: (lo * fv[j], hi * fv[j]) for j, (lo, hi) in w.jumps.items()
                }
                wf = ws.Samples(grid, w.values * fv, jumps=wf_jumps)
                f = ws.Samples(grid, fv)
                assert bits(num) == bits(ws.bracket(wf, trial.log_phi))
                assert bits(den) == bits(ws.bracket(f, trial.log_phi))
                q_jumps = {
                    j: ((lo - shift) * fv[j], (hi - shift) * fv[j])
                    for j, (lo, hi) in w.jumps.items()
                }
                R = plan.ratio((w.values - shift) * fv, q_jumps)
                D = ws.cumulative_from(ws.Samples(grid, R), anchor).values
            assert bits(f_new) == bits(1.0 - 2.0 * D)
            fv = f_new


def test_iteration_states_keep_no_displacement_field(sym_g2_trial):
    tr = ws.iterate(sym_g2_trial, "A", CAPPED)
    assert "D" not in {f.name for f in dataclasses.fields(tr.states[-1])}


# ---------------------------------------------------------------------------
# full-line pipeline


@pytest.fixture(scope="module")
def glued_problem():
    grid = ws.quartic_grid(5.0, 120.0, full_line=True)
    tp, tm = ws.build_asymmetric_quartic_trial(5.0, 0.2, grid)
    half = ws.solve_half_line_pair(tp, tm)
    return ws.glue_full_line(half, tp, tm), half


def test_glue_exposes_channel_data(glued_problem):
    p, half = glued_problem
    assert p.E_a == half.E_plus
    assert p.E_b == half.E_minus
    assert p.chi.E0 == max(half.E_plus, half.E_minus)
    assert p.step_side == "left"  # the shallower channel carries the step
    x = p.chi.w.grid.nodes
    gap = half.E_plus - half.E_minus
    assert np.allclose(p.chi.w.values[x < -1e-9], gap, rtol=1e-12)
    assert np.all(p.chi.w.values[x > 1e-9] == 0.0)


def test_both_boundaries_converge_to_one_energy():
    # the step-anchored route tolerates only small steps, so use a mild
    # tilt; the large-tilt fixture is covered by the next test
    grid = ws.quartic_grid(5.0, 150.0, full_line=True)
    tp, tm = ws.build_asymmetric_quartic_trial(5.0, 0.005, grid)
    half = ws.solve_half_line_pair(tp, tm)
    p = ws.glue_full_line(half, tp, tm)
    tr_a = ws.iterate_full_line(p, "A")
    tr_b = ws.iterate_full_line(p, "B")
    assert tr_a.case == "A"
    assert tr_b.case == "B"
    assert tr_a.converged and tr_b.converged
    assert abs(tr_a.E_limit - tr_b.E_limit) < 1e-7
    assert half.E_minus < tr_a.E_limit < half.E_plus
    for st_ in tr_a.states[1:]:
        assert st_.charge_residual < 1e-10


def test_step_anchor_stops_on_positivity_for_large_steps(glued_problem):
    p, _half = glued_problem
    tr_b = ws.iterate_full_line(p, "B")
    assert not tr_b.converged
    assert tr_b.stop_reason == "positivity_violation"
    # the step-free anchor still converges on the same problem
    tr_a = ws.iterate_full_line(p, "A")
    assert tr_a.converged


def test_swapped_glue_is_refused_in_one_line(glued_problem):
    # swapping the channels would put the step on the right, where w rises
    _p, half = glued_problem
    tp, tm = ws.build_asymmetric_quartic_trial(
        5.0, 0.2, ws.quartic_grid(5.0, 120.0, full_line=True)
    )
    swapped = ws.HalfLinePair(
        trace_plus=half.trace_minus, trace_minus=half.trace_plus
    )
    with pytest.raises(ValueError, match="mirror the problem") as exc:
        ws.glue_full_line(swapped, tm, tp)
    assert "\n" not in str(exc.value)


def test_rising_w_is_not_monotone():
    grid = ws.make_grid((-1.0, 1.0), 20.0, breakpoints=(0.0,))
    j0 = grid.index_of(0.0)
    w_vals = np.where(grid.nodes > 0.0, 0.5, 0.0)
    with pytest.raises(
        ValueError, match="not monotone; first offending node at x = 0$"
    ):
        ws.TrialFunction(
            grid=grid,
            log_phi=ws.Samples(grid, -grid.nodes**2),
            w=ws.Samples(grid, w_vals, jumps={j0: (0.0, 0.5)}),  # a right step
            E0=1.0,
            V=ws.Samples(grid, np.zeros(grid.n_nodes)),
        )


def _asym_glue(lam):
    grid = ws.quartic_grid(4.0, 100.0, full_line=True)
    tp, tm = ws.build_asymmetric_quartic_trial(4.0, lam, grid)
    return ws.glue_full_line(ws.solve_half_line_pair(tp, tm), tp, tm)


def _level_well():
    m = ws.solve_asymmetric(3.0, 0.0, 1.0, 2.0)
    return ws.build_squarewell_problem(m, ws.squarewell_grid(m, 100.0))


@pytest.mark.parametrize(
    "build, side",
    [
        (lambda: _asym_glue(0.0), "none"),
        (_level_well, "none"),
        (lambda: _asym_glue(0.3), "left"),
    ],
    ids=["asym_lam0", "squarewell_mu0", "asym_lam03"],
)
def test_step_side_is_derived_from_w(build, side):
    p = build()
    assert p.step_side == side
    assert "step_side" not in {f.name for f in dataclasses.fields(p)}
    # so is the domain kind: a full-line grid does not start at 0
    assert p.chi.domain_kind == "full_line"
    assert "domain_kind" not in {f.name for f in dataclasses.fields(p.chi)}
    if side == "none":
        assert not np.any(p.chi.w.values)


# ---------------------------------------------------------------------------
# certification of sequences

def test_certify_sequence_case_a_pairs_and_margins():
    ev, cv = ws.certify_shift_sequence([1.0, 2.0, 3.0], "A")
    assert cv == ()
    assert [(v.kind, v.pair, v.ok) for v in ev] == [
        ("shift_ascending", (1, 2), True),
        ("shift_ascending", (2, 3), True),
    ]
    ev_bad, _ = ws.certify_shift_sequence([1.0, 3.0, 2.0], "A")
    assert not ev_bad[-1].ok
    assert ev_bad[-1].margin < 0.0


def test_certify_sequence_case_b_split():
    # odd entries ascend, even entries descend, every even above every odd
    good = [3.0, 4.0, 3.5, 3.9]
    ev, cv = ws.certify_shift_sequence(good, "B")
    assert all(v.ok for v in ev) and all(v.ok for v in cv)
    assert {v.kind for v in ev} == {"odd_ascending", "even_descending"}
    assert {v.kind for v in cv} == {"even_above_odd"}
    bad = [3.0, 3.4, 3.5, 3.9]  # even entry dips below a later odd one
    _, cv_bad = ws.certify_shift_sequence(bad, "B")
    assert any(not v.ok for v in cv_bad)


def test_certified_run_survives_shuffle_detection():
    t = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 100.0))
    tr = ws.iterate(t, "A", CAPPED)
    sh = list(tr.shifts[1:])
    sh[1], sh[2] = sh[2], sh[1]
    ev, _ = ws.certify_shift_sequence(sh, "A")
    assert any(not v.ok for v in ev)


# ---------------------------------------------------------------------------
# hard regime: the energy plateau outlives f refinement


def test_deep_tunneling_energy_plateau():
    # splitting ~ 7e-9: drive the energy to its plateau while explicitly
    # not waiting on f (its null-direction creep never meets a tight tol_f)
    m = ws.solve_asymmetric(10.0, math.sqrt(0.05), 1.0, 1.0)
    grid = ws.squarewell_grid(m, 400.0)
    opts = ws.IterateOptions(max_iter=32, tol_e=1e-12, tol_f=math.inf)
    tr = ws.iterate_squarewell(m, grid, opts=opts)
    assert tr.stop_reason == "tolerance"
    assert abs(tr.E_limit - m.E) < 5e-7
    assert abs(m.E - m.E_b) < 1e-7  # nearly pure lower channel


@given(g=st.floats(min_value=1.2, max_value=5.0))
@settings(max_examples=10)
def test_case_a_ordering_holds_across_couplings(g):
    # energy ordering is grid-robust; the pointwise profile check needs
    # finer grids than this sweep affords, so certify energies only
    t = ws.build_symmetric_quartic_trial(g, ws.quartic_grid(g, 60.0))
    tr = ws.iterate(t, "A", ws.IterateOptions(max_iter=5, tol_e=0.0, tol_f=0.0))
    rep = ws.certify(tr)
    assert all(v.ok for v in rep.energy_verdicts)
    sh = tr.shifts[1:]
    assert all(b > a for a, b in zip(sh, sh[1:]))
