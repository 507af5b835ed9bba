"""Acceptance gate for the solver: one test per shipping criterion.

Each test is a complete pass/fail check of one guaranteed behaviour at
its stated tolerance; `pytest -v tests/test_acceptance.py` prints one
line per criterion.  Expected numbers quoted in comments were computed
once with this package and an independent finite-difference oracle,
then frozen.  Expensive runs are shared through module fixtures.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import wellsolver as ws
from wellsolver import cli

DENSITY = 400.0


# shared runs


@pytest.fixture(scope="module")
def staircase_runs():
    """Case A at fixed iteration count for three couplings, timed."""
    runs = {}
    t0 = time.perf_counter()
    for g in (1.0, 2.0, 4.0):
        trial = ws.build_symmetric_quartic_trial(g, ws.quartic_grid(g, DENSITY))
        opts = ws.IterateOptions(max_iter=8, tol_e=0.0, tol_f=0.0)
        runs[g] = ws.iterate(trial, "A", opts)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sandwich_run():
    """Case B on a fine grid so bracket widths resolve cleanly."""
    trial = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, 1200.0))
    opts = ws.IterateOptions(max_iter=7, tol_e=0.0, tol_f=0.0)
    return trial, ws.iterate(trial, "B", opts)


@pytest.fixture(scope="module")
def converged_runs():
    """Fully converged runs used for oracle comparison and charge audit."""
    sym_trial = ws.build_symmetric_quartic_trial(2.0, ws.quartic_grid(2.0, DENSITY))
    sym = ws.iterate(sym_trial, "A")
    tplus, tminus = ws.build_asymmetric_quartic_trial(
        5.0, 0.2, ws.quartic_grid(5.0, DENSITY, full_line=True)
    )
    pair = ws.solve_half_line_pair(tplus, tminus)
    glued = ws.glue_full_line(pair, tplus, tminus)
    asym = ws.iterate_full_line(glued, "A")
    return {"sym": (sym_trial, sym), "asym": (glued, asym, pair)}


@pytest.fixture(scope="module")
def moderate_run(moderate_model, moderate_grid):
    return ws.iterate_squarewell(moderate_model, moderate_grid)


# criteria


def test_c01_flat_perturbation_is_an_exact_fixed_point():
    t0 = time.perf_counter()
    for g in (1.0, 2.0):
        grid = ws.make_grid(8.0 / math.sqrt(g), 120.0)
        trial = ws.build_harmonic_trial(g, grid)
        trace = ws.iterate(trial, "A")
        assert all(s == 0.0 for s in trace.shifts), "corrections must vanish"
        assert trace.E_limit == pytest.approx(g / 2, abs=1e-10)
    elapsed = time.perf_counter() - t0
    print(f"fixed point exact for both couplings, {elapsed:.3f}s")
    assert elapsed < 1.0


def test_c02_monotone_staircase_in_energy_and_profile(staircase_runs):
    runs, elapsed = staircase_runs
    for g, trace in runs.items():
        shifts = trace.shifts[1:]
        assert all(b > a for a, b in zip(shifts, shifts[1:])), (
            f"g={g}: corrections must ascend strictly"
        )
        margin = math.inf
        for prev, cur in zip(trace.states[1:], trace.states[2:]):
            interior = slice(1, -1)
            gap = np.asarray(cur.f.values[interior]) - np.asarray(
                prev.f.values[interior]
            )
            margin = min(margin, float(gap.min()))
        assert margin > 0.0, f"g={g}: profile must grow pointwise, margin={margin}"
        print(f"g={g}: least pointwise profile gain {margin:.3e}")
    assert elapsed < 5.0


def test_c03_alternating_bounds_sandwich_the_true_energy(sandwich_run):
    trial, trace = sandwich_run
    report = ws.certify(trace)
    assert report.ok, f"alternation certificate failed: {report.worst_margin}"
    energies = [st.E_n for st in trace.states[1:]]
    odd = energies[0::2]
    even = energies[1::2]
    assert all(b < a for a, b in zip(odd, odd[1:])), "upper bounds must descend"
    assert all(b > a for a, b in zip(even, even[1:])), "lower bounds must ascend"
    reference = ws.fd_levels(trial.V, 1, mirror_even=True)[0]
    lo, hi = max(even), min(odd)
    assert lo < reference < hi, "oracle energy must sit inside the bracket"
    widths = []
    lo_r, hi_r = -math.inf, math.inf
    for n, e in enumerate(energies, start=1):
        if n % 2:
            hi_r = min(hi_r, e)
        else:
            lo_r = max(lo_r, e)
        if math.isfinite(lo_r):
            widths.append(hi_r - lo_r)
    assert all(b < a for a, b in zip(widths, widths[1:])), (
        "bracket must tighten every iteration"
    )
    assert widths[-1] < 1e-5
    print(
        f"bracket [{lo:.12f}, {hi:.12f}] width {hi - lo:.3e} "
        f"contains oracle {reference:.12f}"
    )


def test_c04_limit_agrees_with_independent_oracle(converged_runs):
    sym_trial, sym = converged_runs["sym"]
    assert sym.converged
    oracle = ws.fd_ground_state(
        sym_trial.V,
        v_func=lambda x: 0.5 * 4.0 * (x**2 - 1.0) ** 2,
        mirror_even=True,
        levels=3,
    )
    diff_sym = abs(sym.E_limit - oracle.E_ground)
    assert diff_sym <= 1e-5

    glued, asym, _pair = converged_runs["asym"]
    assert asym.converged
    oracle_full = ws.fd_ground_state(
        glued.chi.V,
        v_func=lambda x: 0.5 * 25.0 * (x**2 - 1.0) ** 2 + 5.0 * 0.2 * x,
        levels=3,
    )
    diff_asym = abs(asym.E_limit - oracle_full.E_ground)
    assert diff_asym <= 1e-5
    print(f"oracle gaps: even well {diff_sym:.2e}, tilted well {diff_asym:.2e}")


def test_c05_every_iteration_conserves_total_charge(
    staircase_runs, sandwich_run, converged_runs
):
    worst = 0.0
    traces = [tr for tr in staircase_runs[0].values()]
    traces.append(sandwich_run[1])
    traces.append(converged_runs["sym"][1])
    traces.append(converged_runs["asym"][1])
    for trace in traces:
        for state in trace.states[1:]:
            worst = max(worst, state.charge_residual)
    assert worst < 1e-10, f"charge residual {worst} exceeds budget"
    print(f"worst charge residual over all runs: {worst:.2e}")


def test_c06_square_well_closed_forms_cross_check(moderate_model, moderate_grid):
    m, grid = moderate_model, moderate_grid

    shift = ws.exact_shift(m, grid)
    rel = abs(shift - (m.E_a - m.E)) / (m.E_a - m.E)
    assert rel < 1e-8

    res_origin, res_pointwise = ws.wronskian_overlap_residuals(m, grid)
    assert abs(res_origin) < 1e-8 and abs(res_pointwise) < 1e-8

    chi_sq = ws.trial_values(m, grid.nodes) ** 2
    j0 = grid.index_of(0.0)
    halves = (
        ws.integrate(ws.Samples(ws.slice_grid(grid, 0.0, grid.x_max), chi_sq[j0:])),
        ws.integrate(
            ws.Samples(ws.slice_grid(grid, grid.x_min, 0.0), chi_sq[: j0 + 1])
        ),
    )
    for q, c in zip(halves, ws.closed_form_overlaps(m)):
        assert abs(q - c) / abs(c) < 1e-8

    # first-step energy approaches the channel midpoint as mu^4
    devs = []
    for k in range(5):
        mu2 = 0.4 / 2**k
        small = ws.solve_asymmetric(3.0, math.sqrt(mu2), 1.0, 2.0)
        e1 = ws.first_iteration_energy(small)
        devs.append(abs(e1 - small.E_b - small.E_gap / 2))
    exponents = [math.log2(a / b) for a, b in zip(devs, devs[1:])]
    assert all(1.7 < e < 2.3 for e in exponents), exponents
    print(
        f"overlap shift rel {rel:.2e}, wronskian {max(abs(res_origin), abs(res_pointwise)):.2e}, "
        f"midpoint exponents {[f'{e:.2f}' for e in exponents]}"
    )


def test_c07_two_level_reduction_captures_both_regimes():
    lam0 = 1.569010e-04  # splitting of the W=40, alpha=0.1, beta=1 geometry
    W, alpha, beta = 40.0, 0.1, 1.0

    # offset dominates: depression below the symmetric point is 2 lam^2 / mu^2
    ma = ws.solve_asymmetric(W, math.sqrt(100 * lam0), alpha, beta)
    tl = ws.two_level_from_model(ma)
    assert tl.E_inf == ma.E_b + ma.lam  # exact identity of the reduction
    predicted = 2 * ma.lam**2 / ma.mu**2
    rel_a = abs((tl.E_inf - ma.E) - predicted) / predicted
    assert rel_a < 0.05

    # splitting dominates: ground state sits near the channel midpoint
    mb = ws.solve_asymmetric(W, math.sqrt(0.4 * lam0), alpha, beta)
    rel_b = abs(mb.E - (mb.E_b + mb.E_gap / 2)) / mb.E_gap
    assert rel_b < 0.05

    assert ws.asymptotic_delta_residual(ma) < 0.05
    print(f"regime deviations: offset-led {rel_a:.2e}, splitting-led {rel_b:.2e}")


def test_c08_polynomial_iterates_reproduce_the_series_exactly():
    F = Fraction
    eps = F(2, 5)
    iterates = ws.poly_iterates(3, [eps, eps, eps])

    # frozen closed forms for the equal-coupling ladder
    assert iterates[0].S_coeffs == (F(3),)
    assert iterates[1].S_coeffs == (F(63, 8), F(0), F(-1, 8))
    assert iterates[2].S_coeffs == (F(20), F(0), F(-7, 16))
    assert iterates[0].C_coeffs == (F(0), F(-1, 2))
    assert iterates[1].C_coeffs == (F(0), F(-13, 8))
    assert iterates[2].C_coeffs == (F(0), F(-35, 8), F(0), F(1, 48))

    # equal couplings must reproduce the truncated expansion, term by term
    sin_parts, cos_parts = ws.series_coefficients(3)
    v3 = iterates[2]

    def resum(parts):
        out = []
        for k, part in enumerate(parts):
            scaled = [eps**k * c for c in part]
            out += [F(0)] * (len(scaled) - len(out))
            for i, c in enumerate(scaled):
                out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    assert v3.sin_coeffs == resum(sin_parts)
    assert v3.cos_coeffs == resum(cos_parts)
    print("third iterate matches the resummed expansion exactly (rational)")


def test_c09_iteration_converges_past_the_series_radius():
    xi = math.pi / 2
    sums = [ws.exact_v_series(1.2, xi, order) for order in range(4)]
    assert all(b > a for a, b in zip(sums, sums[1:]))

    # calibrated box whose effective coupling settles at 5/4
    m = ws.solve_asymmetric(math.sqrt(20.0), math.sqrt(7.860897), 1.0, 1.0)
    grid = ws.squarewell_grid(m, DENSITY)
    trace = ws.iterate_squarewell(m, grid)
    assert trace.converged and trace.stop_reason == "tolerance"
    assert abs(trace.E_limit - m.E) < 1e-10

    mu2 = m.mu**2
    scale = 2 * trace.states[0].E_n - mu2
    eps_seq = [1 - (2 * st.E_n - mu2) / scale for st in trace.states[1:]]
    assert all(e >= 1.2 for e in eps_seq[1:]), "coupling must stay past unity"
    eps_lim = 1 - (2 * m.E - mu2) / (2 * m.E_a - mu2)
    assert eps_lim == pytest.approx(1.25, abs=1e-6)
    print(
        f"series radius exceeded (eps -> {eps_lim:.6f}) yet "
        f"|E_limit - E| = {abs(trace.E_limit - m.E):.1e}"
    )


def test_c10_negative_controls_fail_loudly(tmp_path):
    # a reordered certificate must be rejected, not silently re-sorted
    path = tmp_path / "trace.csv"
    rc = cli.main(
        ["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--out", str(path)]
    )
    assert rc == cli.EXIT_OK
    lines = path.read_text().splitlines()
    hdr = next(i for i, l in enumerate(lines) if l.startswith("n,"))
    a, b = lines[hdr + 2].split(","), lines[hdr + 3].split(",")
    a[1], b[1] = b[1], a[1]
    lines[hdr + 2], lines[hdr + 3] = ",".join(a), ",".join(b)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", str(bad)]) == cli.EXIT_VERDICT

    # an out-of-range tilt must be a configuration error
    assert cli.main(["solve", "asym_quartic", "--g", "5", "--lam", "1.5"]) == (
        cli.EXIT_CONFIG
    )
    print("corrupted certificate and bad tilt both rejected")
