"""Analytic double-box benchmark: every numerical route must hit the
closed forms, and the closed forms must agree with each other.

The model solved here has every quantity in elementary functions, so the
assertions run at tight tolerances; where a check is conditioning-limited
(deep tunneling) the bound says so.
"""

import dataclasses
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellsolver as ws
from wellsolver import squarewell as sw
from wellsolver.squarewell import ground_state_values, trial_log_samples, trial_values


@pytest.fixture(scope="module")
def deep_model():
    # splitting ~7e-9, conditioning floor territory
    return ws.solve_asymmetric(10.0, math.sqrt(0.05), 1.0, 1.0)


# ---------------------------------------------------------------------------
# the transcendental solve


def test_channel_orderings(moderate_model):
    m = moderate_model
    assert m.E_b < m.E < m.E_a
    assert m.E < m.E_od
    assert m.E_gap == m.E_a - m.E_b
    assert m.gamma == m.alpha + m.beta
    assert 0.0 < m.delta < m.alpha
    assert m.lam > 0.0


def test_wavenumber_identities(moderate_model):
    m = moderate_model
    mu2 = m.mu**2
    # left well floor is 0, right well floor is mu^2/2, barrier top W^2/2
    assert math.isclose(m.p**2, 2.0 * m.E, rel_tol=1e-12)
    assert math.isclose(m.k**2, 2.0 * m.E - mu2, rel_tol=1e-12)
    assert math.isclose(m.q**2, m.W**2 - 2.0 * m.E, rel_tol=1e-12)
    assert math.isclose(m.k_a**2, 2.0 * m.E_a - mu2, rel_tol=1e-12)
    assert math.isclose(m.q_a**2, m.W**2 - 2.0 * m.E_a, rel_tol=1e-12)
    assert math.isclose(m.p_b**2, 2.0 * m.E_b, rel_tol=1e-12)
    assert math.isclose(m.q_b**2, m.W**2 - 2.0 * m.E_b, rel_tol=1e-12)
    assert math.isclose(m.p_od**2, 2.0 * m.E_od, rel_tol=1e-12)
    assert math.isclose(m.q_od**2, m.W**2 - 2.0 * m.E_od, rel_tol=1e-12)


def test_even_well_channels_split_by_floor():
    kb, qb, Eb = ws.solve_even_well(3.0, 2.0, 1.0, "b")
    ka, qa, Ea = ws.solve_even_well(3.0, 2.0, 1.0, "a", mu=math.sqrt(0.5))
    _, _, Eod = ws.solve_even_well(3.0, 2.0, 1.0, "od")
    assert Eb < Ea  # raised outer floor pushes the level up
    assert Eb < Eod
    assert math.isclose(kb**2, 2.0 * Eb, rel_tol=1e-12)


def test_mu_zero_collapses_every_route():
    m = ws.solve_asymmetric(3.0, 0.0, 1.0, 2.0)
    assert m.E == m.E_a == m.E_b
    assert m.delta == 0.0
    assert m.shape == "double_peak"
    rs = ws.region_solution_n1(m)
    assert abs(rs.kappa_II) < 1e-12
    assert math.isclose(rs.rho_II, 1.0, rel_tol=1e-12)


def test_regime_validation():
    with pytest.raises(ValueError, match="mu < W"):
        ws.solve_asymmetric(3.0, 3.0, 1.0, 2.0)
    with pytest.raises(ws.RegimeError, match="barrier too low"):
        ws.solve_asymmetric(0.5, 0.0, 1.0, 0.2)


def _random_wells(n):
    """(W, mu, alpha, beta) across shallow to deep barriers, fixed seed."""
    rng = random.Random(20040707)
    return [
        (W, rng.uniform(0.0, 0.4) * W, rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0))
        for W in (rng.uniform(2.0, 20.0) for _ in range(n))
    ]


def test_brentq_port_matches_scipy_bit_for_bit(monkeypatch):
    """Reference check: the private port against scipy's compiled brentq.

    Every bracket the channel solves hand to the root finder (channels a,
    b and od, finite and infinite barriers) must give the identical float,
    and so must every field of the solved models.
    """
    from scipy.optimize import brentq

    port = sw._brentq
    calls = []

    def spy(f, a, b, xtol, rtol):
        calls.append((f, a, b, xtol, rtol))
        return port(f, a, b, xtol, rtol)

    def via_scipy(f, a, b, xtol, rtol):
        return brentq(f, a, b, xtol=xtol, rtol=rtol)

    wells = _random_wells(40)
    models = []
    for W, mu, alpha, beta in wells:
        monkeypatch.setattr(sw, "_brentq", spy)
        try:
            mine = ws.solve_asymmetric(W, mu, alpha, beta)
        except ValueError:  # out of regime: no model to compare
            continue
        for channel in ("b", "od"):
            ws.solve_even_well(W, beta, math.inf, channel)
        monkeypatch.setattr(sw, "_brentq", via_scipy)
        models.append((mine, ws.solve_asymmetric(W, mu, alpha, beta)))
    assert len(models) >= 30
    assert {c[0].__qualname__ for c in calls} == {"solve_even_well.<locals>.F"}
    assert len(calls) >= 5 * len(models)
    for f, a, b, xtol, rtol in calls:
        assert port(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)
    for mine, ref in models:
        assert dataclasses.astuple(mine) == dataclasses.astuple(ref)


def test_brentq_port_failures_are_regime_errors():
    with pytest.raises(ws.RegimeError, match="sign change"):
        sw._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15, 8.9e-16)
    with pytest.raises(ws.RegimeError, match="did not converge"):
        sw._brentq(math.atan, -1.0, 2.0, 1e-300, 8.9e-16, maxiter=3)
    with pytest.raises(ws.RegimeError, match="NaN"):
        sw._brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, 1e-15, 8.9e-16)


# sub-resolution asymmetry (0 < mu^2 below float eps) is a documented
# RegimeError, so sample either exact degeneracy or a resolvable floor
@given(
    W=st.floats(min_value=2.5, max_value=5.0),
    beta=st.floats(min_value=1.5, max_value=2.5),
    mu_frac=st.one_of(
        st.just(0.0), st.floats(min_value=0.02, max_value=0.4)
    ),
)
@settings(max_examples=20)
def test_orderings_hold_across_the_regime(W, beta, mu_frac):
    m = ws.solve_asymmetric(W, mu_frac * W, 1.0, beta)
    assert m.E_b <= m.E <= m.E_a
    assert m.E <= m.E_od
    # the matching offset can pass the barrier edge once the floor is high
    assert 0.0 <= m.delta < m.gamma
    assert m.shape in ("single_peak", "double_peak")


# ---------------------------------------------------------------------------
# geometry and sampled fields


def test_grid_hits_walls_edges_origin(moderate_model, moderate_grid):
    m, g = moderate_model, moderate_grid
    for x in (-m.gamma, -m.alpha, 0.0, m.alpha, m.gamma):
        assert g.nodes[g.index_of(x)] == x


def test_potential_jumps_carry_both_sides(moderate_model, moderate_grid):
    m, g = moderate_model, moderate_grid
    V = ws.potential_samples(m, g)
    assert set(V.jumps) == {g.index_of(-m.alpha), g.index_of(m.alpha)}
    assert V.jumps[g.index_of(-m.alpha)] == (0.0, 0.5 * m.W**2)
    lo, hi = V.jumps[g.index_of(m.alpha)]
    assert lo == 0.5 * m.W**2
    assert math.isclose(hi, 0.5 * m.mu**2, rel_tol=1e-12)


def test_states_vanish_at_walls_and_stay_continuous(moderate_model):
    m = moderate_model
    for fn in (trial_values, ground_state_values):
        vals = fn(m, np.array([-m.gamma, m.gamma]))
        assert np.all(vals == 0.0)
        for b in (-m.alpha, 0.0, m.alpha):
            lo, hi = fn(m, np.array([b - 1e-9, b + 1e-9]))
            assert math.isclose(lo, hi, rel_tol=1e-6)
    x = np.linspace(-m.gamma + 1e-3, m.gamma - 1e-3, 101)
    assert np.all(ground_state_values(m, x) > 0.0)


def test_trial_log_samples_mark_hard_walls(moderate_model, moderate_grid):
    L = trial_log_samples(moderate_model, moderate_grid)
    assert L.kind == "log_amplitude"
    assert np.isneginf(L.values[0]) and np.isneginf(L.values[-1])
    assert np.all(np.isfinite(L.values[1:-1]))


# ---------------------------------------------------------------------------
# closed forms against quadrature


def test_exact_shift_equals_transcendental_gap(moderate_model, moderate_grid):
    m = moderate_model
    shift = ws.exact_shift(m, moderate_grid)
    assert math.isclose(shift, m.E_a - m.E, rel_tol=1e-10)


def test_overlaps_quadrature_vs_antiderivatives(moderate_model, moderate_grid):
    # the antiderivative forms are norms of the seed state per half box;
    # rebuild them by quadrature of the squared trial
    m, grid = moderate_model, moderate_grid
    chi_sq = ws.trial_values(m, grid.nodes) ** 2
    j0 = grid.index_of(0.0)
    right = ws.slice_grid(grid, 0.0, grid.x_max)
    left = ws.slice_grid(grid, grid.x_min, 0.0)
    M_q = ws.integrate(ws.Samples(right, chi_sq[j0:]))
    N_q = ws.integrate(ws.Samples(left, chi_sq[: j0 + 1]))
    M_c, N_c = ws.closed_form_overlaps(m)
    assert math.isclose(M_q, M_c, rel_tol=1e-9)
    assert math.isclose(N_q, N_c, rel_tol=1e-9)
    assert M_c > 0.0 and N_c > 0.0


def test_wronskian_overlap_residuals_are_tiny(moderate_model, moderate_grid):
    origin, pointwise = ws.wronskian_overlap_residuals(moderate_model, moderate_grid)
    assert origin < 1e-9
    assert pointwise < 1e-9


def test_first_iteration_energy_splits_the_gap(moderate_model):
    m = moderate_model
    E1 = ws.first_iteration_energy(m)
    assert m.E_b < E1 < m.E_a
    rs = ws.region_solution_n1(m)
    assert math.isclose(rs.E1, E1, rel_tol=1e-12)


def test_region_solution_matches_engine_first_step(moderate_model, moderate_grid):
    m, grid = moderate_model, moderate_grid
    rs = ws.region_solution_n1(m)
    assert abs(rs.residuals["slope_gap_left_edge"]) < 1e-10
    tr = ws.iterate_squarewell(m, grid, opts=ws.IterateOptions(max_iter=1, tol_e=0.0, tol_f=0.0))
    assert abs(rs.E1 - tr.energies[1]) < 1e-10
    chi = trial_values(m, grid.nodes)
    f1 = tr.states[1].f.values
    probes = [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5]
    idx = [grid.index_of(p) for p in probes]
    ratio = np.array([rs.value(p) for p in probes]) / (chi[idx] * f1[idx])
    assert (ratio.max() - ratio.min()) / abs(ratio.mean()) < 1e-6


# ---------------------------------------------------------------------------
# the engine on the analytic trial


def test_engine_recovers_exact_energy(moderate_model, moderate_grid):
    m = moderate_model
    tr = ws.iterate_squarewell(m, moderate_grid)
    assert tr.converged and tr.stop_reason == "tolerance"
    assert tr.case == "A"
    assert abs(tr.E_limit - m.E) < 1e-10
    assert ws.certify(tr).ok


def test_problem_packaging_matches_channels(moderate_model, moderate_grid):
    m = moderate_model
    p = ws.build_squarewell_problem(m, moderate_grid)
    assert math.isclose(p.E_a, m.E_a, rel_tol=1e-12)
    assert math.isclose(p.E_b, m.E_b, rel_tol=1e-12)
    assert p.chi.E0 == max(p.E_a, p.E_b)
    assert p.step_side == "left"


def test_energy_ordering_survives_the_plateau():
    # shallow outer floor: f creep on the converged plateau may nick the
    # pointwise-f certificate, but the energy ordering itself must hold
    m = ws.solve_asymmetric(math.sqrt(20.0), math.sqrt(7.860897), 1.0, 1.0)
    tr = ws.iterate_squarewell(m, ws.squarewell_grid(m, 400.0))
    assert tr.converged
    rep = ws.certify(tr)
    assert all(v.ok for v in rep.energy_verdicts)


# ---------------------------------------------------------------------------
# one-sided resolvent kernel


def test_kernel_is_one_sided_and_wall_guarded(moderate_model):
    m = moderate_model
    assert ws.greens_function(m, 1.9, 0.7) == 0.0
    assert ws.greens_function(m, 0.7, 0.7) == 0.0
    assert ws.greens_function(m, 0.7, 1.9) != 0.0
    with pytest.raises(ValueError, match="inside the walls"):
        ws.greens_function(m, m.gamma, 0.5)


def _delta_probe(m, n, zfrac):
    """Apply the seed operator to a kernel column; expect a unit impulse.

    Interfaces sit on nodes (n = 1 mod 3 for this geometry) and the
    potential is averaged at its jumps; wall rows are excluded because
    the one-sided kernel obeys no wall condition of its own.
    """
    gam, al = m.gamma, m.alpha
    h = 2 * gam / (n + 2)
    xs = -gam + h * (1.0 + np.arange(n + 1))
    iz = int(round(zfrac * n))
    z = xs[iz]
    col = np.array([ws.greens_function(m, x, z) for x in xs])
    U = np.where(np.abs(xs) < al, 0.5 * m.W**2, 0.0)
    U += np.where(xs > al, 0.5 * m.mu**2, 0.0)
    U += np.where(xs < 0.0, m.E_gap, 0.0)
    for b, avg in (
        (-al, 0.5 * m.W**2 / 2 + m.E_gap),
        (0.0, 0.5 * m.W**2 + m.E_gap / 2),
        (al, 0.25 * (m.W**2 + m.mu**2)),
    ):
        U[np.isclose(xs, b, rtol=0, atol=1e-12)] = avg
    r = -0.5 * (col[:-2] - 2 * col[1:-1] + col[2:]) / h**2
    r += (U[1:-1] - m.E_a) * col[1:-1]
    xr = xs[1:-1]
    mass = np.sum(r) * h
    mask = np.ones(len(xr), bool)
    for b in (-al, 0.0, al):
        mask &= np.abs(xr - b) > 0.5 * h
    j = iz - 1
    mask[max(0, j - 1) : j + 2] = False
    away = np.max(np.abs(r[mask])) * h  # relative to the 1/h impulse
    return away, mass


@pytest.mark.parametrize("zfrac", [0.8, 0.2])
def test_kernel_column_reproduces_discrete_delta(moderate_model, zfrac):
    m = moderate_model
    away_c, mass_c = _delta_probe(m, 601, zfrac)
    away_f, mass_f = _delta_probe(m, 1201, zfrac)
    assert abs(mass_c - 1.0) < 2e-2
    assert abs(mass_f - 1.0) < 5e-3
    assert away_f < 1e-3
    assert away_c / away_f > 3.0  # refinement must pay off


# ---------------------------------------------------------------------------
# two-level reduction


def test_two_level_spectrum_structure():
    tl = ws.two_level(5.0, 0.3, 0.8)
    assert tl.E_b == tl.E_inf - tl.lam
    assert tl.E_od == tl.E_inf + tl.lam
    assert math.isclose(tl.E_a, tl.E_inf - tl.lam + tl.mu_sq / 2, rel_tol=1e-12)
    assert tl.E_b < tl.E < tl.E_a
    assert tl.E < tl.E_inf


def test_mixing_angle_asymptotics():
    assert ws.two_level(5.0, 1e-6, 0.8).mixing_angle < 1e-5
    assert abs(ws.two_level(5.0, 50.0, 0.8).mixing_angle - math.pi / 4) < 0.01


def test_two_level_tracks_the_box(moderate_model):
    tl = ws.two_level_from_model(moderate_model)
    assert abs(tl.E - moderate_model.E) < 1e-4
    assert math.isclose(tl.lam, moderate_model.lam, rel_tol=1e-12)


def test_wall_angle_series_converges():
    errs = []
    for wb in (40.0, 100.0):
        k, _, _ = ws.solve_even_well(wb, 1.0, 0.1, "b")
        errs.append(abs(ws.theta_asymptotic(wb) - (math.pi - k)))
    assert errs[0] < 1e-4
    assert errs[1] < 1e-6


def test_tunneling_delta_relation_in_its_regime(deep_model):
    m40 = ws.solve_asymmetric(40.0, math.sqrt(100 * 1.569010e-04), 0.1, 1.0)
    assert ws.asymptotic_delta_residual(m40) < 0.05
    assert 0.0 < m40.delta < m40.alpha
    assert deep_model.lam < 1e-8  # the deep model really is deep


# ---------------------------------------------------------------------------
# outer-region profile: exact, series, and polynomial iterates


def test_exact_profile_branches_join_continuously():
    xi = 1.3
    assert ws.exact_v(0.0, xi) == math.sin(xi)
    assert ws.exact_v(1.0, xi) == xi
    for h in (1e-9, -1e-9):
        assert abs(ws.exact_v(1.0 + h, xi) - xi) < 1e-8
    assert ws.exact_v(2.0, xi) == math.sinh(xi)


def test_series_truncation_error_is_fourth_order():
    xi = 1.1
    diffs = [abs(ws.exact_v_series(e, xi, 3) - ws.exact_v(e, xi)) for e in (0.05, 0.1)]
    assert 10.0 < diffs[1] / diffs[0] < 25.0


def test_series_order_is_capped():
    with pytest.raises(ValueError, match="third order"):
        ws.exact_v_series(0.3, 1.0, 4)
    with pytest.raises(ValueError, match="third order"):
        ws.series_coefficients(4)


def test_series_coefficients_frozen_table():
    sin_parts, cos_parts = ws.series_coefficients(3)
    assert sin_parts == (
        (F(1),),
        (F(1, 2),),
        (F(3, 8), F(0), F(-1, 8)),
        (F(5, 16), F(0), F(-1, 8)),
    )
    assert cos_parts == (
        (),
        (F(0), F(-1, 2)),
        (F(0), F(-3, 8)),
        (F(0), F(-5, 16), F(0), F(1, 48)),
    )


def test_poly_iterates_frozen_tables():
    its = ws.poly_iterates(3, [F(2, 5)] * 3)
    assert [it.S_coeffs for it in its] == [
        (F(3),),
        (F(63, 8), F(0), F(-1, 8)),
        (F(20), F(0), F(-7, 16)),
    ]
    assert [it.C_coeffs for it in its] == [
        (F(0), F(-1, 2)),
        (F(0), F(-13, 8)),
        (F(0), F(-35, 8), F(0), F(1, 48)),
    ]
    mixed = ws.poly_iterates(3, [F(1, 3), F(1, 7), F(2, 9)])
    assert mixed[2].S_coeffs == (F(1703, 16), F(0), F(-1, 2))
    assert mixed[2].C_coeffs == (F(0), F(-191, 16), F(0), F(1, 48))


def _pdiff(p):
    return tuple(F(i) * c for i, c in enumerate(p))[1:]


def _padd(a, b, scale=F(1)):
    n = max(len(a), len(b))
    a = tuple(a) + (F(0),) * (n - len(a))
    b = tuple(b) + (F(0),) * (n - len(b))
    out = tuple(x + scale * y for x, y in zip(a, b))
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def test_recursion_identities_close_exactly():
    # S_n'' - 2 C_n' must reproduce S_{n-1}, and C_n'' + 2 S_n' must
    # reproduce C_{n-1}, down from the pure-sine seed
    its = ws.poly_iterates(3, [F(2, 5), F(1, 3), F(3, 7)])
    s_prev, c_prev = (F(1),), ()
    for it in its:
        lhs_s = _padd(_pdiff(_pdiff(it.S_coeffs)), _pdiff(it.C_coeffs), F(-2))
        lhs_c = _padd(_pdiff(_pdiff(it.C_coeffs)), _pdiff(it.S_coeffs), F(2))
        assert lhs_s == s_prev
        assert lhs_c == c_prev
        s_prev, c_prev = it.S_coeffs, it.C_coeffs


def test_wall_normalization_of_each_iterate():
    its = ws.poly_iterates(3, [F(2, 5)] * 3)
    for it in its:
        # value 0 and slope 1 at the wall (xi = 0)
        assert not it.cos_coeffs or it.cos_coeffs[0] == 0
        slope = it.sin_coeffs[0] + (it.cos_coeffs[1] if len(it.cos_coeffs) > 1 else F(0))
        assert slope == 1


def test_equal_couplings_reproduce_series_truncation():
    eps = F(2, 5)
    v3 = ws.poly_iterates(3, [eps] * 3)[2]
    sin_parts, cos_parts = ws.series_coefficients(3)

    def total(parts):
        out = ()
        for k, p in enumerate(parts):
            out = _padd(out, tuple(c * eps**k for c in p))
        return out

    assert tuple(v3.sin_coeffs) == total(sin_parts)
    assert tuple(v3.cos_coeffs) == total(cos_parts)
    # and the float evaluations agree with the rational identity
    xi = math.pi / 2
    assert math.isclose(v3.value(xi), ws.exact_v_series(0.4, xi, 3), rel_tol=1e-14)


def test_poly_iterates_validation():
    with pytest.raises(ValueError, match="at least one"):
        ws.poly_iterates(0, [F(1, 2)])
    with pytest.raises(ValueError, match="per iterate"):
        ws.poly_iterates(3, [F(1, 2)])
    with pytest.raises(ValueError, match="nonzero"):
        ws.poly_iterates(1, [F(0)])
