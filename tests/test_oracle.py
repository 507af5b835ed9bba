"""Independent eigensolver used to referee the iteration results.

The oracle must agree with closed forms it never saw: the analytic box
spectrum and the harmonic level. Richardson extrapolation has to behave
like the second-order method it claims to be.
"""

import math

import numpy as np
import pytest

import wellsolver as ws


@pytest.mark.parametrize(
    "W, mu_sq, alpha, beta",
    [
        (3.0, 0.5, 1.0, 2.0),
        (10.0, 0.05, 1.0, 1.0),
        (math.sqrt(20.0), 7.860897, 1.0, 1.0),
    ],
)
def test_matches_box_closed_form_across_regimes(W, mu_sq, alpha, beta):
    m = ws.solve_asymmetric(W, math.sqrt(mu_sq), alpha, beta)
    grid = ws.squarewell_grid(m, 400.0)
    res = ws.fd_ground_state(ws.potential_samples(m, grid), levels=2)
    assert abs(res.E_ground - m.E) < 1e-8


def test_matches_harmonic_level_via_mirror():
    g = 2.0
    v = lambda x: 0.5 * g * g * x**2  # noqa: E731
    grid = ws.make_grid(8.0 / math.sqrt(g), 400.0)
    res = ws.fd_ground_state(
        ws.Samples(grid, v(grid.nodes)),
        v_func=v,
        mirror_even=True,
        levels=2,
    )
    assert abs(res.E_ground - 0.5 * g) < 1e-8


def test_mirror_equals_explicit_full_line():
    g = 2.0
    half = ws.make_grid(6.0, 150.0)
    full = ws.make_grid((-6.0, 6.0), 150.0)

    def v(x):
        return 0.25 * g * g * x**2

    e_half = ws.fd_ground_state(ws.Samples(half, v(half.nodes)), mirror_even=True, levels=1)
    e_full = ws.fd_ground_state(ws.Samples(full, v(full.nodes)), levels=1)
    assert math.isclose(e_half.E_ground, e_full.E_ground, rel_tol=1e-10)


def test_richardson_beats_raw_levels(moderate_model, moderate_grid):
    m = moderate_model
    res = ws.fd_ground_state(ws.potential_samples(m, moderate_grid), levels=3)
    rep = res.refinement
    raw_errs = [abs(lv.energy - m.E) for lv in rep.levels]
    assert all(a > b for a, b in zip(raw_errs, raw_errs[1:]))
    assert abs(rep.richardson - m.E) < raw_errs[-1]
    assert rep.order is not None
    assert 1.7 < rep.order < 2.3
    assert rep.error_estimate > 0.0


def test_ground_state_vector_contract(moderate_model, moderate_grid):
    res = ws.fd_ground_state(ws.potential_samples(moderate_model, moderate_grid), levels=2)
    psi = res.psi
    norm = ws.integrate(psi.with_values(psi.values**2))
    assert math.isclose(norm, 1.0, rel_tol=1e-12)
    assert np.all(psi.values >= 0.0)  # nodeless, sign fixed
    assert psi.values[0] == psi.values[-1] == 0.0  # hard walls


def test_levels_come_out_ordered(moderate_model, moderate_grid):
    lv = ws.fd_levels(ws.potential_samples(moderate_model, moderate_grid), 3)
    assert lv.shape == (3,)
    assert lv[0] < lv[1] < lv[2]
    assert abs(lv[0] - moderate_model.E) < 1e-5  # unrefined, h^2 bias only


@pytest.mark.parametrize("mirror_even", [False, True])
def test_fd_levels_is_the_ground_state_eigenvalue(mirror_even):
    # fd_levels skips the eigenvectors, which must not move the eigenvalue
    # by a bit: sym_quartic mirrored from the half line, and a tilted
    # quartic on the full line
    g, tilt = 3.0, (0.0 if mirror_even else 0.4)
    grid = ws.quartic_grid(g, 200.0, full_line=not mirror_even)
    x = grid.nodes
    V = ws.Samples(grid, 0.5 * g * g * (x**2 - 1.0) ** 2 + tilt * g * x)
    lv = ws.fd_levels(V, 1, mirror_even=mirror_even)
    res = ws.fd_ground_state(V, mirror_even=mirror_even, levels=1)
    assert lv[0] == res.E_ground


def test_count_out_of_range_rejected():
    tiny = ws.make_grid((0.0, 1.0), 2.0)
    with pytest.raises(ValueError, match="count"):
        ws.fd_levels(ws.Samples(tiny, np.zeros(tiny.n_nodes)), 5)
