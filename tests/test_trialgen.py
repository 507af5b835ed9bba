"""Trial-state builders.

Each builder must hand the engine a state that exactly solves its own
modified problem; residual_check closes that loop from samples alone, so
its value is pure discretization error and must shrink at second order.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wellsolver as ws


def test_harmonic_trial_is_exact():
    g = ws.make_grid((-6.0, 6.0), 40.0)
    t = ws.build_harmonic_trial(2.0, g)
    assert t.E0 == 1.0
    assert not np.any(t.w.values)  # w identically zero
    assert t.domain_kind == "full_line"
    assert "harmonic" in t.label


def test_symmetric_quartic_trial_shape():
    g = ws.quartic_grid(2.0, 80.0)
    t = ws.build_symmetric_quartic_trial(2.0, g)
    assert t.E0 == 2.0
    assert t.domain_kind == "half_line_even"
    assert np.max(t.w.values) == t.E0
    # perturbation decreasing away from the origin on the half line
    assert np.all(np.diff(t.w.values) <= 1e-12)


@pytest.mark.parametrize("g", [1.0 + 1e-9, 1.5, 2.0, 7.3, 40.0])
@pytest.mark.parametrize("density", [25.0, 400.0, 1600.0])
def test_symmetric_trial_is_the_zero_tilt_plus_half(g, density):
    sym = ws.build_symmetric_quartic_trial(g, ws.quartic_grid(g, density))
    full = ws.quartic_grid(g, density, full_line=True)
    plus, _minus = ws.build_asymmetric_quartic_trial(g, 0.0, full)
    assert np.array_equal(sym.grid.nodes, plus.grid.nodes)
    assert sym.grid.segments == plus.grid.segments
    assert np.array_equal(sym.w.values, plus.w.values)
    assert dict(sym.w.jumps) == dict(plus.w.jumps)
    assert np.array_equal(sym.V.values, plus.V.values)
    assert sym.E0 == plus.E0 == g
    # only the normalisation differs: log 2 against -log 2g + log(g + 1)
    offset = sym.log_phi.values - plus.log_phi.values
    expected = math.log(2.0) + math.log(2.0 * g) - math.log(g + 1.0)
    scale = max(1.0, float(np.max(np.abs(sym.log_phi.values))))
    assert np.max(np.abs(offset - expected)) <= 1e-12 * scale
    assert sym.label == f"sym_quartic(g={g:g})"


def test_asymmetric_pair_seed_energies():
    g = ws.quartic_grid(5.0, 80.0, full_line=True)
    tp, tm = ws.build_asymmetric_quartic_trial(5.0, 0.2, g)
    # seed levels of the tilted wells: g*(1 + lam) and g*(1 - lam)
    assert math.isclose(tp.E0, 6.0, rel_tol=1e-14)
    assert math.isclose(tm.E0, 4.0, rel_tol=1e-14)
    assert tp.domain_kind == tm.domain_kind == "half_line_even"


@pytest.mark.parametrize(
    "g, lam, msg",
    [
        (5.0, 1.5, "tilt"),
        (5.0, -0.1, "tilt"),
        (1.1, 0.2, "positive perturbation"),
    ],
)
def test_asymmetric_validation(g, lam, msg):
    grid = ws.quartic_grid(max(g, 2.0), 40.0, full_line=True)
    with pytest.raises(ValueError, match=msg):
        ws.build_asymmetric_quartic_trial(g, lam, grid)


def test_asymmetric_needs_full_line_grid():
    with pytest.raises(ValueError, match="full-line"):
        ws.build_asymmetric_quartic_trial(5.0, 0.2, ws.quartic_grid(5.0, 40.0))


def test_quartic_grid_puts_wells_on_nodes():
    gh = ws.quartic_grid(2.0, 60.0)
    assert gh.breakpoints == (1.0,)
    gf = ws.quartic_grid(2.0, 60.0, full_line=True)
    assert gf.breakpoints == (-1.0, 0.0, 1.0)


def test_default_truncation_is_tail_safe():
    # amplitude beyond the default edge is sub-1e-14 of the peak
    for g in (1.0, 2.0, 4.0):
        grid = ws.quartic_grid(g, 60.0)
        t = ws.build_symmetric_quartic_trial(g, grid)
        L = t.log_phi.values
        assert L[-1] - L.max() < math.log(1e-12)
        assert grid.x_max == ws.default_truncation(g)


def test_residual_check_reports_location():
    g = ws.quartic_grid(2.0, 100.0)
    t = ws.build_symmetric_quartic_trial(2.0, g)
    rep = ws.residual_check(t)
    assert rep.l2_rel <= rep.max_rel
    assert g.x_min <= rep.x_at_max <= g.x_max
    assert rep.amp_floor == 1e-6


def test_residual_is_second_order_in_h():
    # the closed forms are exact; what residual_check sees is the
    # three-point stencil error, so doubling density gains ~4x
    vals = []
    for density in (100.0, 200.0):
        g = ws.quartic_grid(2.0, density)
        vals.append(ws.residual_check(ws.build_symmetric_quartic_trial(2.0, g)).max_rel)
    assert vals[0] / vals[1] > 3.0
    assert vals[1] < 0.05


@given(g=st.floats(min_value=1.2, max_value=6.0))
def test_harmonic_residual_bounded(g):
    grid = ws.make_grid((-8.0 / math.sqrt(g), 8.0 / math.sqrt(g)), 60.0 * math.sqrt(g))
    rep = ws.residual_check(ws.build_harmonic_trial(g, grid))
    assert rep.max_rel < 0.1


# strong tilt at weak coupling bends the lower-channel perturbation
# back up near the well, so sample inside the monotone envelope
@given(
    g=st.floats(min_value=2.0, max_value=6.0),
    lam=st.floats(min_value=0.0, max_value=0.45),
)
def test_tilted_pair_orders_seed_levels(g, lam):
    grid = ws.quartic_grid(g, 50.0, full_line=True)
    tp, tm = ws.build_asymmetric_quartic_trial(g, lam, grid)
    assert tp.E0 >= tm.E0
    assert math.isclose(tp.E0 + tm.E0, 2.0 * g, rel_tol=1e-12)
    for t in (tp, tm):
        assert ws.residual_check(t).l2_rel < 0.05


def test_tilt_outside_monotone_envelope_is_rejected():
    grid = ws.quartic_grid(2.0, 50.0, full_line=True)
    with pytest.raises(ValueError, match="not monotone"):
        ws.build_asymmetric_quartic_trial(2.0, 0.6, grid)
