"""Quadrature and grid mechanics.

Everything downstream leans on three properties checked here: breakpoints
land on nodes exactly, the composite rule is fourth order on smooth
integrands, and cumulative integrals agree with the total to the last bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellsolver import (
    Grid,
    Samples,
    bracket,
    concat_grids,
    cumulative_from,
    integrate,
    make_grid,
    mirror_grid,
    slice_grid,
)
from wellsolver.grid import panel_increments


def test_breakpoints_are_nodes():
    g = make_grid((-2.0, 3.0), 37.3, breakpoints=(-0.5, 1.25))
    assert g.breakpoints == (-0.5, 1.25)
    for b in (-2.0, -0.5, 1.25, 3.0):
        assert g.nodes[g.index_of(b)] == b
    assert np.all(np.diff(g.nodes) > 0)


def test_segments_are_uniform_with_even_panels():
    g = make_grid((0.0, 2.0), 10.0, breakpoints=(0.7,))
    for start, stop, h in g.segments:
        seg = g.nodes[start : stop + 1]
        assert (stop - start) % 2 == 0
        assert np.allclose(np.diff(seg), h, rtol=0, atol=1e-15)


def test_half_line_domain_shorthand():
    g = make_grid(3.0, 10.0)
    assert g.x_min == 0.0
    assert g.x_max == 3.0


def test_index_of_miss_raises():
    g = make_grid((0.0, 1.0), 20.0)
    with pytest.raises(KeyError):
        g.index_of(0.33)


def test_out_of_domain_breakpoints_dropped():
    g = make_grid((0.0, 1.0), 10.0, breakpoints=(1.5,))
    assert g.breakpoints == ()


@pytest.mark.parametrize(
    "bad, msg",
    [
        (lambda: make_grid((2.0, 1.0), 10.0), "positive length"),
        (lambda: make_grid((0.0, 1.0), 0.0), "density"),
    ],
)
def test_make_grid_validation(bad, msg):
    with pytest.raises(ValueError, match=msg):
        bad()


def test_cubics_integrate_exactly():
    g = make_grid((-1.0, 2.0), 15.0)
    x = g.nodes
    f = Samples(g, x**3 - 2.0 * x**2 + x)
    exact = (2.0**4 / 4 - 2 * 2.0**3 / 3 + 2.0**2 / 2) - (
        (-1.0) ** 4 / 4 - 2 * (-1.0) ** 3 / 3 + (-1.0) ** 2 / 2
    )
    assert math.isclose(integrate(f), exact, rel_tol=1e-14)


def test_fourth_order_on_smooth_integrand():
    errs = []
    for density in (20.0, 40.0):
        g = make_grid((0.0, math.pi), density)
        errs.append(abs(integrate(Samples(g, np.sin(g.nodes))) - 2.0))
    assert errs[0] / errs[1] > 10.0  # halving h gains ~16x


def test_cumulative_left_anchors_and_matches_total():
    g = make_grid((0.0, 2.0), 30.0, breakpoints=(0.5,))
    f = Samples(g, np.exp(-g.nodes))
    F = cumulative_from(f, "left")
    assert F.values[0] == 0.0
    assert F.values[-1] == integrate(f)  # exact by construction


def test_cumulative_right_traverses_leftward():
    # right anchor holds F(x_max) = 0 and its values are integrals taken
    # from x_max down, so F_right = F_left - total everywhere
    g = make_grid((0.0, 2.0), 30.0)
    f = Samples(g, 1.0 + g.nodes**2)
    Fl = cumulative_from(f, "left").values
    Fr = cumulative_from(f, "right").values
    assert Fr[-1] == 0.0
    assert np.all(Fr[:-1] < 0.0)
    assert np.allclose(Fr, Fl - integrate(f), rtol=0, atol=1e-13)


def test_bracket_matches_direct_product():
    # log_phi = -x/2 weighs by phi^2 = e^{-x}
    g = make_grid((0.0, 1.0), 40.0)
    f = Samples(g, np.cos(g.nodes))
    direct = integrate(Samples(g, f.values * np.exp(-g.nodes)))
    assert math.isclose(bracket(f, Samples(g, -0.5 * g.nodes)), direct, rel_tol=1e-14)


def test_bracket_log_weight_handles_hard_wall_zeros():
    g = make_grid((0.0, 1.0), 40.0)
    L = -0.5 * (g.nodes - 0.5) ** 2
    L[0] = L[-1] = -np.inf
    one = Samples(g, np.ones(g.n_nodes))
    direct = integrate(Samples(g, np.exp(2.0 * L)))
    assert math.isclose(bracket(one, Samples(g, L)), direct, rel_tol=1e-13)


def test_bracket_log_weight_ratio_is_shift_invariant():
    g = make_grid((0.0, 1.0), 40.0)
    L = -0.5 * (g.nodes - 0.5) ** 2
    f = Samples(g, g.nodes.copy())
    one = Samples(g, np.ones(g.n_nodes))
    ratios = []
    for shift in (0.0, -50.0):
        w = Samples(g, L + shift)
        ratios.append(bracket(f, w) / bracket(one, w))
    assert math.isclose(ratios[0], ratios[1], rel_tol=1e-13)


def test_bracket_log_weight_survives_600_decade_range():
    # exp(2L) itself underflows at the edges (2L down to -1000); the log
    # weight must still integrate the peak region at quadrature accuracy
    g = make_grid((0.0, 1.0), 600.0)
    a = 2000.0
    L = -a * (g.nodes - 0.5) ** 2
    one = Samples(g, np.ones(g.n_nodes))
    val = bracket(one, Samples(g, L))
    assert math.isclose(val, math.sqrt(math.pi / (2 * a)), rel_tol=1e-12)


def test_mirror_grid_reflects_domain_and_breakpoints():
    g = make_grid((-1.0, 2.0), 10.0, breakpoints=(0.5,))
    m = mirror_grid(g)
    assert (m.x_min, m.x_max) == (-2.0, 1.0)
    assert m.breakpoints == (-0.5,)
    assert np.allclose(m.nodes, -g.nodes[::-1], rtol=0, atol=0)


def test_slice_then_concat_round_trips():
    g = make_grid((-1.0, 2.0), 12.0, breakpoints=(0.5,))
    left = slice_grid(g, -1.0, 0.5)
    right = slice_grid(g, 0.5, 2.0)
    back = concat_grids(left, right)
    assert np.array_equal(back.nodes, g.nodes)
    assert back.segments == g.segments


def test_slice_requires_boundary_nodes():
    g = make_grid((0.0, 1.0), 20.0)
    with pytest.raises(KeyError):
        slice_grid(g, 0.0, 0.33)


def test_jumps_only_on_segment_boundaries():
    g = make_grid((0.0, 1.0), 20.0, breakpoints=(0.5,))
    vals = np.zeros(g.n_nodes)
    j = g.index_of(0.5)
    for ok in (0, j, g.n_nodes - 1):
        assert Samples(g, vals, jumps={ok: (1.0, 0.0)}).jumps
    with pytest.raises(ValueError, match=f"jump at node {j + 1} is not on"):
        Samples(g, vals, jumps={j: (1.0, 0.0), j + 1: (1.0, 0.0)})


def test_concat_requires_shared_junction():
    with pytest.raises(ValueError, match="junction"):
        concat_grids(make_grid((0.0, 1.0), 20.0), make_grid((2.0, 3.0), 20.0))


def test_refined_keeps_breakpoints_and_doubles_panels():
    g = make_grid((0.0, 2.0), 10.0, breakpoints=(0.7,))
    r = g.refined(2)
    assert r.breakpoints == g.breakpoints
    assert r.n_nodes - 1 == 2 * (g.n_nodes - 1)
    for b in (0.0, 0.7, 2.0):
        assert r.nodes[r.index_of(b)] == b


@given(
    density=st.floats(min_value=5.0, max_value=60.0),
    b=st.floats(min_value=0.1, max_value=0.9),
)
def test_breakpoint_always_a_node(density, b):
    g = make_grid((0.0, 1.0), density, breakpoints=(b,))
    assert g.nodes[g.index_of(b)] == b


@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    c=st.floats(min_value=-3.0, max_value=3.0),
)
def test_integrate_is_linear(a, c):
    g = make_grid((0.0, 1.0), 25.0)
    f1 = Samples(g, np.sin(g.nodes))
    f2 = Samples(g, g.nodes**2)
    lhs = integrate(Samples(g, a * f1.values + c * f2.values))
    rhs = a * integrate(f1) + c * integrate(f2)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


# positivity of the running integral needs a resolved integrand; the
# panel rule may dip at interior nodes for data rough at the grid scale
@given(
    omega=st.floats(min_value=0.5, max_value=3.0),
    phase=st.floats(min_value=0.0, max_value=6.28),
)
def test_left_cumulative_of_smooth_nonnegative_is_nondecreasing(omega, phase):
    g = make_grid((0.0, 1.0), 40.0)
    f = Samples(g, np.exp(np.sin(omega * g.nodes + phase)))
    F = cumulative_from(f, "left").values
    assert np.all(np.diff(F) >= -1e-12)


def _segment_loop(f):
    """Segment-by-segment form of the half-pair kernel, the whole-grid
    ``panel_increments``' reference: each segment's slice, with its own
    one-sided jump values, split into the two parabolic half-rules."""
    out = np.empty(f.grid.n_nodes - 1)
    for i0, i1, h in f.grid.segments:
        vals = f.values[i0 : i1 + 1].copy()
        if i0 in f.jumps:
            vals[0] = f.jumps[i0][1]
        if i1 in f.jumps:
            vals[-1] = f.jumps[i1][0]
        a, b, c = vals[0:-2:2], vals[1:-1:2], vals[2::2]
        out[i0:i1:2] = (h / 12.0) * (5.0 * a + 8.0 * b - c)
        out[i0 + 1 : i1 : 2] = (h / 12.0) * (-a + 8.0 * b + 5.0 * c)
    return out


@given(
    segments=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),  # pairs
            st.floats(min_value=1e-3, max_value=2.0),  # spacing
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200)
def test_whole_grid_increments_match_segment_loop(segments, seed, data):
    pieces, segs, first, x0 = [], [], 0, -1.0
    for pairs, h in segments:
        n = 2 * pairs
        xs = x0 + h * np.arange(n + 1)
        pieces.append(xs[1:] if pieces else xs)
        segs.append((first, first + n, h))
        first, x0 = first + n, float(xs[-1])
    grid = Grid(np.concatenate(pieces), tuple(segs))
    rng = np.random.default_rng(seed)
    # jumps on any subset of the boundary nodes, both grid ends included
    at = data.draw(st.sets(st.sampled_from(grid.boundary_indices)))
    jumps = {j: tuple(rng.standard_normal(2)) for j in sorted(at)}
    f = Samples(grid, rng.standard_normal(grid.n_nodes), jumps=jumps)
    whole = panel_increments(f)
    assert whole.tobytes() == _segment_loop(f).tobytes()
