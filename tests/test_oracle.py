"""Independent eigensolver used to referee the iteration results.

The oracle must agree with closed forms it never saw: the analytic box
spectrum and the harmonic level. Richardson extrapolation has to behave
like the second-order method it claims to be.
"""

import math

import numpy as np
import pytest

import wellsolver as ws
from wellsolver import oracle


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
    norm = ws.integrate(ws.Samples(psi.grid, psi.values**2))
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


def test_even_ground_state_lives_on_the_half_line():
    # reflecting end: node 0 carries the peak of the even state, the far
    # wall stays a Dirichlet zero, and the norm is the half-line one
    g = 2.0
    grid = ws.quartic_grid(g, 200.0)
    x = grid.nodes
    res = ws.fd_ground_state(
        ws.Samples(grid, 0.5 * g * g * (x**2 - 1.0) ** 2),
        mirror_even=True,
        levels=1,
    )
    psi = res.psi
    assert psi.grid is grid
    assert psi.values[0] > 0.0 and psi.values[-1] == 0.0
    assert np.all(psi.values >= 0.0)
    norm = ws.integrate(ws.Samples(psi.grid, psi.values**2))
    assert math.isclose(norm, 1.0, rel_tol=1e-12)


def _family():
    """Fixed-seed problems: (label, V, mirror_even, count)."""
    rng = np.random.default_rng(20040715)
    out = []
    for g in np.exp(rng.uniform(0.0, math.log(40.0), 8)):
        density = float(rng.choice([400.0, 800.0, 1600.0]))
        grid = ws.quartic_grid(g, density)
        x = grid.nodes
        V = ws.Samples(grid, 0.5 * g * g * (x**2 - 1.0) ** 2)
        out.append((f"sym g={g:.3f} density={density:g}", V, True, 1))
    readme = ws.solve_asymmetric(3.0, math.sqrt(0.5), 1.0, 2.0)
    grid = ws.squarewell_grid(readme, 400.0)
    out.append(("README well", ws.potential_samples(readme, grid), False, 3))
    for mu in (0.0, *rng.uniform(0.1, 1.5, 3)):
        m = ws.solve_asymmetric(
            float(rng.uniform(2.5, 5.0)), float(mu),
            float(rng.uniform(0.3, 1.0)), float(rng.uniform(1.0, 2.5)),
        )
        grid = ws.squarewell_grid(m, 400.0)
        out.append((f"square well mu={mu:.3f}", ws.potential_samples(m, grid),
                    False, 1))
    for g, lam in zip(rng.uniform(2.0, 20.0, 3), rng.uniform(0.05, 0.9, 3)):
        grid = ws.quartic_grid(g, 400.0, full_line=True)
        x = grid.nodes
        V = ws.Samples(grid, 0.5 * g * g * (x**2 - 1.0) ** 2 + g * lam * x)
        out.append((f"tilted g={g:.3f} lam={lam:.3f}", V, False, 3))
    grid = ws.quartic_grid(3.0, 400.0)
    x = grid.nodes
    out.append(("sym g=3 levels", ws.Samples(grid, 4.5 * (x**2 - 1.0) ** 2),
                True, 3))
    return out


FAMILY = _family()


def _matrix(V, mirror_even):
    v = oracle._node_values(V, mirror_even)
    d, e, _m = oracle._tridiagonal(V.grid.nodes, v, mirror_even)
    return d, e, float(v.min())


@pytest.mark.parametrize("label, V, mirror_even, count", FAMILY,
                         ids=[f[0] for f in FAMILY])
def test_levels_match_lapack_bisection(label, V, mirror_even, count):
    """Reference check against LAPACK's Sturm bisection (scipy, tests only).

    stebz forms d_i - x, which rounds x to the ulp grid of the diagonal,
    alike at every node of a uniform segment: its answers carry that much
    absolute error on top of the 1e-10 relative asked for here.
    """
    from scipy.linalg import eigh_tridiagonal

    d, e, _floor = _matrix(V, mirror_even)
    ref = eigh_tridiagonal(
        d, e, eigvals_only=True, select="i", select_range=(0, count - 1),
        lapack_driver="stebz", tol=np.finfo(np.float64).tiny,
    )
    ours = ws.fd_levels(V, count, mirror_even=mirror_even)
    resolution = float(np.spacing(np.max(np.abs(d))))
    assert ours.shape == (count,)
    assert np.all(np.abs(ours - ref) <= 1e-10 * np.abs(ref) + resolution), label


@pytest.mark.parametrize("label, V, mirror_even, count", FAMILY,
                         ids=[f[0] for f in FAMILY])
def test_sturm_counts_certify_each_level(label, V, mirror_even, count):
    d, e, floor = _matrix(V, mirror_even)
    T = oracle._Tridiagonal(d, e, floor)
    for k, lam in enumerate(ws.fd_levels(V, count, mirror_even=mirror_even)):
        delta = 1e-9 * max(abs(lam), lam - floor)
        assert T.count(lam - delta) == k, label
        assert T.count(lam + delta) == k + 1, label


def test_ground_level_beats_lapack_where_the_diagonal_dwarfs_it():
    # g ~ 1 at density 1600: a sub-unit eigenvalue of a matrix whose
    # diagonal is 2.6e6. A long-double Sturm count of the very same matrix
    # puts the solver's value within 5e-11; stebz is 1.3e-10 off here.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended-precision long double")
    g = 1.0858288112489554
    grid = ws.quartic_grid(g, 1600.0)
    x = grid.nodes
    V = ws.Samples(grid, 0.5 * g * g * (x**2 - 1.0) ** 2)
    d, e, _floor = _matrix(V, True)
    lam = float(ws.fd_levels(V, 1, mirror_even=True)[0])

    def count(s):
        dl, e2 = d.astype(np.longdouble), e.astype(np.longdouble) ** 2
        s = np.longdouble(s)
        p, neg = dl[0] - s, 0
        for a, b in zip(dl[1:], e2):
            neg += p < 0
            p = (a - s) - b / p
        return neg + (p < 0)

    assert count(lam * (1.0 - 5e-11)) == 0
    assert count(lam * (1.0 + 5e-11)) == 1


def test_sturm_bisection_takes_over_from_a_missed_iteration(monkeypatch):
    # a value that fails the certificate is not returned: counts alone
    # locate the level instead
    grid = ws.quartic_grid(3.0, 200.0)
    x = grid.nodes
    V = ws.Samples(grid, 4.5 * (x**2 - 1.0) ** 2)
    good = ws.fd_levels(V, 2, mirror_even=True)
    iterate = oracle._eigenvalue

    def missed(*args, **kwargs):
        lam, lo, n_lo, r = iterate(*args, **kwargs)
        return lam * 1.01, lo, n_lo, r

    monkeypatch.setattr(oracle, "_eigenvalue", missed)
    bisected = ws.fd_levels(V, 2, mirror_even=True)
    assert np.allclose(bisected, good, rtol=1e-9, atol=0.0)


def test_degenerate_pair_is_refused():
    # a symmetric full-line double well this deep has even and odd ground
    # levels equal to roundoff: no count separates them
    g = 30.0
    grid = ws.quartic_grid(g, 200.0, full_line=True)
    x = grid.nodes
    V = ws.Samples(grid, 0.5 * g * g * (x**2 - 1.0) ** 2)
    with pytest.raises(ws.EigensolveError, match="Sturm counts"):
        ws.fd_levels(V, 1)
