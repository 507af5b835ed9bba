"""Independent finite-difference eigensolver used as validation ground truth.

Discretizes -1/2 d^2/dx^2 + V with Dirichlet zeros at both grid edges and
solves for the lowest eigenpair(s) directly. It deliberately shares no
numerics with the iteration engine beyond the Grid/Samples containers, so
agreement between the two methods is evidence rather than circularity.

Discretization: piecewise-linear finite elements with a lumped (diagonal)
mass matrix, similarity-transformed by M^(1/2) so the problem stays a
symmetric tridiagonal ordinary eigenproblem even on nonuniform grids. On a
uniform segment this reduces exactly to the familiar second-order stencil
(diagonal 1/h^2 + V, off-diagonal -1/(2 h^2)); the eigenvalue error is
O(h^2) and one Richardson step across a grid refinement gives O(h^4).
Even problems (``mirror_even``) keep the half-line grid and make its
x = 0 end reflecting instead: node 0 gets the lumped mass h0/2 and the
stiffness 1/(2 h0), which is exactly the even sector of the problem
reflected onto the full line, at half its size.

Eigenvalues come from a pure-Python solver on the matrix's LDL^T pivots
(no LAPACK, no scipy):

* Sturm counts (the LDL^T inertia of T - s) bracket each eigenvalue and
  certify its index; the lowest one is at least min V, because the
  stiffness part is positive semidefinite.
* Inside the bracket, a safeguarded secant iteration drives the twisted
  pivot gamma_r(s) = 1 / [(T - s)^-1]_rr to zero (Parlett & Dhillon
  2000), with r = argmin_k |gamma_k| at the lower bound. The secant is
  taken on a Mobius model of gamma_r, which matches its pole-and-zero
  shape, and falls back to bisection. It stops when gamma_r is at its
  roundoff floor. Every step is one sweep, which yields a Sturm count as
  well; it skips the eigenvector's tails once they have decayed by
  e^-40, which the certifying counts below never do.
* The accepted value is certified: count(E - delta) = k and
  count(E + delta) = k + 1, with delta = 1e-9 of max(|E|, E - min V).
  A value that fails is replaced by plain Sturm bisection; if that fails
  too (two levels within delta), :class:`EigensolveError` is raised.
* The ground state's eigenvector comes from one twisted solve at the
  converged shift.

The pivots of T - s are computed as offsets from those at a fixed shift
s0 <= min V. Forming d_i - s directly, as bisection codes do, rounds s to
the ulp grid of the O(1/h^2) diagonal, alike at every node of a uniform
segment: at density 1600 that moves a sub-unit eigenvalue by up to 1e-10
relative. The offsets are O(s - s0) and keep their precision, so the
eigenvalues of the assembled matrix come out within a few 1e-11.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log, sqrt
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import Grid, Samples, integrate

Array = NDArray[np.float64]

__all__ = [
    "EigensolveError",
    "RefinementLevel",
    "RefinementReport",
    "OracleResult",
    "fd_ground_state",
    "fd_levels",
]

# Relative magnitude below which eigenvector tail entries are treated as
# solver noise: their sign carries no information, so they are snapped to
# zero instead of failing the nodeless-ground-state check.
_NOISE_FLOOR = 1e-11
_EPS = float(np.finfo(np.float64).eps)
# Half-width of the Sturm-count window that certifies each eigenvalue,
# relative to max(|E|, E - min V).
_CERT_REL = 1e-9
# Log-amplitude by which the eigenvector must have decayed, away from the
# twist index, before the iteration's sweeps stop following it outward: a
# tail beyond e^-40 moves gamma_r's zero by e^-80 relative. The Sturm counts
# that certify the result always sweep every node.
_TAIL_DECAY = 40.0
# Pivot sweeps allowed per eigenvalue before the solve is declared failed:
# the ground level converges in about six; bisection from the Gershgorin
# bound, which higher levels start with, needs at most about 70.
_MAX_SWEEPS = 200


class EigensolveError(RuntimeError):
    """Tridiagonal eigensolve failed, or returned a sign-changing ground state."""


@dataclass(frozen=True)
class RefinementLevel:
    """One resolution of a refinement study."""

    factor: int
    n_nodes: int
    energy: float


@dataclass(frozen=True)
class RefinementReport:
    """Energies across grid refinements plus the Richardson extrapolation.

    ``error_estimate`` bounds the finest raw eigenvalue's discretization
    error (difference of the two finest levels divided by factor^2 - 1);
    the extrapolated value is better still. ``order`` is the measured
    convergence exponent, available once three or more levels exist.
    """

    levels: tuple[RefinementLevel, ...]
    richardson: float
    error_estimate: float
    order: float | None


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth eigenpair: best energy, eigenvector, refinement study.

    ``psi`` lives on the sample grid. It is positive at the unknown nodes
    above the noise floor and zero at Dirichlet walls, and has unit L2
    norm under the grid's own quadrature rule. For even problems
    (``mirror_even``) the grid is the half line, node 0 is the reflecting
    end, where psi is nonzero, and the norm is the half line's.
    """

    E_ground: float
    psi: Samples
    refinement: RefinementReport | None

    @property
    def grid(self) -> Grid:
        return self.psi.grid


def _node_values(V: Samples, reflecting: bool) -> Array:
    """Potential at each unknown node, averaging one-sided values at jumps."""
    vals = np.array(V.values, dtype=np.float64, copy=True)
    for idx, (left, right) in V.jumps.items():
        vals[idx] = 0.5 * (left + right)
    vals = vals[0 if reflecting else 1 : -1]
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential must be finite at the unknown nodes")
    return vals


def _tridiagonal(
    nodes: Array, v: Array, reflecting: bool
) -> tuple[Array, Array, Array]:
    """Symmetrized tridiagonal (diagonal, off-diagonal, lumped masses).

    The unknowns are the interior nodes, plus node 0 when that end is
    reflecting; ``v`` is the potential at the unknowns.
    """
    h = np.diff(nodes)
    hm, hp = h[:-1], h[1:]
    m = 0.5 * (hm + hp)
    k = 0.5 * (1.0 / hm + 1.0 / hp)
    hc = h[1:-1]
    if reflecting:
        m = np.concatenate(([0.5 * h[0]], m))
        k = np.concatenate(([0.5 / h[0]], k))
        hc = h[:-1]
    d = k / m + v
    e = -0.5 / (hc * np.sqrt(m[:-1] * m[1:]))
    return d, e, m


def _pivots(a: list[float], b2: list[float]) -> list[float]:
    """LDL^T pivots of the tridiagonal with diagonal a, off-diagonal^2 b2."""
    it = iter(a)
    p = next(it)
    out = [p]
    push = out.append
    for ak, bk in zip(it, b2):
        p = ak - bk / p
        push(p)
    if not isfinite(p):
        raise ZeroDivisionError("pivot underflow")
    return out


def _offsets(
    p0: float, q: list[float], p: list[float], c: float
) -> tuple[int, float, float]:
    """Sturm count and last pivot of T - s, as offsets from T - s0.

    ``p0`` and ``p`` are the pivots of T - s0 (the first and the rest),
    q_i = e_i^2 / p_i, and c = s0 - s. The pivot of T - s at node i is
    p_i + f_i, with f_0 = c and f_i = c + q_(i-1) f_(i-1) / (p_(i-1) +
    f_(i-1)). Returns (negative pivots, last offset, last pivot). A zero
    pivot, or one so small that the next offset overflows, raises
    ZeroDivisionError.
    """
    f = c
    d = p0 + c
    neg = d < 0.0
    for qk, pk in zip(q, p):
        f = c + qk * f / d
        d = pk + f
        if d < 0.0:
            neg += 1
    if not isfinite(f):
        raise ZeroDivisionError("pivot underflow")
    return int(neg), f, d


def _shifted(fn, s: float):
    """(shift used, ``fn(shift)``), nudging ``s`` off a singular pivot."""
    for _ in range(8):
        try:
            return s, fn(s)
        except ZeroDivisionError:
            s += 16.0 * _EPS * max(abs(s), 1.0)
    raise EigensolveError(f"pivots stay singular near shift {s!r}")


class _Tridiagonal:
    """T, with its LDL^T pivots at a reference shift s0 <= min V.

    Every later shift s is handled through offsets from these pivots
    (:func:`_offsets`), which are O(s - s0) and keep full precision.
    Forming d_i - s directly would round s itself to ulp(max d_i) alike
    at every node of a uniform segment, moving a sub-unit eigenvalue by
    up to 1e-10 relative at density 1600. s0 is put on that ulp grid,
    so d - s0 is exact. Backward pivots run from the last node down and
    are stored in that order, so both directions use the same loop.
    """

    def __init__(self, d: Array, e: Array, floor: float) -> None:
        self.d, self.e, self.n = d, e, d.size
        self.floor = floor  # lambda_0 >= min V: the stiffness part is PSD
        ulp = float(np.spacing(np.max(np.abs(d))))
        self.s0 = float(np.floor(floor / ulp) * ulp)
        e2 = e * e
        self.e2 = e2.tolist()
        a = (d - self.s0).tolist()
        try:
            fwd = _pivots(a, self.e2)
            bwd = _pivots(a[::-1], self.e2[::-1])  # from the last node down
        except ZeroDivisionError as exc:
            raise EigensolveError(
                f"singular pivot at the lower bound min V = {floor!r}"
            ) from exc
        pf = np.fromiter(fwd, np.float64, len(fwd))
        rb = np.fromiter(bwd, np.float64, len(bwd))
        n0 = int(np.count_nonzero(pf <= 0.0))
        if n0:
            raise EigensolveError(
                f"Sturm count {n0} at the lower bound min V = {floor!r}"
            )
        self.fwd = (fwd[0], (e2 / pf[:-1]).tolist(), fwd[1:])
        self.bwd = (bwd[0], (e2[::-1] / rb[:-1]).tolist(), bwd[1:])
        self.pf, self.pb = pf, rb[::-1]
        self.gamma0 = pf + self.pb - (d - self.s0)
        off = np.abs(e)
        self.rad = np.concatenate((off, [0.0])) + np.concatenate(([0.0], off))
        self.top = float(np.max(d + self.rad))  # Gershgorin

    def at(self, s: float) -> tuple[int, Array, Array, Array]:
        """(count below s, forward pivots, backward pivots, all gamma_k).

        Pivots formed from d - s directly: good enough to pick the twist
        index and a first step, or for an eigenvector, not for counts
        that certify.
        """
        a = (self.d - s).tolist()
        pf = np.array(_pivots(a, self.e2))
        pb = np.array(_pivots(a[::-1], self.e2[::-1]))[::-1]
        gamma = pf + pb - (self.d - s)
        return int(np.count_nonzero(pf < 0.0)), pf, pb, gamma

    def vector(self, s: float, r: int) -> Array:
        """Eigenvector for the eigenvalue ``s``: one twisted solve at r."""
        a = (self.d - s).tolist()
        empty = np.empty(0)
        left = np.array(_pivots(a[:r], self.e2[: r - 1])) if r > 0 else empty
        right = (
            np.array(_pivots(a[:r:-1], self.e2[:r:-1]))[::-1]
            if r < self.n - 1 else empty
        )
        return _twisted_vector(self.e, left, right)

    def count(self, s: float) -> int:
        """Number of eigenvalues below ``s``."""
        return _shifted(lambda t: _offsets(*self.fwd, self.s0 - t)[0], s)[1]

    def gamma_at_s0(self, r: int) -> float:
        """gamma_r at s0, 1 / [(T - s0)^-1]_rr, from the forward factor.

        That is a sum of positive terms, where D+_r + D-_r - (d_r - s0)
        would cancel two O(1/h^2) chains with independent roundoff.
        """
        pf = self.pf
        with np.errstate(under="ignore"):
            u = np.cumprod(-self.e[r:] / pf[r:-1])
            return 1.0 / float(1.0 / pf[r] + np.sum(u * u / pf[r + 1 :]))

    def reach(self, r: int, s: float) -> tuple[int, int]:
        """Nodes (first, last) within _TAIL_DECAY of r at shifts up to s.

        The decay per node is that of the discrete exponential the row
        admits where d_i - s exceeds |e_(i-1)| + |e_i|.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            decay = np.arccosh(np.maximum((self.d - s) / self.rad, 1.0))
        right = np.cumsum(decay[r + 1 :])
        left = np.cumsum(decay[:r][::-1])
        last = r + 1 + int(np.searchsorted(right, _TAIL_DECAY, side="right"))
        first = r - 1 - int(np.searchsorted(left, _TAIL_DECAY, side="right"))
        return max(first, 0), min(last, self.n - 1)

    def twist(self, r: int, s_max: float) -> "_Twist":
        return _Twist(self, r, *self.reach(r, s_max))


class _Twist:
    """gamma_r(s) and the Sturm count of T - s, from one sweep at fixed r.

    The twisted factorization T - s = N_r diag(D+_0..D+_(r-1), gamma_r,
    D-_(r+1)..D-_(n-1)) N_r^T is a congruence, so its negative entries
    count the eigenvalues below s.
    """

    def __init__(self, T: _Tridiagonal, r: int, first: int, last: int) -> None:
        n = T.n
        self.r, self.s0 = r, T.s0
        self.g0 = T.gamma_at_s0(r)
        # roundoff in the offsets random-walks along each chain
        self.noise = 8.0 * _EPS * sqrt(n)
        # the chains start at first and last, as if the matrix ended
        # there: what that drops has decayed below double precision
        p0, q, p = T.fwd
        self.left = (
            (p[first - 1] if first else p0, q[first : r - 1], p[first : r - 1])
            if r > 0 else None
        )
        self.ql = q[r - 1] if r > 0 else 0.0
        m = n - 1 - r  # nodes right of r, stored from the last node down
        top = n - 1 - last
        p0, q, p = T.bwd
        self.right = (
            (p[top - 1] if top else p0, q[top : m - 1], p[top : m - 1])
            if m > 0 else None
        )
        self.qr = q[m - 1] if m > 0 else 0.0

    def _eval(self, s: float) -> tuple[int, float, float]:
        c = self.s0 - s
        neg, t1, t2 = 0, 0.0, 0.0
        if self.left is not None:
            k, f, d = _offsets(*self.left, c)
            neg, t1 = neg + k, self.ql * f / d
        if self.right is not None:
            k, f, d = _offsets(*self.right, c)
            neg, t2 = neg + k, self.qr * f / d
        g = self.g0 + c + t1 + t2
        floor = self.noise * (self.g0 + abs(c) + abs(t1) + abs(t2))
        return neg + (g < 0.0), g, floor

    def __call__(self, s: float) -> tuple[float, int, float, float]:
        """(shift used, count below it, gamma_r, gamma_r's roundoff floor)."""
        s, (n, g, floor) = _shifted(self._eval, s)
        return s, n, g, floor


def _twisted_vector(e: Array, left: Array, right: Array) -> Array:
    """Solution z of (T - s) z = gamma_r e_r with z_r = 1, r = len(left).

    ``left`` holds the forward pivots D+ of nodes 0..r-1 and ``right`` the
    backward pivots D- of nodes r+1..n-1. z_i = -(e_i / D+_i) z_(i+1) left
    of r and z_i = -(e_(i-1) / D-_i) z_(i-1) right of it: running
    products, which underflow harmlessly to zero in the tails.
    """
    r = left.size
    z = np.ones(r + 1 + right.size)
    with np.errstate(under="ignore"):
        z[:r] = np.cumprod((-e[:r] / left)[::-1])[::-1]
        z[r + 1 :] = np.cumprod(-e[r:] / right)
    return z


def _eigenvalue(
    T: _Tridiagonal, k: int, lo: float, hi: float, n_hi: int,
    guess: float | None = None,
) -> tuple[float, float, int, int]:
    """lambda_k, given count(lo) == k and count(hi) == n_hi > k.

    The first shift tried is ``guess`` if given, else a Newton step from
    lo. Returns (lambda_k, lo, count(lo), r): the final lower end of the
    bracket, and the twist index the iteration ran on. If the iteration
    stalls, lambda_k is its best point, for the certificate to judge.
    """
    if k > 0:
        # isolate lambda_k, and move the lower end off the certificate of
        # lambda_(k-1), where gamma_r would pick that level's vector
        start = lo
        lo, hi, n_hi = _bisect(
            T, k, lo, hi, n_hi, lambda a, b, n: n == k + 1 and a != start
        )
    if lo == T.s0:
        n_lo, dp, dm, gamma = 0, T.pf, T.pb, T.gamma0
    else:
        lo, (n_lo, dp, dm, gamma) = _shifted(T.at, lo)
    if n_lo != k:
        raise EigensolveError(
            f"Sturm count {n_lo} at the lower bound of level {k}"
        )
    r = int(np.argmin(np.abs(gamma)))
    z = _twisted_vector(T.e, dp[:r], dm[r + 1 :])
    g = T.gamma_at_s0(r) if lo == T.s0 else float(gamma[r])
    anchor = (lo, -float(z @ z))  # gamma_r' at lo is -|z|^2
    pts = [(lo, g)] if g > 0.0 else []  # the last points on gamma_r's branch
    newton = lo - g / anchor[1]  # for k = 0 a Rayleigh quotient, >= lambda_0
    s = newton if guess is None else guess
    twist = T.twist(r, hi if k else max(newton, s))
    best = (float("inf"), s)  # the smallest |gamma_r| met, and where
    for _ in range(_MAX_SWEEPS):
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
        s, n, g, floor = twist(s)
        if n <= k:
            lo, n_lo = s, n
        else:
            hi, n_hi = s, n
        best = min(best, (abs(g), s))
        if abs(g) <= floor or hi - lo <= 4.0 * _EPS * max(abs(lo), abs(hi)):
            return s, lo, n_lo, r
        # gamma_r decreases through its zero between the poles that flank
        # lambda_k; a point whose sign disagrees with its count lies
        # beyond a pole and would mislead the interpolation
        if (n <= k) == (g > 0.0):
            pts = [*pts[-2:], (s, g)]
        nxt = _root_estimate(pts, anchor)
        if nxt is None or not lo < nxt < hi:
            s = 0.5 * (lo + hi)
            continue
        if abs(nxt - s) <= 2.0 * _EPS * abs(s):  # stalled above the floor
            break
        s = nxt
    return best[1], lo, n_lo, r


def _bisect(T: _Tridiagonal, k: int, lo: float, hi: float, n_hi: int, done):
    """Halve [lo, hi] on Sturm counts, keeping count(lo) <= k < count(hi),
    until ``done(lo, hi, count(hi))``; returns (lo, hi, count(hi))."""
    for _ in range(_MAX_SWEEPS):
        if done(lo, hi, n_hi):
            return lo, hi, n_hi
        mid = 0.5 * (lo + hi)
        n = T.count(mid)
        if n <= k:
            lo = mid
        else:
            hi, n_hi = mid, n
    raise EigensolveError(f"Sturm bisection could not isolate level {k}")


def _root_estimate(
    pts: list[tuple[float, float]], anchor: tuple[float, float]
) -> float | None:
    """Zero of gamma_r from its last samples; None if they cannot tell.

    Near lambda_k, 1/gamma_r is one pole plus a slowly varying rest, which
    a Mobius function matches far better than a line. The estimate is the
    zero of the Mobius function through the last three samples, or through
    two of them and the slope ``anchor`` = (s, gamma_r'(s)) at the first;
    failing both, the secant.
    """
    if len(pts) == 3:
        (s0, g0), (s1, g1), (s2, g2) = pts
        den = (g1 - g2) * g0
        if den != 0.0 and g0 != g1:  # equal samples pin no Mobius function
            ratio = (g0 - g1) * g2 / den
            q = ratio * (s2 - s1) - (s1 - s0)
            if q != 0.0:
                return (ratio * (s2 - s1) * s0 - (s1 - s0) * s2) / q
        pts = pts[1:]
    if len(pts) < 2:
        return None
    (s0, g0), (s1, g1) = pts
    if s0 == anchor[0]:
        # in G = 1/gamma: G0' = -slope / g0^2, and the zero sits at
        # s0 + D (G1 - G0) / (G1 - G0 - G0' D), D = s1 - s0
        dg = (g0 - g1) / (g0 * g1)
        q = dg + anchor[1] * (s1 - s0) / (g0 * g0)
        if q != 0.0:
            return s0 + (s1 - s0) * dg / q
    if g0 != g1:
        return s1 - g1 * (s1 - s0) / (g1 - g0)
    return None


def _certify(
    T: _Tridiagonal, k: int, lam: float, start: float, lo: float, n_lo: int
) -> float:
    """Check count(lam - delta) == k and count(lam + delta) == k + 1.

    ``start`` (count k) began the level's bracket and ``lo`` (count
    ``n_lo``) ended it; when both sit on either side of lam - delta, the
    lower count follows without a sweep. Returns lam + delta, the
    certified lower end for level k + 1.
    """
    delta = _CERT_REL * max(abs(lam), lam - T.floor)
    below, above = lam - delta, lam + delta
    if not (start <= below <= lo and n_lo == k):
        n_lo = T.count(below)
    n_hi = T.count(above)
    if n_lo != k or n_hi != k + 1:
        raise EigensolveError(
            f"Sturm counts {n_lo} and {n_hi} around level {k} at "
            f"{lam!r} do not isolate it"
        )
    return above


def _lowest_pairs(
    d: Array, e: Array, floor: float, count: int, *, vectors: bool,
    guess: float | None = None,
) -> tuple[Array, Array | None]:
    """Lowest ``count`` eigenvalues of the tridiagonal (d, e), and the
    ground state's eigenvector when ``vectors``; ``floor`` is min V and
    ``guess`` an estimate of the lowest eigenvalue, if one is known."""
    if count < 1 or count > d.size:
        raise ValueError("eigenpair count out of range for this grid")
    T = _Tridiagonal(d, e, floor)
    lo, hi, n_hi = T.s0, T.top, T.n
    vals = []
    vec = None
    for k in range(count):
        lam, b_lo, n_lo, r = _eigenvalue(
            T, k, lo, hi, n_hi, guess if k == 0 else None
        )
        try:
            top = _certify(T, k, lam, lo, b_lo, n_lo)
        except EigensolveError:
            # the iteration missed the level: Sturm counts alone decide
            half = 0.5 * _CERT_REL
            b_lo, b_hi, _n = _bisect(
                T, k, lo, T.top, T.n,
                lambda a, b, n: b - a <= half * max(abs(b), b - T.floor),
            )
            lam = 0.5 * (b_lo + b_hi)
            top = _certify(T, k, lam, lo, b_lo, k)
        lo = top
        vals.append(lam)
        if vectors and k == 0:
            vec = _shifted(lambda t: T.vector(t, r), lam)[1]
        hi, n_hi = T.top, T.n
    return np.array(vals), vec


def _ground_psi(grid: Grid, u: Array, m: Array, reflecting: bool) -> Samples:
    """Nodeless positive eigenvector as unit-norm samples, zero at walls."""
    psi = np.zeros(grid.n_nodes)
    psi[0 if reflecting else 1 : -1] = u / np.sqrt(m)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    floor = _NOISE_FLOOR * float(np.max(np.abs(psi)))
    tiny = np.abs(psi) < floor  # wall zeros and tail noise both land here
    if np.any(psi[~tiny] <= 0.0):
        raise EigensolveError(
            "computed ground state changes sign above the noise floor"
        )
    psi[tiny] = 0.0
    norm = integrate(Samples(grid, psi * psi))
    return Samples(grid, psi / sqrt(norm))


def _check_half_line(V: Samples, mirror_even: bool) -> None:
    if mirror_even and V.grid.x_min != 0.0:
        raise ValueError("mirror_even requires a half-line grid starting at 0")


def _resample(V: Samples, fine: Grid, v_func: Callable | None) -> Samples:
    """Same potential on a refined grid, exactly (callable or constant segments)."""
    coarse = V.grid
    jumps = {
        fine.index_of(float(coarse.nodes[i])): lr for i, lr in V.jumps.items()
    }
    if v_func is not None:
        vals = np.asarray(v_func(fine.nodes), dtype=np.float64)
        return Samples(fine, vals, jumps=jumps)
    vals = np.empty(fine.n_nodes)
    for (i0, i1, _h), (j0, j1, _hf) in zip(coarse.segments, fine.segments):
        interior = V.values[i0 + 1 : i1]
        const = float(interior[0])
        if np.any(interior != const):
            raise ValueError(
                "grid refinement needs v_func unless the potential is "
                "constant on every segment"
            )
        vals[j0 : j1 + 1] = const
    return Samples(fine, vals, jumps=jumps)


def fd_ground_state(
    V: Samples,
    grid: Grid | None = None,
    *,
    v_func: Callable[[Array], Array] | None = None,
    mirror_even: bool = False,
    levels: int = 2,
    refine_factor: int = 2,
) -> OracleResult:
    """Lowest Dirichlet eigenpair of -1/2 d^2/dx^2 + V on the sample grid.

    ``levels`` resolutions are solved (the given grid, then repeated
    ``refine_factor``-fold refinements); the reported ``E_ground`` is the
    Richardson extrapolation of the two finest whenever ``levels >= 2``,
    else the raw eigenvalue. Refinement needs potential values at new
    nodes: pass ``v_func`` (vectorized x -> V) or rely on the exact
    fallback for segmentwise-constant potentials. ``mirror_even`` makes
    the x = 0 end of a half-line grid reflecting instead of a wall, for
    potentials whose ground state is even about 0: the problem solved is
    the even sector of the one reflected onto the full line.

    The eigenvector is reported for the first (coarsest) level only.
    """
    if grid is not None and grid is not V.grid:
        if not np.array_equal(grid.nodes, V.grid.nodes):
            raise ValueError("explicit grid disagrees with the sample grid")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    _check_half_line(V, mirror_even)

    level_rows: list[RefinementLevel] = []
    psi: Samples | None = None
    cur = V
    factor = 1
    for lev in range(levels):
        g = cur.grid
        v = _node_values(cur, mirror_even)
        d, e, m = _tridiagonal(g.nodes, v, mirror_even)
        # the coarser level's energy is within O(h^2) of this one
        vals, vec = _lowest_pairs(
            d, e, float(v.min()), 1, vectors=lev == 0,
            guess=level_rows[-1].energy if level_rows else None,
        )
        energy = float(vals[0])
        if vec is not None:
            psi = _ground_psi(g, vec, m, mirror_even)
        level_rows.append(RefinementLevel(factor, g.n_nodes, energy))
        if lev + 1 < levels:
            cur = _resample(cur, g.refined(refine_factor), v_func)
            factor *= refine_factor
    assert psi is not None

    if levels == 1:
        return OracleResult(level_rows[0].energy, psi, None)
    e_coarse = level_rows[-2].energy
    e_fine = level_rows[-1].energy
    gain = refine_factor**2 - 1
    richardson = e_fine + (e_fine - e_coarse) / gain
    error_estimate = abs(e_fine - e_coarse) / gain
    order = None
    if levels >= 3:
        d1 = level_rows[-3].energy - level_rows[-2].energy
        d2 = e_coarse - e_fine
        if d2 != 0.0 and d1 / d2 > 0.0:
            order = log(d1 / d2) / log(refine_factor)
    report = RefinementReport(tuple(level_rows), richardson, error_estimate, order)
    return OracleResult(richardson, psi, report)


def fd_levels(
    V: Samples, count: int = 2, *, mirror_even: bool = False
) -> np.ndarray:
    """Lowest ``count`` Dirichlet eigenvalues on the sample grid, unrefined.

    Exists for spectrum cross-checks (ground plus first excited); use
    :func:`fd_ground_state` when the eigenvector or a refinement study is
    needed. With ``mirror_even`` the levels are those of the even sector.
    """
    _check_half_line(V, mirror_even)
    v = _node_values(V, mirror_even)
    d, e, _m = _tridiagonal(V.grid.nodes, v, mirror_even)
    vals, _ = _lowest_pairs(d, e, float(v.min()), count, vectors=False)
    return vals
