"""Piecewise-uniform grids and panel-consistent quadrature.

A :class:`Grid` is a sorted node array split into uniform segments whose
endpoints land exactly on caller-supplied breakpoints (potential kinks,
matching radii, jump locations). Every segment holds an even number of
panels so that composite Simpson pairs tile it; cumulative integrals are
assembled from the two parabolic half-pair rules, whose sum over a pair is
exactly the Simpson pair rule. ``integrate`` is defined as the final entry
of the left cumulative, so the two agree bit for bit by construction.

Integrands live in :class:`Samples`. A sample set may carry two-sided
values at segment-boundary nodes (``jumps``); quadrature then uses the
one-sided value belonging to each adjacent panel, which keeps the pair
rules exact for piecewise-smooth integrands with breakpoint-aligned
discontinuities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

__all__ = [
    "Grid",
    "Samples",
    "make_grid",
    "slice_grid",
    "mirror_grid",
    "concat_grids",
    "integrate",
    "cumulative_from",
    "bracket",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Sorted float64 nodes partitioned into uniform segments.

    ``segments`` lists (first_node_index, last_node_index, spacing) per
    uniform stretch; consecutive segments share their boundary node.
    Derived, not stored: ``breakpoints`` (the interior segment-end nodes),
    ``boundary_indices``, ``x_min``, ``x_max`` and ``n_nodes``.
    """

    nodes: Array
    segments: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs a 1-D array of at least 3 nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        last = 0
        for i0, i1, h in self.segments:
            if i0 != last:
                raise ValueError("segments must tile the node range")
            n_panels = i1 - i0
            if n_panels < 2 or n_panels % 2:
                raise ValueError("each segment needs an even panel count >= 2")
            if h <= 0:
                raise ValueError("segment spacing must be positive")
            last = i1
        if last != nodes.size - 1:
            raise ValueError("segments must end at the final node")

    @property
    def x_min(self) -> float:
        return float(self.nodes[0])

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior segment-end nodes: the cuts the segments were tiled on."""
        return tuple(float(self.nodes[i1]) for _i0, i1, _h in self.segments[:-1])

    @property
    def boundary_indices(self) -> tuple[int, ...]:
        """Node indices where a segment starts or ends (jumps allowed here)."""
        idx = {0, self.n_nodes - 1}
        for i0, i1, _ in self.segments:
            idx.add(i0)
            idx.add(i1)
        return tuple(sorted(idx))

    def index_of(self, x: float) -> int:
        """Index of the node equal to ``x``, exactly."""
        j = int(np.searchsorted(self.nodes, x))
        if j < self.nodes.size and self.nodes[j] == x:
            return j
        raise KeyError(f"{x!r} is not a grid node")

    def refined(self, factor: int = 2) -> "Grid":
        """Same breakpoints, ``factor`` times the panels in every segment."""
        if factor < 1:
            raise ValueError("refinement factor must be >= 1")
        spans = (
            (float(self.nodes[i0]), float(self.nodes[i1]), (i1 - i0) * factor)
            for i0, i1, _h in self.segments
        )
        return _tile(spans)


@dataclass(frozen=True, eq=False)
class Samples:
    """Function values on a grid, optionally with two-sided jump values.

    ``kind`` records whether ``values`` are the function itself ("plain") or
    its log-amplitude ("log_amplitude", used for wavefunctions whose dynamic
    range exceeds float64). ``jumps`` maps a segment-boundary node index to
    ``(left_value, right_value)``; the array entry at such a node is
    whichever side the producer deemed canonical and quadrature ignores it.
    """

    grid: Grid
    values: Array
    kind: Literal["plain", "log_amplitude"] = "plain"
    jumps: Mapping[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("sample values must match the grid node count")
        boundary = set(self.grid.boundary_indices)
        for j in self.jumps:
            if j not in boundary:
                raise ValueError(
                    f"jump at node {j} is not on a segment boundary"
                )

    def with_values(self, values: Array) -> "Samples":
        return replace(self, values=values)


def make_grid(
    domain: float | tuple[float, float],
    density: float,
    breakpoints: Sequence[float] = (),
) -> Grid:
    """Build a piecewise-uniform grid over ``domain``.

    ``domain`` is either ``x_max`` (half line ``[0, x_max]``) or
    ``(x_min, x_max)``. ``density`` is the target panel count per unit
    length; each segment between consecutive breakpoints gets
    ``ceil(length * density)`` panels rounded up to the next even number
    (minimum 2), so breakpoints are nodes exactly and Simpson pairs tile
    every segment.
    """
    if isinstance(domain, tuple):
        x_min, x_max = float(domain[0]), float(domain[1])
    else:
        x_min, x_max = 0.0, float(domain)
    if not x_max > x_min:
        raise ValueError("domain must have positive length")
    if not density > 0:
        raise ValueError("density must be positive")
    cuts = sorted({float(b) for b in breakpoints if x_min < float(b) < x_max})
    edges = [x_min, *cuts, x_max]

    def panels(a: float, b: float) -> int:
        n = max(2, ceil((b - a) * density))
        return n + n % 2  # round up to even

    spans = ((a, b, panels(a, b)) for a, b in zip(edges[:-1], edges[1:]))
    return _tile(spans)


def _tile(spans: Iterable[tuple[float, float, int]]) -> Grid:
    """Grid of uniform segments, one per ``(a, b, n_panels)`` span, in order.

    Consecutive spans share their boundary node, which the first of them
    supplies.
    """
    pieces: list[Array] = []
    segs: list[tuple[int, int, float]] = []
    first = 0
    for a, b, n in spans:
        xs = np.linspace(a, b, n + 1)
        pieces.append(xs[1:] if pieces else xs)
        segs.append((first, first + n, (b - a) / n))
        first += n
    return Grid(np.concatenate(pieces), tuple(segs))


def slice_grid(grid: Grid, x_lo: float, x_hi: float) -> Grid:
    """Sub-grid between two segment-boundary nodes, node values unchanged.

    Nodes are shared bit-exactly with the parent, so samples transfer by
    index slicing with no interpolation.
    """
    j_lo = grid.index_of(x_lo)
    j_hi = grid.index_of(x_hi)
    if j_hi <= j_lo:
        raise ValueError("empty slice")
    boundary = set(grid.boundary_indices)
    if j_lo not in boundary or j_hi not in boundary:
        raise ValueError("slice edges must be segment boundaries")
    segs = tuple(
        (i0 - j_lo, i1 - j_lo, h)
        for i0, i1, h in grid.segments
        if i0 >= j_lo and i1 <= j_hi
    )
    return Grid(grid.nodes[j_lo : j_hi + 1].copy(), segs)


def mirror_grid(grid: Grid) -> Grid:
    """Grid reflected through the origin (nodes negated and reversed).

    Negation is exact in floating point, so reflected nodes match the
    originals bit for bit under a second reflection. Adding 0.0 names any
    -0.0 back to +0.0.
    """
    n_last = grid.n_nodes - 1
    segs = tuple(
        (n_last - i1, n_last - i0, h) for i0, i1, h in reversed(grid.segments)
    )
    return Grid(-grid.nodes[::-1] + 0.0, segs)


def concat_grids(left: Grid, right: Grid) -> Grid:
    """Join two grids sharing their junction node into one grid."""
    if left.x_max != right.x_min:
        raise ValueError("grids must share their junction node")
    off = left.n_nodes - 1
    segs = left.segments + tuple(
        (i0 + off, i1 + off, h) for i0, i1, h in right.segments
    )
    return Grid(np.concatenate((left.nodes, right.nodes[1:])), segs)


def _segment_values(f: Samples, i0: int, i1: int) -> Array:
    """Segment slice of the sample values with one-sided jump overrides."""
    vals = f.values[i0 : i1 + 1].copy()
    if f.jumps:
        jump0 = f.jumps.get(i0)
        if jump0 is not None:
            vals[0] = jump0[1]
        jump1 = f.jumps.get(i1)
        if jump1 is not None:
            vals[-1] = jump1[0]
    return vals


def _pair_increments(vals: Array, h: float) -> Array:
    """Half-pair increments of uniformly spaced values (length ``size - 1``).

    ``vals`` holds an odd number of nodes at spacing ``h``. Each Simpson
    pair (x_a, x_b, x_c) is split into the two parabolic half-rules
    (h/12)(5f_a + 8f_b - f_c) and (h/12)(-f_a + 8f_b + 5f_c); their sum is
    the Simpson pair rule, and each half is exact for quadratics, which is
    what makes left/right cumulatives and the total integral mutually
    consistent. The raw-array primitive behind :func:`panel_increments`
    and the iteration engine's scaled scans.
    """
    a = vals[0:-2:2]
    b = vals[1:-1:2]
    c = vals[2::2]
    out = np.empty(vals.size - 1)
    out[0::2] = (h / 12.0) * (5.0 * a + 8.0 * b - c)
    out[1::2] = (h / 12.0) * (-a + 8.0 * b + 5.0 * c)
    return out


def panel_increments(f: Samples) -> Array:
    """Per-panel integrals of ``f`` (length ``n_nodes - 1``).

    Segment by segment, with each segment's one-sided jump values, via
    the half-pair rules of :func:`_pair_increments`.
    """
    if f.kind != "plain":
        raise ValueError("quadrature needs plain samples")
    out = np.empty(f.grid.n_nodes - 1)
    for i0, i1, h in f.grid.segments:
        out[i0:i1] = _pair_increments(_segment_values(f, i0, i1), h)
    return out


def integrate(f: Samples) -> float:
    """Integral of ``f`` over the whole grid.

    Defined as the last entry of the left cumulative so the two never
    disagree, not even in the last bit.
    """
    return float(np.cumsum(panel_increments(f))[-1])


def cumulative_from(f: Samples, origin: Literal["left", "right"]) -> Samples:
    """Running integral ``F(x) = integral from the origin edge to x``.

    ``origin="left"`` anchors F(x_min) = 0; ``origin="right"`` anchors
    F(x_max) = 0 (so values are negative where the integrand is positive,
    being integrals traversed leftward).
    """
    inc = panel_increments(f)
    if origin == "left":
        vals = np.concatenate(((0.0,), np.cumsum(inc)))
    elif origin == "right":
        vals = -np.concatenate(((0.0,), np.cumsum(inc[::-1])))[::-1]
    else:
        raise ValueError("origin must be 'left' or 'right'")
    return Samples(f.grid, vals)


def bracket(f: Samples, phi_sq: Samples) -> float:
    """Weighted integral ``[f] = integral of phi^2(x) f(x) dx``.

    This is the expectation functional of the iteration framework. The
    weight ``phi_sq`` is either the squared wavefunction itself ("plain",
    must be >= 0) or the wavefunction's log-amplitude L ("log_amplitude",
    weighting by exp(2L)). The log route rescales by the maximum before
    exponentiating, so hard-wall zeros (L = -inf) and deep tails contribute
    an honest 0 instead of overflowing or trapping.
    """
    if phi_sq.grid is not f.grid:
        raise ValueError("samples must share one grid object")
    if phi_sq.kind == "plain":
        if np.any(phi_sq.values < 0.0):
            raise ValueError("plain phi_sq weight must be nonnegative")
        weighted = Samples(
            f.grid,
            f.values * phi_sq.values,
            jumps={
                j: (lo * phi_sq.values[j], hi * phi_sq.values[j])
                for j, (lo, hi) in f.jumps.items()
            },
        )
        return integrate(weighted)
    log_w = phi_sq.values
    ref = float(np.max(log_w))
    if ref == -np.inf:
        return 0.0
    scaled = f.values * np.exp(2.0 * (log_w - ref))
    jumps = {}
    for j, (lo, hi) in f.jumps.items():
        factor = float(np.exp(2.0 * (log_w[j] - ref)))
        jumps[j] = (lo * factor, hi * factor)
    weighted = Samples(f.grid, scaled, jumps=jumps)
    return float(np.exp(2.0 * ref)) * integrate(weighted)
