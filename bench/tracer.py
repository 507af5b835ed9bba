"""Spans around the public functions of each wellsolver layer.

The tracer replaces every public function of ``grid``, ``trialgen``,
``hierarchy``, ``oracle``, ``squarewell`` and ``cli`` at each module
attribute a caller looks it up through (``cli.iterate``,
``hierarchy.bracket``, ``squarewell.iterate_full_line``, ...), so the
package itself is never edited. A span is ``[op, name, start, end,
parent, extra]``: ``op`` is the operation id the benchmark assigned,
``name`` is ``<layer>.<function>``, ``parent`` the index of the enclosing
span (or None) and ``extra`` the counts read off the call's result.
Spans stay in memory and are written out when the run ends.

``layer_report`` turns spans into per-layer numbers. A span's self time
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("grid", "trialgen", "hierarchy", "oracle", "squarewell", "cli")
# Rows of the layer table besides LAYERS: the cold child's
# ``import wellsolver.cli``, and the benchmark's own operation root span
# (harness code, and for cold processes interpreter start-up and teardown).
IMPORT_LAYER = "import"
BENCH_LAYER = "bench"
TABLE_LAYERS = (*LAYERS, IMPORT_LAYER, BENCH_LAYER)
GRID_CONSTRUCTORS = ("make_grid", "slice_grid", "mirror_grid", "concat_grids")
# Engine cap on one block's log-amplitude range, used when the hierarchy
# module no longer exposes it.
DEFAULT_BLOCK_LOG_RANGE = 300.0


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _engine_extra(trial, trace, cap):
    grid = trial.grid
    L = trial.log_phi.values
    wide = any(
        2.0 * (float(L[i0 : i1 + 1].max()) - float(L[i0 : i1 + 1].min())) > cap
        for i0, i1, _h in grid.segments
    )
    return {
        "iterations": len(trace.states) - 1,
        "nodes": grid.n_nodes,
        "stop": trace.stop_reason,
        "wide": wide,
    }


def _oracle_nodes(result):
    if result.refinement is None:
        return {"nodes": result.grid.n_nodes}
    return {"nodes": sum(lv.n_nodes for lv in result.refinement.levels)}


class Tracer:
    """In-memory span recorder; ``active`` gates recording."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._cap = DEFAULT_BLOCK_LOG_RANGE
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None) -> tuple[int, list]:
        span = [self.op, name, 0.0, 0.0, parent, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        return idx, span

    def begin(self, name: str) -> int:
        """Open an operation's root span on the calling thread."""
        idx, span = self._open(name, None)
        self._stack().append(idx)
        span[2] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def adopt(self, spans: list[list], root: int) -> None:
        """Append another process's spans for this operation under ``root``."""
        with self._lock:
            base = len(self.spans)
            for op, name, t0, t1, parent, extra in spans:
                parent = root if parent is None else parent + base
                self.spans.append([self.op, name, t0, t1, parent, extra])

    def wrap(self, name: str, fn):
        extra = self._extras().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a span opened on a pool thread (the sweep's workers) belongs
            # to whatever the main thread is running at the time
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            idx, span = self._open(name, parent)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def _extras(self):
        cap = self._cap
        return {
            "hierarchy.iterate": lambda a, k, r: _engine_extra(
                _first_arg(a, k), r, cap
            ),
            "hierarchy.iterate_full_line": lambda a, k, r: _engine_extra(
                _first_arg(a, k).chi, r, cap
            ),
            "hierarchy.certify": lambda a, k, r: {"ok": bool(r.ok)},
            "oracle.fd_ground_state": lambda a, k, r: _oracle_nodes(r),
            "cli.write_trace": lambda a, k, r: {"bytes": len(r.encode())},
        }

    def install(self) -> None:
        """Wrap every public layer function at every module attribute."""
        mods = {n: importlib.import_module(f"wellsolver.{n}") for n in LAYERS}
        self._cap = float(
            getattr(mods["hierarchy"], "_BLOCK_LOG_RANGE", DEFAULT_BLOCK_LOG_RANGE)
        )
        owner = {m.__name__: n for n, m in mods.items()}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = owner.get(fn.__module__)
                if layer is None:
                    continue
                setattr(mod, attr, self.wrap(f"{layer}.{fn.__name__}", fn))
                self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    return [
        max(0.0, (s[3] - s[2]) - _covered(children.get(i, []))) for i, s in enumerate(spans)
    ]


def layer_report(
    spans: list[list], n_ops: int, op_seconds: float, sweep_points: int
) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one run's spans.

    Times, calls and bytes are per operation (run total over ``n_ops``);
    verb times are per call of the verb; stop reasons are run totals;
    rates and ratios use run totals. ``op_seconds`` is the summed wall
    time of the operations, the base of every ``self_share``.
    """
    n = max(n_ops, 1)
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    verb_time: dict[str, list[float]] = defaultdict(list)
    engine = {"wide": [0.0, 0], "narrow": [0.0, 0]}
    node_iters = 0
    state_bytes = 0
    stops: dict[str, int] = defaultdict(int)
    certified = [0, 0]
    oracle_nodes = 0
    trace_bytes = 0
    for s, own in zip(spans, selfs):
        name = s[1]
        dur = s[3] - s[2]
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in TABLE_LAYERS else BENCH_LAYER] += own
        total[name] += dur
        calls[name] += 1
        extra = s[5] or {}
        if name.startswith("cli.cmd_"):
            verb_time[name[len("cli.cmd_") :]].append(dur)
        if name in ("hierarchy.iterate", "hierarchy.iterate_full_line"):
            it = extra["iterations"]
            bucket = engine["wide" if extra["wide"] else "narrow"]
            bucket[0] += dur
            bucket[1] += it
            node_iters += it * extra["nodes"]
            # computed, not measured: every kept IterationState holds two
            # float64 node arrays, f and D
            state_bytes += it * extra["nodes"] * 2 * 8
            stops[extra["stop"]] += 1
        elif name == "hierarchy.certify":
            certified[0] += extra["ok"]
            certified[1] += 1
        elif name == "oracle.fd_ground_state":
            oracle_nodes += extra["nodes"]
        elif name == "cli.write_trace":
            trace_bytes += extra["bytes"]

    engine_s = total["hierarchy.iterate"] + total["hierarchy.iterate_full_line"]
    engine_iters = engine["wide"][1] + engine["narrow"][1]
    out = {
        "cli.verb_s.solve": (_mean(verb_time["solve"]), "s"),
        "cli.verb_s.certify": (_mean(verb_time["certify"]), "s"),
        "cli.verb_s.squarewell": (_mean(verb_time["squarewell"]), "s"),
        "cli.verb_s.sweep": (_mean(verb_time["sweep"]), "s"),
        "cli.write_trace_s": (total["cli.write_trace"] / n, "s"),
        "cli.trace_bytes": (trace_bytes / n, "bytes"),
        "cli.certify_trace_file_s": (total["cli.certify_trace_file"] / n, "s"),
        "cli.overhead_s": (layer_self["cli"] / n, "s"),
        "cli.sweep.points_per_s": (
            _ratio(sweep_points, total["cli.cmd_sweep"]),
            "1/s",
        ),
        "trialgen.build_s": (
            sum(v for k, v in total.items() if k.startswith("trialgen.build_")) / n,
            "s",
        ),
        "grid.make_s": (sum(total[f"grid.{f}"] for f in GRID_CONSTRUCTORS) / n, "s"),
        "grid.bracket.calls": (calls["grid.bracket"] / n, "count"),
        "grid.bracket_s": (total["grid.bracket"] / n, "s"),
        "grid.cumulative_from.calls": (calls["grid.cumulative_from"] / n, "count"),
        "grid.cumulative_from_s": (total["grid.cumulative_from"] / n, "s"),
        "hierarchy.iterate_s": (engine_s / n, "s"),
        "hierarchy.iterations": (engine_iters / n, "count"),
        "hierarchy.ms_per_iter.wide": (_ratio(*engine["wide"]) * 1e3, "ms"),
        "hierarchy.ms_per_iter.narrow": (_ratio(*engine["narrow"]) * 1e3, "ms"),
        "hierarchy.ns_per_node_iter": (_ratio(engine_s, node_iters) * 1e9, "ns"),
        "hierarchy.certify_s": (total["hierarchy.certify"] / n, "s"),
        "hierarchy.half_line_pair_s": (total["hierarchy.solve_half_line_pair"] / n, "s"),
        "hierarchy.glue_s": (total["hierarchy.glue_full_line"] / n, "s"),
        "hierarchy.stop.tolerance": (stops["tolerance"], "count"),
        "hierarchy.stop.max_iter": (stops["max_iter"], "count"),
        "hierarchy.stop.positivity_violation": (stops["positivity_violation"], "count"),
        "hierarchy.certified_ratio": (_ratio(*certified), "ratio"),
        "oracle.fd_ground_state_s": (total["oracle.fd_ground_state"] / n, "s"),
        "oracle.nodes_solved": (oracle_nodes / n, "count"),
        "oracle.us_per_node": (
            _ratio(total["oracle.fd_ground_state"], oracle_nodes) * 1e6,
            "us",
        ),
        "squarewell.solve_asymmetric_s": (total["squarewell.solve_asymmetric"] / n, "s"),
        "squarewell.iterate_s": (total["squarewell.iterate_squarewell"] / n, "s"),
        "squarewell.exact_shift_s": (total["squarewell.exact_shift"] / n, "s"),
        "memory.state_bytes_computed": (state_bytes / n, "bytes"),
    }
    for layer in TABLE_LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / n, "s")
        out[f"{layer}.self_share"] = (_ratio(layer_self[layer], op_seconds), "ratio")
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
