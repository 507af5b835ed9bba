"""Command-line front end: solve, certify, squarewell, twolevel, oracle, sweep.

Exit codes, shared by every verb:

* 0 - success (for ``solve``: converged and the trace certifies)
* 1 - a verdict failed (certification) or some sweep points failed
* 2 - the run stopped on a positivity violation (Case B, w too large)
* 3 - the run hit the iteration cap before the tolerances
* 4 - bad configuration, unusable input file, or I/O failure
* 5 - the run produced a non-finite shift or ratio (grid too coarse for
  the problem); the trace up to that iteration is still written
* 6 - the oracle's eigensolve failed: its Sturm counts did not isolate
  the level, or its ground state changes sign (``oracle``, ``squarewell``)
* 7 - internal error: an exception no verb expects, reported as one line
  ``internal error: <Type>: <message>`` (a defect, not a bad input)

Verbs return only verdict and stop codes (0-3, 5); every failure they
raise is mapped to its exit code and its one stderr line by ``main``,
through the single ``_FAILURES`` table: a configuration error, a
malformed trace and an I/O failure (an unwritable ``--out`` or sweep
output included) exit 4, an eigensolve failure 6, an unconverged
half-line stage its stop code, and anything else 7.

Each problem is defined once, in the ``_PROBLEMS`` registry: its
parameters and their ranges, its grid, its engine pipeline, its cases and
its oracle potential. Every verb reads that one definition and offers
only the flags it uses; a flag a verb does not take, or another
problem's parameter flag, exits 4.

``oracle`` solves every problem whose grid starts at x = 0 as the even
sector on the half line, so the node count it reports for each level
counts half-line nodes.

An asym_quartic ``solve`` whose half-line stage stops unconverged exits
with that stage's stop-reason code (2, 3 or 5) and writes no trace; a
tilt its trial builder cannot support exits 4.

Traces are CSV by default (``--format json`` for the same rows as JSON).
The CSV starts with ``# trace-v1 config=<sha256>`` so a report can always
be matched to the exact configuration that produced it; identical configs
produce byte-identical files (no timestamps, floats at full precision).

What a cold process loads follows its verb. This module imports the
standard library and :mod:`wellsolver.ordering` only, and hashes configs
with the builtin ``_sha2`` or ``_sha256``, not OpenSSL's. It reaches
``grid``, ``trialgen``, ``hierarchy``, ``oracle`` and ``squarewell`` as
attributes of the package, looked up when a call is made, so the
package's own loader (its PEP 562 ``__getattr__``) imports each of them,
and numpy with them, when a verb first calls into it. So ``certify`` runs
without numpy; ``solve`` and ``sweep`` of ``harmonic`` or ``sym_quartic``
load ``grid``, ``trialgen`` and ``hierarchy``; a square-well ``solve`` or
``sweep``, and ``twolevel``, add ``squarewell`` (and ``fractions``); only
the ``squarewell`` and ``oracle`` verbs load ``oracle``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import product
from math import isfinite, sqrt
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Sequence

import wellsolver as ws

from .ordering import IterateOptions, PairVerdict, _floor, certify_shift_sequence

try:  # the builtin SHA-256, as random.py's sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    import numpy as np

    from .grid import Grid, Samples
    from .hierarchy import IterationTrace
    from .squarewell import SquareWellModel


__all__ = [
    "ConfigError",
    "GridSpec",
    "ExperimentConfig",
    "config_hash",
    "validate_config",
    "run_problem",
    "write_trace",
    "read_trace",
    "certify_trace_file",
    "main",
]

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_POSITIVITY = 2
EXIT_MAX_ITER = 3
EXIT_CONFIG = 4
EXIT_NONFINITE = 5
EXIT_EIGENSOLVE = 6
EXIT_INTERNAL = 7

# Engine stop reasons other than "tolerance": exit code and stderr line.
_STOP_EXITS = {
    "positivity_violation": (
        EXIT_POSITIVITY,
        "stopped: positivity violation (Case B, w too large)",
    ),
    "max_iter": (EXIT_MAX_ITER, "stopped: iteration cap reached before tolerances"),
    "nonfinite": (
        EXIT_NONFINITE,
        "stopped: non-finite shift or ratio (grid too coarse for this problem?)",
    ),
}

TRACE_VERSION = "trace-v1"
SWEEP_VERSION = "sweep-v1"
TRACE_COLUMNS = (
    "n",
    "shift",
    "energy",
    "f_origin",
    "f_mid",
    "f_step_max",
    "charge_residual",
)
# The two comment lines after a CSV trace's version line, as write_trace
# lays them out. A label may hold spaces: it is everything before " case=".
_CSV_META = re.compile(
    r"# label=(.*) case=(\S*) anchor=(\S*) E0=(\S*)\n"
    r"# stop_reason=(\S*) converged=(\S*) E_limit=(\S*)"
)


class ConfigError(ValueError):
    """Configuration outside the documented parameter ranges."""


class _TraceError(ConfigError):
    """A trace file that is not a ``solve`` product."""


def _fmt(x: float) -> str:
    # shortest round-trip decimal; keeps identical configs byte-identical
    return f"{float(x):.17g}"


def _json(doc: Mapping[str, Any]) -> str:
    # every JSON document the CLI writes: sorted keys, so reruns are identical
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GridSpec:
    density: float = 400.0
    x_max: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    params: Mapping[str, float]
    case: str = "A"
    grid: GridSpec = field(default_factory=GridSpec)
    engine: IterateOptions = field(default_factory=IterateOptions)

    def as_dict(self) -> dict[str, Any]:
        return {
            "problem": self.problem,
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "case": self.case,
            "grid": asdict(self.grid),
            "engine": asdict(self.engine),
        }


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.as_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# problem registry
#
# Entries reach package functions as attributes of the package, inside
# lambdas and helpers, so a problem's modules load when it is built.

_Params = Mapping[str, float]


class _Problem(NamedTuple):
    """Everything the verbs know about one problem.

    ``checks`` pairs a range predicate on the parameters with the reason
    it gives when false. ``domain(p, grid_spec)`` builds the grid (for a
    square well, the solved model and its grid); ``trial(p, domain)``
    builds the engine's input and ``run(trial, case, opts)`` iterates on
    it; ``potential(p, domain)`` returns the oracle's samples and the
    ``v_func`` it resamples refined grids from; the oracle solves a grid
    that starts at x = 0 as the even sector, with a reflecting end there.
    ``walls`` marks a domain fixed by hard walls, where x_max is refused.
    A closed-form reduction has no domain and no cases. (A NamedTuple
    rather than a dataclass: every cold process builds this class, and a
    dataclass costs it about 1.5 ms more.)
    """

    params: tuple[str, ...]
    checks: tuple[tuple[Callable[[_Params], bool], str], ...]
    cases: tuple[str, ...] = ("A", "B")
    domain: Callable[[_Params, GridSpec], Any] | None = None
    trial: Callable[[_Params, Any], Any] | None = None
    run: Callable[[Any, str, IterateOptions], IterationTrace] | None = None
    potential: Callable[[_Params, Any], tuple[Samples, Any]] | None = None
    walls: bool = False


def _run_glued(pair: Any, case: str, opts: IterateOptions) -> IterationTrace:
    tplus, tminus = pair
    half = ws.hierarchy.solve_half_line_pair(tplus, tminus, opts)
    problem = ws.hierarchy.glue_full_line(half, tplus, tminus)
    return ws.hierarchy.iterate_full_line(problem, case, opts)


def _harmonic_grid(p: _Params, spec: GridSpec) -> Grid:
    x_max = spec.x_max if spec.x_max is not None else 8.0 / sqrt(p["g"])
    return ws.grid.make_grid((0.0, x_max), spec.density)


def _well(p: _Params, spec: GridSpec) -> tuple[SquareWellModel, Grid]:
    model = ws.squarewell.solve_asymmetric(p["W"], p["mu"], p["alpha"], p["beta"])
    return model, ws.squarewell.squarewell_grid(model, spec.density)


def _sampled(
    v: Callable[..., np.ndarray], p: _Params, grid: Grid
) -> tuple[Samples, Any]:
    """Oracle potential V(x) = v(p, x) on the grid, and V for refined grids."""
    v_func = partial(v, p)
    return ws.grid.Samples(grid, v_func(grid.nodes)), v_func


# Above this coupling the trial builders' 2 g (g - 1) (from g ~ 9.5e153) and
# the potentials' g**2 (from g ~ 1.34e154) overflow float64.
_G_MAX = 1e150
_G_BOUND = (lambda p: p["g"] <= _G_MAX, f"g must be <= {_G_MAX:g}")

_PROBLEMS: dict[str, _Problem] = {
    "harmonic": _Problem(
        params=("g",),
        checks=((lambda p: p["g"] > 0, "g must be positive"), _G_BOUND),
        domain=_harmonic_grid,
        trial=lambda p, grid: ws.trialgen.build_harmonic_trial(p["g"], grid),
        run=lambda trial, case, opts: ws.hierarchy.iterate(trial, case, opts),
        potential=partial(
            _sampled, lambda p, x: ws.trialgen._harmonic_potential(p["g"], x)
        ),
    ),
    "sym_quartic": _Problem(
        params=("g",),
        checks=((lambda p: p["g"] >= 1.0, "g must be >= 1"), _G_BOUND),
        domain=lambda p, s: ws.trialgen.quartic_grid(p["g"], s.density, x_max=s.x_max),
        trial=lambda p, grid: ws.trialgen.build_symmetric_quartic_trial(p["g"], grid),
        run=lambda trial, case, opts: ws.hierarchy.iterate(trial, case, opts),
        potential=partial(
            _sampled, lambda p, x: ws.trialgen._quartic_potential(p["g"], 0.0, x)
        ),
    ),
    "asym_quartic": _Problem(
        params=("g", "lam"),
        checks=(
            (lambda p: 0.0 <= p["lam"] < 1.0, "tilt must satisfy 0 <= lam < 1"),
            (lambda p: p["g"] > 1.0 + p["lam"], "need g > 1 + lam"),
            _G_BOUND,
        ),
        domain=lambda p, s: ws.trialgen.quartic_grid(
            p["g"], s.density, x_max=s.x_max, full_line=True
        ),
        trial=lambda p, grid: ws.trialgen.build_asymmetric_quartic_trial(
            p["g"], p["lam"], grid
        ),
        run=_run_glued,
        potential=partial(
            _sampled, lambda p, x: ws.trialgen._quartic_potential(p["g"], p["lam"], x)
        ),
    ),
    "squarewell": _Problem(
        params=("W", "mu", "alpha", "beta"),
        checks=(
            (lambda p: p["W"] > 0, "W must be positive"),
            (lambda p: 0.0 <= p["mu"] < p["W"], "need 0 <= mu < W"),
            (
                lambda p: p["alpha"] > 0 and p["beta"] > 0,
                "alpha and beta must be positive",
            ),
        ),
        domain=_well,
        trial=lambda p, well: well,
        run=lambda well, case, opts: ws.squarewell.iterate_squarewell(
            *well, opts, case
        ),
        potential=lambda p, well: (ws.squarewell.potential_samples(*well), None),
        walls=True,
    ),
    "two_level": _Problem(
        params=("E_inf", "lam", "mu_sq"),
        checks=(
            (lambda p: p["lam"] > 0, "lam must be positive"),
            (lambda p: p["mu_sq"] >= 0, "mu_sq must be nonnegative"),
        ),
        cases=(),
    ),
}
# every parameter name, each once, in registry order
_ALL_PARAMS = tuple(dict.fromkeys(k for e in _PROBLEMS.values() for k in e.params))


def validate_config(cfg: ExperimentConfig) -> None:
    """Check parameter ranges against the module preconditions.

    Raises ConfigError (exit code 4 at the CLI boundary) before any work
    happens, so a rejected config never produces a partial trace.
    """
    spec = _PROBLEMS.get(cfg.problem)
    if spec is None:
        raise ConfigError(
            f"unknown problem {cfg.problem!r}; expected one of {sorted(_PROBLEMS)}"
        )
    missing = [k for k in spec.params if k not in cfg.params]
    extra = [k for k in cfg.params if k not in spec.params]
    if missing or extra:
        raise ConfigError(
            f"{cfg.problem} takes parameters {spec.params}; "
            f"missing {missing}, unexpected {extra}"
        )
    p = {k: float(v) for k, v in cfg.params.items()}
    if not all(isfinite(v) for v in p.values()):
        raise ConfigError(f"{cfg.problem}: parameters must be finite")
    # a problem without cases keeps the config's default one
    cases = spec.cases or (ExperimentConfig.case,)
    if cfg.case not in cases:
        raise ConfigError(f"{cfg.problem}: case must be one of {cases}")
    if not (cfg.grid.density > 0 and isfinite(cfg.grid.density)):
        raise ConfigError("grid density must be positive and finite")
    if cfg.grid.x_max is not None:
        if spec.walls:
            raise ConfigError(f"{cfg.problem}: its walls fix the domain; no x_max")
        if not (cfg.grid.x_max > 0 and isfinite(cfg.grid.x_max)):
            raise ConfigError("x_max must be positive and finite when given")
    if cfg.engine.max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    if not (cfg.engine.tol_e >= 0 and cfg.engine.tol_f >= 0):  # NaN too
        raise ConfigError("tolerances must be nonnegative")
    for ok, reason in spec.checks:
        if not ok(p):
            raise ConfigError(f"{cfg.problem}: {reason}")


# ---------------------------------------------------------------------------
# running one configuration


def _build(cfg: ExperimentConfig, *parts: str) -> tuple[Any, ...]:
    """Validate ``cfg``; build its domain, then each of ``parts`` on it.

    ``parts`` name the problem's builders: "trial" (the engine's input)
    and "potential" (the oracle's). Whatever a builder rejects with
    ValueError, OverflowError or MemoryError (a trial the grid cannot
    hold, a coupling whose square overflows, a grid too large to
    allocate) is a ConfigError.
    """
    validate_config(cfg)
    spec = _PROBLEMS[cfg.problem]
    if spec.domain is None:
        raise ConfigError(
            f"{cfg.problem} is a closed-form reduction with no iteration; "
            "use the 'twolevel' command"
        )
    p = {k: float(v) for k, v in cfg.params.items()}
    try:
        domain = spec.domain(p, cfg.grid)
        return (domain, *(getattr(spec, part)(p, domain) for part in parts))
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"{cfg.problem} cannot be built: {exc}") from exc


def run_problem(cfg: ExperimentConfig) -> IterationTrace:
    """Build the configured problem and run the iteration engine on it."""
    _domain, trial = _build(cfg, "trial")
    return _PROBLEMS[cfg.problem].run(trial, cfg.case, cfg.engine)


# ---------------------------------------------------------------------------
# trace serialization


def _trace_rows(trace: IterationTrace) -> list[dict[str, float]]:
    grid = trace.states[0].f.grid
    j0 = grid.index_of(0.0) if grid.x_min < 0.0 <= grid.x_max else 0
    jm = grid.n_nodes // 2
    rows = []
    prev = None
    for s in trace.states:
        step = 0.0 if prev is None else float(abs(s.f.values - prev).max())
        rows.append(
            {
                "n": s.n,
                "shift": s.E_shift,
                "energy": s.E_n,
                "f_origin": float(s.f.values[j0]),
                "f_mid": float(s.f.values[jm]),
                "f_step_max": step,
                "charge_residual": s.charge_residual,
            }
        )
        prev = s.f.values
    return rows


def _trace_header(trace: IterationTrace, cfg: ExperimentConfig) -> dict[str, Any]:
    return {
        "version": TRACE_VERSION,
        "config_hash": config_hash(cfg),
        "config": cfg.as_dict(),
        "label": trace.label,
        "case": trace.case,
        "anchor": trace.anchor,
        "E0": trace.E0,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "E_limit": trace.E_limit,
    }


def write_trace(
    trace: IterationTrace, cfg: ExperimentConfig, fmt: str = "csv"
) -> str:
    """Serialize a run; returns the file body as text."""
    head = _trace_header(trace, cfg)
    rows = _trace_rows(trace)
    if fmt == "json":
        return _json({**head, "rows": rows})
    if fmt != "csv":
        raise ConfigError(f"unknown trace format {fmt!r}")
    buf = io.StringIO()
    buf.write(f"# {TRACE_VERSION} config={head['config_hash']}\n")
    buf.write(
        f"# label={head['label']} case={head['case']} anchor={head['anchor']}"
        f" E0={_fmt(head['E0'])}\n"
    )
    buf.write(
        f"# stop_reason={head['stop_reason']} converged={head['converged']}"
        f" E_limit={'' if head['E_limit'] is None else _fmt(head['E_limit'])}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for r in rows:
        writer.writerow(
            [r["n"]] + [_fmt(r[c]) for c in TRACE_COLUMNS[1:]]
        )
    return buf.getvalue()


def read_trace(text: str) -> dict[str, Any]:
    """Parse either trace format back into header fields plus rows.

    Raises ConfigError on anything that does not look like a cmd_solve
    product (exit 4, as a malformed trace).
    """
    stripped = text.lstrip()
    if not stripped:
        raise _TraceError("empty trace file")
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _TraceError(f"trace is not valid JSON: {exc}") from exc
        if doc.get("version") != TRACE_VERSION:
            raise _TraceError("trace version marker missing or unsupported")
        for key in ("case", "rows"):
            if key not in doc:
                raise _TraceError(f"trace lacks required field {key!r}")
        if not isinstance(doc["rows"], list):
            raise _TraceError("trace rows must be a list")
        head, records = doc, doc["rows"]
    else:
        lines = text.splitlines()
        if not lines or not lines[0].startswith(f"# {TRACE_VERSION} config="):
            raise _TraceError("trace version marker missing or unsupported")
        meta = _CSV_META.fullmatch("\n".join(lines[1:3]))
        if meta is None:
            raise _TraceError("trace comment lines are not the ones solve writes")
        label, case, anchor, E0, stop_reason, converged, E_limit = meta.groups()
        body = [ln for ln in lines[3:] if ln.strip()]
        if not body:
            raise _TraceError("trace has no data rows")
        records = csv.DictReader(body)
        if tuple(records.fieldnames or ()) != TRACE_COLUMNS:
            raise _TraceError(
                f"trace columns {records.fieldnames} != expected {list(TRACE_COLUMNS)}"
            )
        try:
            E0, E_limit = float(E0), float(E_limit) if E_limit else None
        except ValueError as exc:
            raise _TraceError(f"bad header value: {exc}") from exc
        head = {
            "version": TRACE_VERSION,
            "config_hash": lines[0].split("config=", 1)[1].strip(),
            "case": case,
            "label": label,
            "anchor": anchor,
            "E0": E0,
            "stop_reason": stop_reason,
            "converged": converged == "True",
            "E_limit": E_limit,
        }
    try:  # both formats' rows, typed column by column
        rows = [
            {"n": int(rec["n"]), **{c: float(rec[c]) for c in TRACE_COLUMNS[1:]}}
            for rec in records
        ]
    except KeyError as exc:
        raise _TraceError(f"row lacks column {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise _TraceError(f"bad row: {exc}") from exc
    if [r["n"] for r in rows] != list(range(len(rows))):
        raise _TraceError("rows must be numbered 0, 1, 2, ... in order")
    return {**head, "rows": rows}


def certify_trace_file(doc: Mapping[str, Any]) -> dict[str, Any]:
    """File-level certification: everything the columns can support.

    The trace file carries the full shift sequence but only two probe
    columns of each f (origin and midpoint), so the energy ordering and
    the Case-B cross checks are complete while the f checks are probes,
    not the full pointwise theorem (that one runs in-process). The report
    repeats the trace's ``stop_reason`` and ``converged``; a run that did
    not stop on tolerance gets a note that ``ok`` certifies no energy.
    """
    case = doc.get("case")
    if case not in ("A", "B"):
        raise _TraceError(f"trace case must be 'A' or 'B', got {case!r}")
    rows = doc["rows"]
    if len(rows) < 2:
        raise _TraceError("trace needs the seed row plus at least one iterate")
    shifts = [float(r["shift"]) for r in rows[1:]]
    energy, cross = certify_shift_sequence(shifts, case)  # type: ignore[arg-type]
    f_verdicts: list[PairVerdict] = []
    if case == "A":
        for col in ("f_origin", "f_mid"):
            vals = [float(r[col]) for r in rows]
            for i in range(len(vals) - 1):
                margin = vals[i + 1] - vals[i]
                fl = _floor(vals[i], vals[i + 1])
                f_verdicts.append(
                    PairVerdict(f"{col}_ascending", (i, i + 1), margin, margin > -fl)
                )
    verdicts = [*energy, *cross, *f_verdicts]
    ok = all(v.ok for v in verdicts)
    worst = min((v.margin for v in verdicts), default=0.0)
    stop = doc.get("stop_reason")
    notes = [
        "f verdicts cover the two recorded probe columns only; "
        "the full pointwise theorem is checked in-process by certify()"
    ]
    if stop != "tolerance":
        notes.append(
            f"the run stopped on {stop or 'an unrecorded reason'}, not on "
            "tolerance: the verdicts cover only the iterates present, so no "
            "energy is certified"
        )
    return {
        "version": "certify-v1",
        "source_config": doc.get("config_hash", ""),
        "case": case,
        "file_level": True,
        "stop_reason": stop,
        "converged": doc.get("converged"),
        "ok": ok,
        "worst_margin": worst,
        "energy_verdicts": [asdict(v) for v in energy],
        "cross_verdicts": [asdict(v) for v in cross],
        "f_verdicts": [asdict(v) for v in f_verdicts],
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# verbs


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _report(args: argparse.Namespace, doc: Mapping[str, Any], lines: list[str]) -> None:
    """Write a verb's report: ``doc`` with ``--format json``, else ``lines``."""
    text = _json(doc) if args.format == "json" else "\n".join(lines) + "\n"
    _emit(text, args.out)


def _given(args: argparse.Namespace, names: Sequence[str]) -> dict[str, Any]:
    """The values of those ``names`` the verb's parser offers a flag for."""
    return {k: getattr(args, k) for k in names if hasattr(args, k)}


def _config_from_dict(doc: Mapping[str, Any]) -> ExperimentConfig:
    """The config a document describes; a key the config does not have,
    at any level, is refused rather than ignored."""
    try:
        grid_doc = dict(doc.get("grid", {}))
        engine_doc = dict(doc.get("engine", {}))
        for where, given, spec in (
            ("config", doc, ExperimentConfig),
            ("grid", grid_doc, GridSpec),
            ("engine", engine_doc, IterateOptions),
        ):
            known = [f.name for f in fields(spec)]
            stray = [k for k in given if k not in known]
            if stray:
                raise ConfigError(
                    f"unknown {where} key {', '.join(map(repr, stray))}; "
                    f"expected one of {', '.join(known)}"
                )
        return ExperimentConfig(
            problem=doc["problem"],
            params=dict(doc.get("params", {})),
            case=doc.get("case", ExperimentConfig.case),
            grid=GridSpec(
                density=float(grid_doc.get("density", GridSpec.density)),
                x_max=(
                    None
                    if grid_doc.get("x_max") is None
                    else float(grid_doc["x_max"])
                ),
            ),
            engine=IterateOptions(
                max_iter=int(engine_doc.get("max_iter", IterateOptions.max_iter)),
                tol_e=float(engine_doc.get("tol_e", IterateOptions.tol_e)),
                tol_f=float(engine_doc.get("tol_f", IterateOptions.tol_f)),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config document: {exc}") from exc


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config a verb's flags describe; settings without a flag keep
    their defaults, and another problem's parameter flags are refused."""
    wanted = _PROBLEMS[args.problem].params
    stray = [
        _flag(k)
        for k in _ALL_PARAMS
        if k not in wanted and getattr(args, k, None) is not None
    ]
    if stray:
        raise ConfigError(f"{args.problem} does not take {' '.join(stray)}")
    missing = [_flag(k) for k in wanted if getattr(args, k) is None]
    if missing:
        raise ConfigError(f"{args.problem} needs {' '.join(missing)}")
    return _config_from_dict(
        {
            "problem": args.problem,
            "params": {k: getattr(args, k) for k in wanted},
            "grid": _given(args, ("density", "x_max")),
            "engine": _given(args, ("max_iter", "tol_e", "tol_f")),
            **_given(args, ("case",)),
        }
    )


def _stop_exit(stop_reason: str, who: str = "") -> int:
    """Exit code for an engine stop reason, printing the reason if not 0.

    ``who`` prefixes the reason line, naming the run that stopped when it
    is not the one the verb reports on.
    """
    if stop_reason not in _STOP_EXITS:
        return EXIT_OK
    code, reason = _STOP_EXITS[stop_reason]
    print(who + reason, file=sys.stderr)
    return code


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trace = run_problem(cfg)
    _emit(write_trace(trace, cfg, args.format), args.out)
    code = _stop_exit(trace.stop_reason)
    if code != EXIT_OK:
        return code
    report = ws.hierarchy.certify(trace)
    if not report.ok:
        print(
            f"converged but certification failed (worst margin "
            f"{report.worst_margin:.3e})",
            file=sys.stderr,
        )
        return EXIT_VERDICT
    print(
        f"converged: E_limit={_fmt(trace.E_limit)} after "
        f"{len(trace.states) - 1} iterations; certified ok",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    try:
        text = Path(args.trace).read_text()
    except UnicodeDecodeError as exc:
        raise _TraceError(f"not UTF-8 text: {exc}") from exc
    report = certify_trace_file(read_trace(text))
    _emit(_json(report), args.out)
    if args.out not in (None, "-"):
        print(
            f"{'ok' if report['ok'] else 'FAILED'}: worst margin "
            f"{report['worst_margin']:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK if report["ok"] else EXIT_VERDICT


def cmd_squarewell(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    (model, grid), well, (V, v_func) = _build(cfg, "trial", "potential")
    spec = _PROBLEMS[cfg.problem]
    trace = spec.run(well, cfg.case, cfg.engine)
    E_engine = trace.states[-1].E_n
    fd = ws.oracle.fd_ground_state(V, v_func=v_func, levels=2)
    shift = ws.squarewell.exact_shift(model, grid)
    tl = ws.squarewell.two_level_from_model(model)

    E_t = model.E
    report = {
        "version": "squarewell-v1",
        "config_hash": config_hash(cfg),
        "model": {
            "W": model.W,
            "mu": model.mu,
            "alpha": model.alpha,
            "beta": model.beta,
            "delta": model.delta,
            "lam": model.lam,
            "shape": model.shape,
            "E_a": model.E_a,
            "E_b": model.E_b,
        },
        "E_transcendental": E_t,
        "E_engine": E_engine,
        "E_oracle": fd.E_ground,
        "E_two_level": tl.E,
        "E_overlap_route": model.E_a - shift,
        "engine_stop_reason": trace.stop_reason,
        "engine_iterations": len(trace.states) - 1,
        "diff_engine": E_engine - E_t,
        "diff_oracle": fd.E_ground - E_t,
        "diff_two_level": tl.E - E_t,
        "diff_overlap_route": (model.E_a - shift) - E_t,
    }
    lines = [
        f"double square well: W={_fmt(model.W)} mu={_fmt(model.mu)} "
        f"alpha={_fmt(model.alpha)} beta={_fmt(model.beta)}",
        f"  tunneling split lam={_fmt(model.lam)}  well offset "
        f"delta={_fmt(model.delta)}  profile={model.shape}",
        "",
        f"  {'route':<18}{'E':>24}{'diff vs transcendental':>26}",
        f"  {'transcendental':<18}{_fmt(E_t):>24}{'':>26}",
        f"  {'engine':<18}{_fmt(E_engine):>24}{_fmt(report['diff_engine']):>26}",
        f"  {'oracle':<18}{_fmt(fd.E_ground):>24}{_fmt(report['diff_oracle']):>26}",
        f"  {'two-level':<18}{_fmt(tl.E):>24}{_fmt(report['diff_two_level']):>26}",
        f"  {'overlap ratio':<18}{_fmt(report['E_overlap_route']):>24}"
        f"{_fmt(report['diff_overlap_route']):>26}",
        "",
        f"  engine: {trace.stop_reason} after {len(trace.states) - 1} iterations",
    ]
    _report(args, report, lines)
    return _stop_exit(trace.stop_reason)


def cmd_twolevel(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    validate_config(cfg)
    p = {k: float(v) for k, v in cfg.params.items()}
    try:
        tl = ws.squarewell.two_level(p["E_inf"], p["lam"], p["mu_sq"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = {
        "version": "twolevel-v1",
        "config_hash": config_hash(cfg),
        "E_inf": tl.E_inf,
        "lam": tl.lam,
        "mu_sq": tl.mu_sq,
        "E": tl.E,
        "shift_below_E_inf": tl.E_inf - tl.E,
        "mixing_angle": tl.mixing_angle,
    }
    lines = [
        f"two-level reduction: E_inf={_fmt(tl.E_inf)} "
        f"lam={_fmt(tl.lam)} mu_sq={_fmt(tl.mu_sq)}",
        f"  ground energy  E = {_fmt(tl.E)}",
        f"  shift below E_inf = {_fmt(tl.E_inf - tl.E)}",
        f"  mixing angle      = {_fmt(tl.mixing_angle)}",
    ]
    _report(args, report, lines)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.levels < 1:
        raise ConfigError("--levels must be at least 1")
    _domain, (V, v_func) = _build(cfg, "potential")
    res = ws.oracle.fd_ground_state(
        V, v_func=v_func, mirror_even=V.grid.x_min == 0.0, levels=args.levels
    )
    ref = res.refinement
    # a single level has no refinement study: its raw eigenvalue stands alone
    levels = (
        [(res.grid.n_nodes, res.E_ground)]
        if ref is None
        else [(lv.n_nodes, lv.energy) for lv in ref.levels]
    )
    report = {
        "version": "oracle-v1",
        "config_hash": config_hash(cfg),
        "E_ground": res.E_ground,
        "levels": [{"n_nodes": nodes, "E": e} for nodes, e in levels],
        "error_estimate": None if ref is None else ref.error_estimate,
    }
    lines = [f"oracle ground energy: {_fmt(res.E_ground)}"]
    for nodes, e in levels:
        lines.append(f"  {nodes:>8} nodes -> E = {_fmt(e)}")
    if ref is not None:
        lines.append(f"  Richardson error estimate ~ {ref.error_estimate:.3e}")
    _report(args, report, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _apply_override(doc: dict[str, Any], dotted: str, value: Any) -> None:
    keys = dotted.split(".")
    cur: Any = doc
    for k in keys[:-1]:
        if k not in cur or not isinstance(cur[k], dict):
            cur[k] = {}
        cur = cur[k]
    cur[keys[-1]] = value


def _sweep_points(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    sweep = doc.get("sweep", {})
    if not isinstance(sweep, Mapping):
        raise ConfigError("'sweep' must map dotted config paths to value lists")
    keys = sorted(sweep)
    for k in keys:
        if not isinstance(sweep[k], (list, tuple)):
            raise ConfigError(f"sweep values for {k!r} must be a list")
    points = []
    for combo in product(*(sweep[k] for k in keys)):
        points.append(dict(zip(keys, combo)))
    if not keys:
        return []
    return points


def _run_sweep_point(
    index: int,
    base: Mapping[str, Any],
    overrides: Mapping[str, Any],
    outdir: Path,
    fmt: str,
) -> dict[str, Any]:
    doc = json.loads(json.dumps(base))  # deep copy via round trip
    for k, v in overrides.items():
        _apply_override(doc, k, v)
    entry: dict[str, Any] = {"index": index, "overrides": dict(overrides)}
    try:
        cfg = _config_from_dict(doc)
        trace = run_problem(cfg)
        path = outdir / f"point_{index:04d}.{fmt}"
        path.write_text(write_trace(trace, cfg, fmt))
        entry.update(
            {
                "config_hash": config_hash(cfg),
                "path": path.name,
                "status": trace.stop_reason,
                "converged": trace.converged,
                "E_limit": trace.E_limit,
            }
        )
    except (ValueError, RuntimeError, OSError) as exc:
        entry.update({"status": "error", "error": str(exc)})
    return entry


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(doc, Mapping) or doc.get("version") != SWEEP_VERSION:
        raise ConfigError(f"sweep config must carry version={SWEEP_VERSION!r}")
    base = doc.get("base")
    if not isinstance(base, Mapping):
        raise ConfigError("sweep config needs a 'base' config object")
    points = _sweep_points(doc)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    entries = [
        _run_sweep_point(i, base, ov, outdir, args.format)
        for i, ov in enumerate(points)
    ]
    manifest = {
        "version": SWEEP_VERSION,
        "base": json.loads(json.dumps(base)),
        "n_points": len(entries),
        "points": entries,
    }
    (outdir / "manifest.json").write_text(_json(manifest))
    # a point that stopped short of the tolerances failed, as its solve would
    failed = sum(1 for e in entries if e["status"] != "tolerance")
    print(
        f"sweep: {len(entries)} points, {len(entries) - failed} converged, "
        f"{failed} failed; manifest at {outdir / 'manifest.json'}",
        file=sys.stderr,
    )
    return EXIT_VERDICT if failed else EXIT_OK


# ---------------------------------------------------------------------------
# the exit policy
#
# Verbs raise; main() maps what they raise to its exit code and its one
# stderr line here, and nowhere else. Rows are tried in order, so a
# subclass comes before its base. A package module's class is named
# "module.Class" and looked up only once that module is imported: nothing
# it defines can be raised before, and naming it must not import numpy
# into a certify run. A code of None exits on the exception's stop reason.

_FAILURES: tuple[tuple[type[Exception] | str, int | None, str], ...] = (
    (_TraceError, EXIT_CONFIG, "malformed trace: {msg}"),
    (ConfigError, EXIT_CONFIG, "config error: {msg}"),
    (OSError, EXIT_CONFIG, "i/o error: {msg}"),
    ("oracle.EigensolveError", EXIT_EIGENSOLVE, "oracle error: {msg}"),
    ("hierarchy.HalfLineStageError", None, "half-line stage '{exc.label}' "),
    (Exception, EXIT_INTERNAL, "internal error: {type}: {msg}"),
)


def _exit_on(exc: Exception) -> int:
    """Print the one line ``exc`` ends its run with; return the exit code."""
    for kind, code, line in _FAILURES:
        if isinstance(kind, str):
            module, _, name = kind.partition(".")
            kind = getattr(sys.modules.get(f"{__package__}.{module}"), name, ())
        if isinstance(exc, kind):
            break
    text = line.format(
        exc=exc, type=type(exc).__name__, msg=" ".join(str(exc).splitlines())
    )
    if code is None:
        return _stop_exit(exc.stop_reason, text)  # type: ignore[attr-defined]
    print(text, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# argument parsing


def _flag(name: str) -> str:
    return "--" + name.lower().replace("_", "-")


def _add_problem_flags(
    p: argparse.ArgumentParser, problems: Sequence[str], engine: bool = True
) -> None:
    """Flags for a verb serving ``problems``: their parameters, and the
    case, grid and engine flags that at least one of them uses (case and
    engine only when the verb runs the engine)."""
    specs = [_PROBLEMS[name] for name in problems]
    for name in dict.fromkeys(k for s in specs for k in s.params):
        p.add_argument(_flag(name), type=float, default=None, dest=name)
    cases = sorted({c for s in specs for c in s.cases})
    if engine and cases:
        p.add_argument("--case", choices=cases, default=ExperimentConfig.case)
    if any(s.domain for s in specs):
        p.add_argument("--grid-density", type=float, default=GridSpec.density,
                       dest="density", help="nodes per unit length")
    if any(s.domain and not s.walls for s in specs):
        p.add_argument("--x-max", type=float, default=None, dest="x_max",
                       help="override the automatic domain truncation")
    if engine and any(s.run for s in specs):
        p.add_argument("--max-iter", type=int, default=IterateOptions.max_iter,
                       dest="max_iter")
        p.add_argument("--tol-e", type=float, default=IterateOptions.tol_e,
                       dest="tol_e", help="energy stop tolerance, relative to E0")
        p.add_argument("--tol-f", type=float, default=IterateOptions.tol_f,
                       dest="tol_f",
                       help="absolute stop tolerance on max|f_n - f_{n-1}|")
    p.add_argument("--out", default=None,
                   help="output path ('-' or omitted: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellsolver",
        description="iterative ground-state solver with ordering certification",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p_solve = subs.add_parser("solve", help="run the iteration, write a trace")
    p_solve.add_argument("problem", choices=sorted(_PROBLEMS))
    _add_problem_flags(p_solve, sorted(_PROBLEMS))
    p_solve.set_defaults(fn=cmd_solve)

    p_cert = subs.add_parser("certify", help="re-check a written trace")
    p_cert.add_argument("trace", help="trace file from 'solve'")
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(fn=cmd_certify)

    p_sq = subs.add_parser(
        "squarewell", help="four-route comparison on the analytic well"
    )
    _add_problem_flags(p_sq, ["squarewell"])
    p_sq.set_defaults(fn=cmd_squarewell, problem="squarewell")

    p_tl = subs.add_parser("twolevel", help="closed-form two-level reduction")
    _add_problem_flags(p_tl, ["two_level"])
    p_tl.set_defaults(fn=cmd_twolevel, problem="two_level")

    solvable = sorted(k for k, s in _PROBLEMS.items() if s.potential)
    p_or = subs.add_parser("oracle", help="independent eigensolve of a problem")
    p_or.add_argument("problem", choices=solvable)
    p_or.add_argument("--levels", type=int, default=3,
                      help="refinement levels for Richardson extrapolation")
    _add_problem_flags(p_or, solvable, engine=False)
    p_or.set_defaults(fn=cmd_oracle)

    p_sw = subs.add_parser("sweep", help="run a parameter grid from a config file")
    p_sw.add_argument("--config", required=True,
                      help=f"JSON file with version={SWEEP_VERSION!r}, "
                           "'base', and 'sweep'")
    p_sw.add_argument("--outdir", required=True)
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which collides with the
        # positivity-violation code; usage problems are config problems
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_CONFIG if code else EXIT_OK
    try:
        return args.fn(args)
    except Exception as exc:
        return _exit_on(exc)


if __name__ == "__main__":
    sys.exit(main())
