"""The benchmark's three workloads: inputs from a seed, operations, checks.

Every workload is a closed loop with one caller. Inputs come in blocks: a
block crosses every stratum of the drawn parameters once, each value drawn
uniformly (or log-uniformly) inside its stratum, and is then shuffled. The
marginal distributions are exactly the documented ones; the blocks only
keep the mix of cheap and expensive, passing and failing inputs the same
from one seed to the next, so a run's figures do not hinge on how many
slow draws it happened to get. A run always finishes the block it is in.

The gated workloads (``halfline``, ``cold_cli``; see ``BENCHMARK.json``)
draw only where every operation of the current code passes, so a run's
``failed`` count is 0 and two runs agree on it whatever their length. The
known failing inputs are kept in the ungated workloads: ``halfline_edge``
holds the rest of the sym_quartic draw space (density 100, and g in
[30, 40] on the finer grids), and ``fullline`` the full square-well and
asym_quartic draws. Each workload's ``failure`` names an operation's
failure reason (``REASONS``), so failures are counted, never avoided.
``exception`` covers an operation that raised and one whose output could
not be read back.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TMP = OUT / "tmp"

REASONS = ("certify", "max_iter", "positivity", "exception", "wrong_energy", "refused")
STOP_REASON = {"max_iter": "max_iter", "positivity_violation": "positivity"}
EXIT_REASON = {1: "certify", 2: "positivity", 3: "max_iter", 4: "refused"}

# Reference tolerances are the acceptance gate's own: c04 for the oracle
# agreement of quartic wells, c06 for the square well's closed form.
ORACLE_TOL = 1e-5
SQUAREWELL_TOL = 1e-8
REFERENCE_DENSITY = 400.0
COLD_TIMEOUT_S = 120.0

# The README's square-well call.
README_WELL = {"W": 3.0, "mu": 0.7071067811865476, "alpha": 1.0, "beta": 2.0}


def _num(x: float) -> str:
    return repr(float(x))


def _log_strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform draw from each of ``k`` equal-probability strata."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / k) for i in range(k)]


def _lin_strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    return [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]


def _latin(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """A Latin-hypercube column: one draw per stratum, in random order."""
    column = _lin_strata(rng, lo, hi, k)
    rng.shuffle(column)
    return column


def _squarewell_draw(rng: random.Random, k: int) -> list[dict]:
    W = _latin(rng, 2.0, 5.0, k)
    alpha = _latin(rng, 0.5, 1.5, k)
    beta = _latin(rng, 1.0, 3.0, k)
    mu_share = _latin(rng, 0.0, 0.5, k)  # mu uniform in [0, W/2]
    return [
        {"W": W[i], "mu": mu_share[i] * W[i], "alpha": alpha[i], "beta": beta[i]}
        for i in range(k)
    ]


def _well_flags(p: dict) -> list[str]:
    return [
        "--w", _num(p["W"]), "--mu", _num(p["mu"]),
        "--alpha", _num(p["alpha"]), "--beta", _num(p["beta"]),
    ]


def _error(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def _timed(tracer, op_id: int, kind: str, fn):
    """Run one operation; returns (seconds, value, error, root span index)."""
    root = None
    if tracer is not None:
        tracer.op = op_id
        root = tracer.begin(f"bench.{kind}")
        tracer.active = True
    t0 = time.perf_counter()
    value, error = None, None
    try:
        value = fn()
    except Exception as exc:  # the benchmark keeps running and counts it
        error = _error(exc)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
        tracer.end(root)
    return seconds, value, error, root


# ---------------------------------------------------------------------------
# independent references


def _fd_limit(grid, potential, mirror_even: bool) -> float:
    """Richardson limit of the oracle's lowest eigenvalue.

    The same two finest levels and extrapolation ``fd_ground_state(levels=3)``
    reports, taken from ``fd_levels``: the energy needs no eigenvector, and
    the eigenvector's sign check breaks down once a deep double well's
    tunnelling splitting drops below roundoff (sym_quartic at g >~ 25).
    """
    from wellsolver import grid as grids
    from wellsolver import oracle

    e = []
    for factor in (2, 4):
        fine = grid.refined(factor)
        V = grids.Samples(fine, potential(fine.nodes))
        e.append(float(oracle.fd_levels(V, 1, mirror_even=mirror_even)[0]))
    return e[1] + (e[1] - e[0]) / 3.0


def sym_reference(g: float) -> float:
    from wellsolver import trialgen

    grid = trialgen.quartic_grid(g, REFERENCE_DENSITY)
    return _fd_limit(grid, lambda x: 0.5 * g * g * (x * x - 1.0) ** 2, True)


def asym_reference(g: float, lam: float) -> float:
    from wellsolver import trialgen

    grid = trialgen.quartic_grid(g, REFERENCE_DENSITY, full_line=True)
    return _fd_limit(
        grid, lambda x: 0.5 * g * g * (x * x - 1.0) ** 2 + g * lam * x, False
    )


def squarewell_reference(p: dict) -> float:
    from wellsolver import squarewell

    return squarewell.solve_asymmetric(p["W"], p["mu"], p["alpha"], p["beta"]).E


class References:
    """Reference energies, computed once per distinct input of a run."""

    def __init__(self) -> None:
        self._memo: dict[tuple, float] = {}

    def get(self, fn, *args) -> float:
        key = (fn.__name__, *(json.dumps(a, sort_keys=True) for a in args))
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]


def _energy_check(energy, reference: float, tol: float):
    if energy is None or not abs(energy - reference) <= tol:
        return "wrong_energy"
    return None


def _file_level(text: str):
    """(certified, final energy) of a trace file, by the CLI's own reader."""
    from wellsolver import cli

    doc = cli.read_trace(text)
    ok = cli.certify_trace_file(doc)["ok"]
    energy = doc["E_limit"]
    if energy is None and doc["rows"]:
        energy = doc["rows"][-1]["energy"]
    return ok, energy


def _trace_outcome(rec: dict) -> str | None:
    """Failure reason of a `solve` whose trace text is ``outputs[0]``."""
    if rec["rc"] != 0:
        if rec["outputs"]:  # a stopped or uncertified run still wrote its trace
            rec["energy"] = _file_level(rec["outputs"][0])[1]
        return EXIT_REASON.get(rec["rc"], "exception")
    ok, rec["energy"] = _file_level(rec["outputs"][0])
    return None if ok else "certify"


# ---------------------------------------------------------------------------
# workloads


class Halfline:
    """Library calls in process: quartic_grid, trial, iterate, certify.

    Draws: g log-uniform in [1, 30], density from {400, 1600}, Case A or B.
    About 40% of the draws have g <~ 4, where a segment's log-amplitude
    range exceeds the engine's block cap and the scans run the per-pair
    block partition; at g >= 5 a single block bypasses it. Every draw
    passes: density 100 fails certification from g ~ 6.5 on, and Case B
    at density 400 from g ~ 32.5 on; those inputs are ``HalflineEdge``'s.
    """

    name = "halfline"
    in_process = True
    G_STRATA = 8
    G_RANGE = (1.0, 30.0)
    DENSITIES = (400.0, 1600.0)
    block_size = G_STRATA * len(DENSITIES) * 2

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        from wellsolver import cli, hierarchy, trialgen

        self.cli, self.hierarchy, self.trialgen = cli, hierarchy, trialgen

    def block(self) -> list[dict]:
        items = [
            {"kind": "sym_quartic", "g": g, "density": d, "case": case}
            for d in self.DENSITIES
            for case in "AB"
            for g in _log_strata(self.rng, *self.G_RANGE, self.G_STRATA)
        ]
        self.rng.shuffle(items)
        return items

    def warmup(self) -> list[dict]:
        return [{"kind": "sym_quartic", "g": 2.0, "density": 400.0, "case": "A"}]

    def _op(self, inp: dict):
        grid = self.trialgen.quartic_grid(inp["g"], inp["density"])
        trial = self.trialgen.build_symmetric_quartic_trial(inp["g"], grid)
        trace = self.hierarchy.iterate(trial, inp["case"])
        return trace, self.hierarchy.certify(trace)

    def run(self, inp: dict, op_id: int, tracer, keep: bool) -> dict:
        seconds, value, error, _ = _timed(tracer, op_id, inp["kind"], lambda: self._op(inp))
        rec = {"input": inp, "seconds": seconds, "error": error, "outputs": []}
        if value is not None:
            trace, report = value
            rec.update(
                stop=trace.stop_reason,
                certified=report.ok,
                energy=trace.states[-1].E_n,
                iterations=len(trace.states) - 1,
            )
            if keep:
                cfg = self.cli.ExperimentConfig(
                    problem="sym_quartic",
                    params={"g": inp["g"]},
                    case=inp["case"],
                    grid=self.cli.GridSpec(density=inp["density"]),
                )
                rec["outputs"].append(self.cli.write_trace(trace, cfg))
        return rec

    def failure(self, rec: dict, refs: References) -> str | None:
        if rec["error"]:
            return "exception"
        if rec["stop"] != "tolerance":
            return STOP_REASON.get(rec["stop"], "exception")
        if not rec["certified"]:
            return "certify"
        ref = refs.get(sym_reference, rec["input"]["g"])
        rec["reference"] = ref
        return _energy_check(rec["energy"], ref, ORACLE_TOL)


class HalflineEdge(Halfline):
    """``halfline``'s operation on the rest of the sym_quartic draw space.

    Together with ``halfline`` it covers g log-uniform in [1, 40], density
    from {100, 400, 1600} and Case A or B. A block is density 100 with g
    in [1, 40] (eight log strata) and density 400 and 1600 with g in
    [30, 40] (one draw each), both cases. It holds the known failures:
    certification at density 100 from g ~ 6.5 on, and Case B at density
    400 from g ~ 32.5 on. Not gated: it exists to count them.
    """

    name = "halfline_edge"
    COARSE = 100.0
    FINE_G_RANGE = (30.0, 40.0)
    block_size = (Halfline.G_STRATA + len(Halfline.DENSITIES)) * 2

    def block(self) -> list[dict]:
        rng = self.rng
        items = [
            {"kind": "sym_quartic", "g": g, "density": self.COARSE, "case": case}
            for case in "AB"
            for g in _log_strata(rng, 1.0, 40.0, self.G_STRATA)
        ] + [
            {"kind": "sym_quartic", "g": _log_strata(rng, *self.FINE_G_RANGE, 1)[0],
             "density": d, "case": case}
            for d in self.DENSITIES
            for case in "AB"
        ]
        rng.shuffle(items)
        return items


class Fullline:
    """CLI verbs in process and warm: `squarewell` and `solve asym_quartic`, 1:1.

    Problems glued on the full line, with a step perturbation and a
    two-stage pipeline; the only timed home of the oracle (inside the
    `squarewell` verb) and of the closed-form square-well solve.
    """

    name = "fullline"
    in_process = True
    G_STRATA, LAM_STRATA = 4, 3
    DENSITIES = (200.0, 400.0, 800.0)
    block_size = 2 * G_STRATA * LAM_STRATA

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        from wellsolver import cli

        self.cli = cli
        TMP.mkdir(parents=True, exist_ok=True)

    def block(self) -> list[dict]:
        rng = self.rng
        asym = [
            {"kind": "asym_quartic", "g": g, "lam": lam}
            for g in _log_strata(rng, 2.0, 20.0, self.G_STRATA)
            # g > 1 + lam holds for every draw: g >= 2 > 1.9 > 1 + lam
            for lam in _lin_strata(rng, 0.05, 0.9, self.LAM_STRATA)
        ]
        rng.shuffle(asym)
        k = len(asym)
        densities = list(self.DENSITIES) * (k // len(self.DENSITIES))
        rng.shuffle(densities)
        wells = [
            {"kind": "squarewell", **p, "density": d}
            for p, d in zip(_squarewell_draw(rng, k), densities)
        ]
        return [op for pair in zip(wells, asym) for op in pair]

    def warmup(self) -> list[dict]:
        return [
            {"kind": "squarewell", **README_WELL, "density": 400.0},
            {"kind": "asym_quartic", "g": 5.0, "lam": 0.2},
        ]

    @staticmethod
    def argv(inp: dict, out: Path) -> list[str]:
        if inp["kind"] == "squarewell":
            return [
                "squarewell", *_well_flags(inp),
                "--grid-density", _num(inp["density"]),
                "--format", "json", "--out", str(out),
            ]
        return [
            "solve", "asym_quartic", "--g", _num(inp["g"]),
            "--lam", _num(inp["lam"]), "--out", str(out),
        ]

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def run(self, inp: dict, op_id: int, tracer, keep: bool) -> dict:
        out = TMP / f"fullline_{inp['kind']}.out"
        out.unlink(missing_ok=True)
        argv = self.argv(inp, out)
        seconds, rc, error, _ = _timed(tracer, op_id, inp["kind"], lambda: self._main(argv))
        rec = {"input": inp, "seconds": seconds, "error": error, "rc": rc, "outputs": []}
        if out.exists():
            rec["outputs"].append(out.read_text())
        return rec

    def failure(self, rec: dict, refs: References) -> str | None:
        inp = rec["input"]
        if rec["error"]:
            return "exception"
        if inp["kind"] == "asym_quartic":
            reason = _trace_outcome(rec)
            if reason:
                return reason
            ref = refs.get(asym_reference, inp["g"], inp["lam"])
            rec["reference"] = ref
            return _energy_check(rec["energy"], ref, ORACLE_TOL)
        if rec["rc"] != 0:
            return EXIT_REASON.get(rec["rc"], "exception")
        report = json.loads(rec["outputs"][0])
        rec["energy"] = report["E_engine"]
        if report["engine_stop_reason"] != "tolerance":
            return STOP_REASON.get(report["engine_stop_reason"], "exception")
        ref = refs.get(squarewell_reference, _well(inp))
        rec["reference"] = ref
        return _energy_check(rec["energy"], ref, SQUAREWELL_TOL)


def _well(inp: dict) -> dict:
    return {k: inp[k] for k in ("W", "mu", "alpha", "beta")}


class ColdCli:
    """One fresh `python -m wellsolver.cli` process per operation.

    Blocks of four: `solve sym_quartic` (drawn g, trace written), `certify`
    on that trace, the README-style `squarewell` call (the README's W,
    alpha and beta, mu drawn uniformly in [0, W/2]) and an 8-point `sweep`.
    Every draw passes; the full square-well draws, about a fifth of which
    stop at max_iter, are ``fullline``'s. Sweeps alternate between a sym_quartic g-sweep,
    where every point has its own grid, and a square-well mu-sweep at the
    README's W, alpha and beta, where all points share one grid.
    """

    name = "cold_cli"
    in_process = False
    block_size = 4
    SWEEP_POINTS = 8

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.blocks_made = 0

    def prepare(self) -> None:
        TMP.mkdir(parents=True, exist_ok=True)

    def _sweep(self, kind: str) -> dict:
        k = self.SWEEP_POINTS
        if kind == "sym_quartic":
            doc = {
                "base": {"problem": "sym_quartic", "params": {"g": 2.0}, "case": "A",
                         "grid": {"density": 400.0}},
                "sweep": {"params.g": _log_strata(self.rng, 1.0, 40.0, k)},
            }
        else:
            well = {k_: v for k_, v in README_WELL.items() if k_ != "mu"}
            doc = {
                "base": {"problem": "squarewell", "params": {**well, "mu": 0.0},
                         "case": "A", "grid": {"density": 400.0}},
                "sweep": {"params.mu": _lin_strata(self.rng, 0.0, 0.5 * well["W"], k)},
            }
        return {"kind": "sweep", "config": {"version": "sweep-v1", **doc}}

    def block(self) -> list[dict]:
        rng = self.rng
        sweep_of = "sym_quartic" if self.blocks_made % 2 == 0 else "squarewell"
        self.blocks_made += 1
        return [
            {"kind": "solve", "g": 40.0 ** rng.random()},
            {"kind": "certify"},
            {"kind": "squarewell", **README_WELL,
             "mu": rng.uniform(0.0, 0.5 * README_WELL["W"])},
            self._sweep(sweep_of),
        ]

    def warmup(self) -> list[dict]:
        return [
            {"kind": "solve", "g": 2.0},
            {"kind": "certify"},
            {"kind": "squarewell", **README_WELL},
            {"kind": "sweep", "config": {
                "version": "sweep-v1",
                "base": {"problem": "sym_quartic", "params": {"g": 2.0}, "case": "A",
                         "grid": {"density": 400.0}},
                "sweep": {"params.g": [1.0, 2.0, 4.0]},
            }},
        ]

    @staticmethod
    def argv(inp: dict) -> list[str]:
        trace = TMP / "cold_solve.csv"
        kind = inp["kind"]
        if kind == "solve":
            return ["solve", "sym_quartic", "--g", _num(inp["g"]), "--out", str(trace)]
        if kind == "certify":
            return ["certify", str(trace)]
        if kind == "squarewell":
            return ["squarewell", *_well_flags(inp)]
        return ["sweep", "--config", str(TMP / "sweep.json"),
                "--outdir", str(TMP / "sweep_out")]

    def run(self, inp: dict, op_id: int, tracer, keep: bool) -> dict:
        kind = inp["kind"]
        sweep_dir = TMP / "sweep_out"
        if kind == "solve":
            (TMP / "cold_solve.csv").unlink(missing_ok=True)
        if kind == "sweep":
            shutil.rmtree(sweep_dir, ignore_errors=True)
            (TMP / "sweep.json").write_text(json.dumps(inp["config"]))
        argv = self.argv(inp)
        spans_file = TMP / "child_spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "wellsolver.cli", *argv]
        else:
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "coldchild.py"), str(spans_file), *argv]

        def child():
            return subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT_S
            )

        seconds, proc, error, root = _timed(tracer, op_id, kind, child)
        if tracer is not None and spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text()), root)
        rec = {"input": inp, "seconds": seconds, "error": error, "outputs": []}
        if proc is None:
            return rec
        rec["rc"] = proc.returncode
        if "Traceback (most recent call last)" in proc.stderr:
            rec["error"] = proc.stderr.strip().splitlines()[-1]
        if kind == "solve" and (TMP / "cold_solve.csv").exists():
            rec["outputs"].append((TMP / "cold_solve.csv").read_text())
        elif kind in ("certify", "squarewell"):
            rec["outputs"].append(proc.stdout)
        elif kind == "sweep" and sweep_dir.exists():
            files = sorted(p for p in sweep_dir.iterdir() if p.is_file())
            rec["names"] = [p.name for p in files]
            rec["outputs"].extend(p.read_text() for p in files)
        return rec

    def failure(self, rec: dict, refs: References) -> str | None:
        inp = rec["input"]
        kind = inp["kind"]
        if rec["error"]:
            return "exception"
        if kind == "solve":
            reason = _trace_outcome(rec)
            if reason:
                return reason
            ref = refs.get(sym_reference, inp["g"])
            rec["reference"] = ref
            return _energy_check(rec["energy"], ref, ORACLE_TOL)
        if kind == "certify":
            if rec["rc"] != 0:
                return EXIT_REASON.get(rec["rc"], "exception")
            return None if json.loads(rec["outputs"][0])["ok"] else "certify"
        if kind == "squarewell":
            if rec["rc"] != 0:
                return EXIT_REASON.get(rec["rc"], "exception")
            stop, rec["energy"] = _parse_squarewell_text(rec["outputs"][0])
            if stop != "tolerance":
                return STOP_REASON.get(stop, "exception")
            ref = refs.get(squarewell_reference, _well(inp))
            rec["reference"] = ref
            return _energy_check(rec["energy"], ref, SQUAREWELL_TOL)
        return self._sweep_failure(rec)

    @staticmethod
    def _sweep_failure(rec: dict) -> str | None:
        """A sweep passes when every point's own trace does."""
        if rec["rc"] == 1:  # the verb's code for points that raised
            return "exception"
        if rec["rc"] != 0:
            return EXIT_REASON.get(rec["rc"], "exception")
        files = dict(zip(rec["names"], rec["outputs"]))
        manifest = json.loads(files["manifest.json"])
        energies = []
        for point in manifest["points"]:
            if point["status"] != "tolerance":
                return STOP_REASON.get(point["status"], "exception")
            ok, energy = _file_level(files[point["path"]])
            if not ok:
                return "certify"
            if energy != point["E_limit"]:
                return "wrong_energy"
            energies.append(energy)
        rec["energy"] = energies
        return None


def _parse_squarewell_text(text: str) -> tuple[str, float | None]:
    """(engine stop reason, engine energy) from the text report."""
    stop, energy = "unknown", None
    for line in text.splitlines():
        words = line.split()
        if len(words) == 3 and words[0] == "engine":
            energy = float(words[1])
        elif words[:1] == ["engine:"]:
            stop = words[1]
    return stop, energy


WORKLOADS = {w.name: w for w in (Halfline, HalflineEdge, Fullline, ColdCli)}
