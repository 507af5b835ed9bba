"""Command-line workflows: traces on disk, certification, sweeps, exit codes.

Everything runs in-process through cli.main so the tests see real exit
codes without subprocess overhead.  Grid densities are kept low; these
tests exercise plumbing, not numerical accuracy.
"""

from __future__ import annotations

import filecmp
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wellsolver import (
    build_symmetric_quartic_trial,
    cli,
    iterate,
    quartic_grid,
)


def run(argv, capsys):
    """Invoke the CLI and return (exit_code, stdout, stderr).

    Reports and trace bodies go to stdout; status lines go to stderr.
    """
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# solve + trace files


def test_solve_writes_versioned_trace(tmp_path, capsys):
    path = tmp_path / "t.csv"
    rc, _out, err = run(
        ["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--out", str(path)],
        capsys,
    )
    assert rc == cli.EXIT_OK
    assert "converged" in err
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# trace-v1 config=")
    digest = lines[0].split("config=")[1]
    assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "n,shift,energy,f_origin,f_mid,f_step_max,charge_residual"
    first = next(l for l in lines if l.startswith("0,"))
    # seed row: zero shift, energy at E0, unit f probes
    assert first.split(",")[:4] == ["0", "0", "2", "1"]


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["solve", "sym_quartic", "--g", "2", "--grid-density", "150"]
    assert cli.main(argv + ["--out", str(a)]) == cli.EXIT_OK
    assert cli.main(argv + ["--out", str(b)]) == cli.EXIT_OK
    assert filecmp.cmp(a, b, shallow=False)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_solve_certify_round_trip(tmp_path, fmt):
    path = tmp_path / f"t.{fmt}"
    rc = cli.main(
        ["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--format", fmt, "--out", str(path)]
    )
    assert rc == cli.EXIT_OK
    assert cli.main(["certify", str(path)]) == cli.EXIT_OK


def test_json_trace_document_shape(tmp_path):
    path = tmp_path / "t.json"
    cli.main(["solve", "harmonic", "--g", "1", "--grid-density", "100",
              "--format", "json", "--out", str(path)])
    doc = json.loads(path.read_text())
    assert doc["version"] == cli.TRACE_VERSION
    assert doc["case"] == "A"
    assert doc["converged"] is True
    assert doc["E_limit"] == pytest.approx(0.5, abs=1e-12)
    row_keys = {"n", "shift", "energy", "f_origin", "f_mid", "f_step_max",
                "charge_residual"}
    assert set(doc["rows"][0]) == row_keys
    # the fixed point of the reference problem: nothing moves
    assert all(r["shift"] == 0.0 for r in doc["rows"])
    assert all(r["energy"] == 0.5 for r in doc["rows"])


def test_csv_and_json_agree(tmp_path):
    base = ["solve", "sym_quartic", "--g", "2", "--grid-density", "150"]
    pc, pj = tmp_path / "t.csv", tmp_path / "t.json"
    cli.main(base + ["--out", str(pc)])
    cli.main(base + ["--format", "json", "--out", str(pj)])
    dc = cli.read_trace(pc.read_text())
    dj = cli.read_trace(pj.read_text())
    assert dc["config_hash"] == dj["config_hash"]
    assert dc["E_limit"] == pytest.approx(dj["E_limit"], abs=0.0)
    sc = [r["shift"] for r in dc["rows"]]
    sj = [r["shift"] for r in dj["rows"]]
    assert sc == sj


@pytest.mark.parametrize(
    "params",
    [
        ["asym_quartic", "--g", "4", "--lam", "0.3"],
        ["squarewell", "--w", "3", "--mu", "0.7", "--alpha", "1", "--beta", "2"],
    ],
)
def test_csv_and_json_headers_agree_for_labels_with_spaces(tmp_path, params):
    base = ["solve", *params, "--grid-density", "200"]
    pc, pj = tmp_path / "t.csv", tmp_path / "t.json"
    cli.main(base + ["--out", str(pc)])
    cli.main(base + ["--format", "json", "--out", str(pj)])
    dc = cli.read_trace(pc.read_text())
    dj = cli.read_trace(pj.read_text())
    keys = ("label", "case", "anchor", "E0", "stop_reason", "converged", "E_limit")
    assert {k: dc[k] for k in keys} == {k: dj[k] for k in keys}
    assert " " in dc["label"]


# certify failure modes


def test_corrupt_trace_fails_certification(tmp_path):
    path = tmp_path / "t.csv"
    cli.main(["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
              "--out", str(path)])
    lines = path.read_text().splitlines()
    hdr = next(i for i, l in enumerate(lines) if l.startswith("n,"))
    r2 = lines[hdr + 2].split(",")
    r3 = lines[hdr + 3].split(",")
    r2[1], r3[1] = r3[1], r2[1]
    lines[hdr + 2], lines[hdr + 3] = ",".join(r2), ",".join(r3)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", str(bad)]) == cli.EXIT_VERDICT


def test_certify_report_is_json(tmp_path, capsys):
    path = tmp_path / "t.csv"
    cli.main(["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
              "--out", str(path)])
    capsys.readouterr()
    rc, out, _err = run(["certify", str(path)], capsys)
    assert rc == cli.EXIT_OK
    report = json.loads(out)
    assert report["ok"] is True
    assert report["version"] == "certify-v1"
    assert report["worst_margin"] > 0.0
    kinds = {v["kind"] for v in report["energy_verdicts"]}
    assert kinds == {"shift_ascending"}


def test_malformed_trace_is_config_error(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not a trace\n")
    assert cli.main(["certify", str(path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "body",
    [
        b'{"version": "trace-v1", "case": "A", "rows": [{"n": 0}, {"n": 1}]}',
        b'{"version": "trace-v1", "case": "A", "rows": 3}',
        b"\xff\xfe# trace-v1 config=\n",
    ],
    ids=["row_lacks_a_column", "rows_not_a_list", "not_utf8"],
)
def test_malformed_trace_rows_exit_4_in_one_line(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    rc, out, err = run(["certify", str(path)], capsys)
    assert rc == cli.EXIT_CONFIG and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("malformed trace: ")


# exit codes


def test_tilt_out_of_range_rejected(capsys):
    rc, _out, err = run(["solve", "asym_quartic", "--g", "5", "--lam", "1.5"],
                        capsys)
    assert rc == cli.EXIT_CONFIG
    assert "tilt" in err


def test_two_level_has_no_iteration(capsys):
    rc, _out, err = run(
        ["solve", "two_level", "--e-inf", "5", "--lam", "0.3",
         "--mu-sq", "0.8"],
        capsys,
    )
    assert rc == cli.EXIT_CONFIG
    assert "twolevel" in err


@pytest.mark.parametrize(
    "g, density", [("2", "25"), ("8", "25"), ("32", "25"), ("1e6", "400")]
)
def test_nonfinite_run_has_its_own_exit_code(tmp_path, capsys, g, density):
    path = tmp_path / "t.csv"
    rc, _out, err = run(
        ["solve", "sym_quartic", "--g", g, "--grid-density", density,
         "--out", str(path)],
        capsys,
    )
    assert rc == cli.EXIT_NONFINITE
    assert err.strip().splitlines() == [
        "stopped: non-finite shift or ratio (grid too coarse for this problem?)"
    ]
    # the trace is still written, and it ends long before the cap of 64
    doc = cli.read_trace(path.read_text())
    assert doc["stop_reason"] == "nonfinite"
    assert len(doc["rows"]) - 1 <= 16


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["solve", "sym_quartic", "--g", "2", "--grid-density", "inf"],
         "density"),
        (["solve", "sym_quartic", "--g", "2", "--x-max", "inf"], "x_max"),
        (["solve", "sym_quartic", "--g", "inf"], "finite"),
        (["oracle", "sym_quartic", "--g", "2", "--grid-density", "150",
          "--levels", "0"], "levels"),
    ],
)
def test_non_finite_or_empty_flags_are_config_errors(capsys, argv, reason):
    rc, out, err = run(argv, capsys)
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error:") and reason in err


@pytest.mark.parametrize("verb", ["solve", "oracle"])
def test_grid_too_large_to_allocate_is_a_config_error(capsys, verb):
    # the 7 TiB node array fails at once, before anything is allocated
    rc, out, err = run(
        [verb, "sym_quartic", "--g", "2", "--grid-density", "1e12"], capsys
    )
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: sym_quartic cannot be built:")


def test_unconverged_half_line_stage_exits_on_its_stop_reason(tmp_path, capsys):
    path = tmp_path / "t.csv"
    rc, out, err = run(
        ["solve", "asym_quartic", "--g", "2", "--lam", "0.5",
         "--grid-density", "25", "--out", str(path)],
        capsys,
    )
    assert rc == cli.EXIT_NONFINITE
    assert err.strip().splitlines() == [
        "half-line stage 'asym_quartic+(g=2, lam=0.5)' stopped: non-finite "
        "shift or ratio (grid too coarse for this problem?)"
    ]
    assert out == "" and not path.exists()


def test_unsupported_asym_trial_is_config_error(capsys):
    rc, out, err = run(
        ["solve", "asym_quartic", "--g", "4", "--lam", "0.85"], capsys
    )
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error:") and "not monotone" in err
    # the trial's label and one plain node, not an array
    assert "asym_quartic-(g=4, lam=0.85)" in err and "x = 0\n" in err
    assert "[" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g", ["1e154", "1e300"])
@pytest.mark.parametrize(
    "problem", [["harmonic"], ["sym_quartic"], ["asym_quartic", "--lam", "0.2"]]
)
def test_coupling_beyond_float_range_is_one_line(capsys, problem, g):
    # 1e154 overflows the trials' 2 g (g - 1) but not g * g; the bound is
    # checked before any array is built
    rc, out, err = run(["solve", *problem, "--g", g], capsys)
    assert rc == cli.EXIT_CONFIG and out == ""
    assert err == f"config error: {problem[0]}: g must be <= 1e+150\n"


# Parameter boxes of the engine's problems; the square well's mu is drawn
# as a fraction of W.
_BOXES = {
    "harmonic": {"g": (0.05, 100.0)},
    "sym_quartic": {"g": (1.0, 40.0)},
    "asym_quartic": {"g": (2.0, 20.0), "lam": (0.0, 0.95)},
    "squarewell": {
        "w": (1.0, 8.0), "mu": (0.0, 1.0), "alpha": (0.5, 8.0), "beta": (0.5, 8.0)
    },
}


@st.composite
def _solve_argv(draw):
    problem = draw(st.sampled_from(sorted(_BOXES)))
    p = {
        k: draw(st.floats(lo, hi, exclude_max=True))
        for k, (lo, hi) in _BOXES[problem].items()
    }
    if problem == "squarewell":
        p["mu"] *= p["w"]
    density = draw(st.sampled_from([25, 50, 100, 200, 400]))
    case = draw(st.sampled_from("AB"))
    flags = [t for k, v in p.items() for t in (f"--{k}", repr(v))]
    return ["solve", problem, *flags, "--grid-density", str(density), "--case", case]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(argv=_solve_argv())
def test_every_solve_ends_in_one_documented_line(argv):
    # certified or a documented exit, each with one stderr line
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    assert 0 <= rc <= 6
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert "Traceback" not in lines[0] and "RuntimeWarning" not in lines[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(argv=_solve_argv())
def test_every_written_trace_reads_back_whole(argv):
    # however the run ends, the trace it writes (to stdout, here) keeps the
    # run's full label and certifies at file level without raising
    out = io.StringIO()
    with (
        mock.patch.object(cli, "write_trace", wraps=cli.write_trace) as spy,
        redirect_stdout(out),
        redirect_stderr(io.StringIO()),
    ):
        cli.main(argv)
    if not spy.called:
        return
    doc = cli.read_trace(out.getvalue())
    assert doc["label"] == spy.call_args.args[0].label
    assert cli.certify_trace_file(doc)["case"] == doc["case"]


@pytest.mark.parametrize("case", ["A", "B"])
@pytest.mark.parametrize(
    "params, step",
    [
        (["asym_quartic", "--g", "4", "--lam", "0.2"], True),
        (["asym_quartic", "--g", "4", "--lam", "0"], False),
        (["squarewell", "--w", "3", "--mu", "0.7", "--alpha", "1", "--beta", "2"],
         True),
        (["squarewell", "--w", "3", "--mu", "0", "--alpha", "1", "--beta", "2"],
         False),
    ],
)
def test_full_line_case_names_the_anchor(capsys, params, step, case):
    # Case A anchors the step-free (right) edge, Case B the step's (left)
    # one; without a step the run is Case A at the edge the case names
    _rc, out, _err = run(["solve", *params, "--case", case,
                          "--grid-density", "200"], capsys)
    head = " ".join(out.splitlines()[1:3])
    if case == "A":
        want = "case=A anchor=right", "stop_reason=tolerance"
    elif step:
        want = "case=B anchor=left", "stop_reason=positivity_violation"
    else:
        want = "case=A anchor=left", "stop_reason=tolerance"
    assert all(w in head for w in want), head


@pytest.mark.parametrize(
    "params",
    [
        # the two half-line limits differ by one ulp: 4e-16 at E ~ 3.2 and
        # 1.8e-15 at E ~ 11.7; gluing them made a step of that height
        ["--g", "3.637245693217454", "--grid-density", "25"],
        ["--g", "11.980322819064323", "--grid-density", "100"],
        ["--g", "11.980322819064323", "--grid-density", "100", "--case", "B"],
        ["--g", "4", "--grid-density", "400"],
    ],
)
def test_zero_tilt_glues_no_roundoff_step(tmp_path, capsys, params):
    # a gap of a few ulps between the half-line energies is no step, so
    # every lam = 0 run takes the zero-step path: one iteration, certified
    path = tmp_path / "t.csv"
    rc, _out, err = run(
        ["solve", "asym_quartic", "--lam", "0", *params, "--out", str(path)], capsys
    )
    assert rc == cli.EXIT_OK, err
    assert "after 1 iterations; certified ok" in err
    head = " ".join(path.read_text().splitlines()[1:3])
    g = f"g={float(params[1]):g}"
    assert f"glued(asym_quartic+({g}, lam=0), asym_quartic-({g}, lam=0))" in head
    assert "case=A" in head and "stop_reason=tolerance" in head


def test_oracle_eigensolve_failure_has_its_own_exit_code(capsys):
    # lam = 0 leaves the full-line g=30 double well symmetric: its even and
    # odd levels agree to roundoff, so no Sturm count isolates the ground
    # state and the certificate refuses it
    rc, out, err = run(["oracle", "asym_quartic", "--g", "30", "--lam", "0"],
                       capsys)
    assert rc == cli.EXIT_EIGENSOLVE
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("oracle error: Sturm counts")


@pytest.mark.parametrize("g", [25.0, 30.0, 40.0])
def test_oracle_solves_deep_even_double_wells(capsys, g):
    # the even sector has no near-degenerate partner, however deep the wells
    rc, out, err = run(
        ["oracle", "sym_quartic", "--g", str(g), "--format", "json"], capsys
    )
    assert rc == cli.EXIT_OK, err
    trial = build_symmetric_quartic_trial(g, quartic_grid(g, 400.0))
    engine = iterate(trial, "A")
    assert engine.converged
    assert abs(json.loads(out)["E_ground"] - engine.E_limit) < 1e-5


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "sym_quartic", "--g", "2", "--x-max", "0.5"],
        ["solve", "harmonic", "--g", "1e-300"],
        ["oracle", "harmonic", "--g", "1e-300"],
        ["solve", "sym_quartic", "--g", "1e300"],
        ["oracle", "sym_quartic", "--g", "1e300"],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_builds_the_grid_cannot_hold_are_config_errors(capsys, argv):
    # the grid, trial or potential build rejects these; none may escape
    # as a traceback with the verdict-failed exit code
    rc, out, err = run(argv, capsys)
    assert rc == cli.EXIT_CONFIG
    assert out == "" and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error:")


def test_grid_ending_at_the_well_still_solves(capsys):
    # x = 1 is the last node: the trial's breakpoint is still on the grid
    rc, _out, err = run(
        ["solve", "sym_quartic", "--g", "2", "--x-max", "1.0",
         "--grid-density", "150"],
        capsys,
    )
    assert rc == cli.EXIT_OK, err
    # the oracle needs no trial, so a grid short of the well stays valid
    rc, _out, err = run(
        ["oracle", "sym_quartic", "--g", "2", "--x-max", "0.5", "--levels", "1"],
        capsys,
    )
    assert rc == cli.EXIT_OK, err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["solve", "sym_quartic", "--g", "2", "--lam", "0.5", "--w", "3",
          "--e-inf", "9"], ["--lam", "--w", "--e-inf"]),
        (["oracle", "harmonic", "--g", "2", "--lam", "0.5", "--mu", "0.3"],
         ["--lam", "--mu"]),
        (["solve", "asym_quartic", "--g", "5", "--lam", "0.2", "--mu-sq", "1"],
         ["--mu-sq"]),
        (["oracle", "squarewell", "--w", "3", "--mu", "0.7", "--alpha", "1",
          "--beta", "2", "--g", "2"], ["--g"]),
    ],
)
def test_other_problems_parameter_flags_are_config_errors(capsys, argv, flags):
    rc, out, err = run(argv, capsys)
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert all(f in lines[0] for f in flags)


_README_WELL = ["--w", "3", "--mu", "0.7071067811865476", "--alpha", "1",
                "--beta", "2"]
_TWO_LEVEL = ["--e-inf", "5", "--lam", "0.3", "--mu-sq", "0.8"]


@pytest.mark.parametrize(
    "argv",
    [
        ["squarewell", *_README_WELL, "--x-max", "0.2"],
        ["oracle", "sym_quartic", "--g", "2", "--case", "B"],
        ["oracle", "sym_quartic", "--g", "2", "--max-iter", "3"],
        ["oracle", "sym_quartic", "--g", "2", "--tol-e", "1e-3"],
        ["oracle", "sym_quartic", "--g", "2", "--tol-f", "1e-3"],
        ["twolevel", *_TWO_LEVEL, "--case", "A"],
        ["twolevel", *_TWO_LEVEL, "--grid-density", "100"],
        ["twolevel", *_TWO_LEVEL, "--x-max", "3"],
        ["twolevel", *_TWO_LEVEL, "--max-iter", "3"],
        ["twolevel", *_TWO_LEVEL, "--tol-e", "1e-3"],
        ["twolevel", *_TWO_LEVEL, "--tol-f", "1e-3"],
    ],
)
def test_flags_a_verb_does_not_use_are_refused(capsys, argv):
    rc, out, err = run(argv, capsys)
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    assert "unrecognized arguments: " + argv[-2] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "squarewell", *_README_WELL, "--x-max", "0.2"],
        ["oracle", "squarewell", *_README_WELL, "--x-max", "1"],
    ],
)
def test_square_well_refuses_x_max(capsys, argv):
    rc, out, err = run(argv, capsys)
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "x_max" in lines[0]


def test_squarewell_verb_runs_case_b_like_solve(tmp_path, capsys):
    # the step-anchored run on the README well trips the positivity guard,
    # in the squarewell verb exactly as in solve squarewell
    report_path, trace_path = tmp_path / "sw.json", tmp_path / "t.csv"
    flags = [*_README_WELL, "--case", "B", "--grid-density", "200"]
    rc, _out, err = run(
        ["squarewell", *flags, "--format", "json", "--out", str(report_path)],
        capsys,
    )
    assert rc == cli.EXIT_POSITIVITY
    assert "positivity" in err
    report = json.loads(report_path.read_text())
    assert report["engine_stop_reason"] == "positivity_violation"
    rc, _out, _err = run(["solve", "squarewell", *flags, "--out", str(trace_path)],
                         capsys)
    assert rc == cli.EXIT_POSITIVITY
    doc = cli.read_trace(trace_path.read_text())
    assert report["config_hash"] == doc["config_hash"]
    assert report["engine_iterations"] == len(doc["rows"]) - 1
    assert report["E_engine"] == doc["rows"][-1]["energy"]


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["twolevel", *_TWO_LEVEL, "--format", "json"],
         cli.ExperimentConfig("two_level",
                              {"E_inf": 5.0, "lam": 0.3, "mu_sq": 0.8})),
        (["oracle", "sym_quartic", "--g", "2", "--levels", "1",
          "--format", "json"],
         cli.ExperimentConfig("sym_quartic", {"g": 2.0})),
        (["squarewell", *_README_WELL, "--grid-density", "100", "--format",
          "json"],
         cli.ExperimentConfig(
             "squarewell",
             {"W": 3.0, "mu": 0.7071067811865476, "alpha": 1.0, "beta": 2.0},
             grid=cli.GridSpec(density=100.0),
         )),
    ],
)
def test_reports_hash_the_defaults_of_flags_a_verb_lacks(capsys, argv, cfg):
    rc, out, _err = run(argv, capsys)
    assert rc == cli.EXIT_OK
    assert json.loads(out)["config_hash"] == cli.config_hash(cfg)


# E and E_od of this deep-tunneling well meet in floating point
_UNRESOLVED_SPLIT = [
    "--w", "19.962159061873606", "--mu", "0.17050836184484658",
    "--alpha", "0.967217231233825", "--beta", "1.016509216694109",
    "--grid-density", "50",
]


@pytest.mark.parametrize(
    "verb", [["squarewell"], ["solve", "squarewell"], ["oracle", "squarewell"]]
)
def test_unresolved_tunneling_split_is_config_error(capsys, verb):
    rc, out, err = run(verb + _UNRESOLVED_SPLIT, capsys)
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert "ground energy must sit below the odd state" in lines[0]


_SCIPY_PROBE = """
import json, sys
from wellsolver import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": loaded()}
trace, sweep, outdir = sys.argv[1:4]
assert cli.main(["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
                 "--out", trace]) == 0
assert cli.main(["certify", trace, "--out", trace + ".json"]) == 0
assert cli.main(["sweep", "--config", sweep, "--outdir", outdir]) == 0
seen["engine"] = loaded()
assert cli.main(["squarewell", "--w", "3", "--mu", "0.7", "--alpha", "1",
                 "--beta", "2", "--grid-density", "100",
                 "--out", outdir + "/sq.txt"]) == 0
seen["squarewell"] = loaded()
assert cli.main(["oracle", "sym_quartic", "--g", "2", "--grid-density", "100",
                 "--out", outdir + "/oracle.txt"]) == 0
seen["oracle"] = loaded()
print(json.dumps(seen))
"""


def _probe(code, *args):
    """Run ``code`` in a fresh interpreter on this package; its stdout as JSON."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_engine_verbs_never_load_scipy(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(sweep_doc(sweep={"params.g": [2.0]})))
    seen = _probe(_SCIPY_PROBE, tmp_path / "t.csv", sweep, tmp_path / "out")
    # no verb loads scipy: the oracle's eigensolver is pure Python
    assert seen == {"import": [], "engine": [], "squarewell": [], "oracle": []}


_FOOTPRINT_PROBE = """
import json, sys
from wellsolver import cli

WATCHED = ("numpy", "fractions", "wellsolver.hierarchy", "wellsolver.oracle",
           "wellsolver.squarewell")

def loaded():
    return [m for m in WATCHED if m in sys.modules]

trace, sweep, outdir = sys.argv[1:4]
seen = {"import": loaded()}
assert cli.main(["certify", trace, "--out", outdir + "/c.json"]) == 0
seen["certify"] = loaded()
assert cli.main(["certify", outdir + "/missing.csv"]) == 4
seen["certify_missing"] = loaded()
assert cli.main(["certify", outdir + "/junk.csv"]) == 4
seen["certify_malformed"] = loaded()
assert cli.main(["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
                 "--out", outdir + "/t.csv"]) == 0
assert cli.main(["sweep", "--config", sweep, "--outdir", outdir]) == 0
seen["sym_quartic"] = loaded()
assert cli.main(["squarewell", "--w", "3", "--mu", "0.7", "--alpha", "1",
                 "--beta", "2", "--grid-density", "100",
                 "--out", outdir + "/sq.txt"]) == 0
seen["squarewell"] = loaded()
print(json.dumps(seen))
"""


def test_cold_verbs_load_only_what_they_run(tmp_path, capsys):
    trace, outdir = tmp_path / "t.csv", tmp_path / "out"
    assert cli.main(["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
                     "--out", str(trace)]) == cli.EXIT_OK
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(sweep_doc(sweep={"params.g": [2.0, 3.0]})))
    outdir.mkdir()
    (outdir / "junk.csv").write_text("not a trace\n")
    seen = _probe(_FOOTPRINT_PROBE, trace, sweep, outdir)
    assert seen == {
        # certify runs on the standard library and wellsolver.ordering
        "import": [],
        "certify": [],
        # and mapping its failures to exit codes imports nothing more
        "certify_missing": [],
        "certify_malformed": [],
        # the sym_quartic engine needs grid, trialgen and hierarchy only
        "sym_quartic": ["numpy", "wellsolver.hierarchy"],
        "squarewell": ["numpy", "fractions", "wellsolver.hierarchy",
                       "wellsolver.oracle", "wellsolver.squarewell"],
    }


def test_package_names_are_their_home_modules_objects():
    import importlib

    import wellsolver as ws

    for name in ws.__all__[1:]:
        obj = getattr(ws, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("wellsolver."), name
        assert getattr(home, name) is obj, name
    assert ws.iterate is ws.hierarchy.iterate
    moved = ("IterateOptions", "PairVerdict", "certify_shift_sequence")
    assert all(getattr(ws.hierarchy, n) is getattr(ws.ordering, n) for n in moved)
    assert set(ws.__all__) <= set(dir(ws))
    with pytest.raises(AttributeError):
        ws.no_such_name


def test_unexpected_exception_exits_internal(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("two\nlines")

    monkeypatch.setattr(cli, "cmd_certify", broken)
    rc, out, err = run(["certify", "any.csv"], capsys)
    assert rc == cli.EXIT_INTERNAL == 7
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: two lines"]


_REPORTS = {
    "squarewell": ["squarewell", "--w", "3", "--mu", "0.7", "--alpha", "1",
                   "--beta", "2", "--grid-density", "100"],
    "oracle": ["oracle", "sym_quartic", "--g", "2", "--grid-density", "100"],
    "twolevel": ["twolevel", "--e-inf", "1.5", "--lam", "0.01",
                 "--mu-sq", "0.5"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("verb", sorted(_REPORTS))
def test_report_to_a_missing_directory_is_an_io_error(tmp_path, capsys, verb, fmt):
    out = tmp_path / "missing" / "report"
    rc, stdout, err = run(
        [*_REPORTS[verb], "--format", fmt, "--out", str(out)], capsys
    )
    assert rc == cli.EXIT_CONFIG
    assert stdout == ""
    assert err.splitlines() == [
        f"i/o error: [Errno 2] No such file or directory: '{out}'"
    ]


def test_sweep_manifest_that_cannot_be_written_is_an_io_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_doc()))
    outdir = tmp_path / "out"
    (outdir / "manifest.json").mkdir(parents=True)
    rc, stdout, err = run(
        ["sweep", "--config", str(cfg), "--outdir", str(outdir)], capsys
    )
    assert rc == cli.EXIT_CONFIG
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:")
    assert "manifest.json" in lines[0]


def test_two_level_model_refusal_is_a_config_error(capsys):
    # lam * lam overflows, and the model refuses the energies it gets
    rc, out, err = run(
        ["twolevel", "--e-inf", "1", "--lam", "1e200", "--mu-sq", "0"], capsys
    )
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    assert err.splitlines() == [
        "config error: positive offset cannot pull the ground state below "
        "the zero-offset eigenvalue"
    ]


def test_unknown_verb_is_config_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_iteration_cap_exit_code(tmp_path):
    rc = cli.main(
        ["solve", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--max-iter", "2", "--tol-e", "1e-12"]
    )
    assert rc == cli.EXIT_MAX_ITER


# reporting verbs


def test_oracle_verb_prints_estimate(capsys):
    rc, out, _err = run(
        ["oracle", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--levels", "2"],
        capsys,
    )
    assert rc == cli.EXIT_OK
    value = float(out.splitlines()[0].split("=")[-1].strip()
                  if "=" in out.splitlines()[0]
                  else out.splitlines()[0].split()[-1])
    assert value == pytest.approx(1.40095727, abs=1e-5)


def test_oracle_single_level_has_no_richardson_lines(capsys):
    rc, out, _err = run(
        ["oracle", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--levels", "1"],
        capsys,
    )
    assert rc == cli.EXIT_OK
    lines = out.splitlines()
    energy = float(lines[0].split(":")[1])
    assert lines[1].split()[-1] == lines[0].split()[-1]
    assert len(lines) == 2 and "Richardson" not in out
    # the raw eigenvalue at this density is within 1e-3 of the limit
    assert energy == pytest.approx(1.40095727, abs=1e-3)
    rc, out, _err = run(
        ["oracle", "sym_quartic", "--g", "2", "--grid-density", "150",
         "--levels", "1", "--format", "json"],
        capsys,
    )
    doc = json.loads(out)
    assert rc == cli.EXIT_OK
    assert doc["error_estimate"] is None
    assert [lv["E"] for lv in doc["levels"]] == [doc["E_ground"]]


def test_squarewell_verb_exit_code_follows_engine_stop(tmp_path, capsys):
    path = tmp_path / "sw.json"
    rc, _out, err = run(
        ["squarewell", "--w", "3", "--mu", "0.7071067811865476",
         "--alpha", "1", "--beta", "2", "--grid-density", "200",
         "--max-iter", "2", "--format", "json", "--out", str(path)],
        capsys,
    )
    assert rc == cli.EXIT_MAX_ITER
    assert "iteration cap" in err
    # the report is written all the same
    report = json.loads(path.read_text())
    assert report["engine_stop_reason"] == "max_iter"
    assert report["engine_iterations"] == 2


def test_squarewell_verb_compares_routes(capsys):
    rc, out, _err = run(
        ["squarewell", "--w", "3", "--mu", "0.7071067811865476",
         "--alpha", "1", "--beta", "2", "--grid-density", "200"],
        capsys,
    )
    assert rc == cli.EXIT_OK
    for route in ("transcendental", "engine", "oracle", "two-level",
                  "overlap ratio"):
        assert route in out
    assert "double_peak" in out
    # every comparison column stays tight except the two-level reduction
    diffs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in {"engine", "oracle"}:
            diffs.append(abs(float(parts[-1])))
    assert diffs and max(diffs) < 1e-6


def test_twolevel_verb_reports_shift(capsys):
    rc, out, _err = run(
        ["twolevel", "--e-inf", "5", "--lam", "0.3", "--mu-sq", "0.8"],
        capsys,
    )
    assert rc == cli.EXIT_OK
    fields = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.rpartition("=")
            try:
                fields[key.strip()] = float(val)
            except ValueError:
                pass
    e = fields["ground energy  E"]
    shift = fields["shift below E_inf"]
    assert e == pytest.approx(5.0 - shift, abs=1e-12)
    assert 0.0 < shift < 0.3 + 0.8 / 2


# sweep


def sweep_doc(**over):
    doc = {
        "version": cli.SWEEP_VERSION,
        "base": {
            "problem": "sym_quartic",
            "params": {"g": 2.0},
            "case": "A",
            "grid": {"density": 150.0},
        },
        "sweep": {"params.g": [1.0, 2.0]},
    }
    doc.update(over)
    return doc


def test_sweep_writes_manifest_and_points(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_doc()))
    outdir = tmp_path / "out"
    rc, _out, err = run(["sweep", "--config", str(cfg), "--outdir", str(outdir)],
                        capsys)
    assert rc == cli.EXIT_OK
    assert "2 converged, 0 failed" in err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["version"] == cli.SWEEP_VERSION
    assert manifest["n_points"] == 2
    hashes = set()
    for point in manifest["points"]:
        assert point["converged"] is True
        assert point["status"] == "tolerance"
        hashes.add(point["config_hash"])
        trace_path = outdir / point["path"]
        assert trace_path.exists()
        doc = cli.read_trace(trace_path.read_text())
        assert doc["config_hash"] == point["config_hash"]
        assert doc["E_limit"] == pytest.approx(point["E_limit"], abs=0.0)
    assert len(hashes) == 2
    es = [p["E_limit"] for p in manifest["points"]]
    assert es[0] < es[1]  # ground energy grows with coupling


def test_sweep_empty_axis(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_doc(sweep={"params.g": []})))
    outdir = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg),
                     "--outdir", str(outdir)]) == cli.EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["n_points"] == 0
    assert manifest["points"] == []


def test_sweep_partial_failure(tmp_path, capsys):
    doc = sweep_doc(
        base={
            "problem": "asym_quartic",
            "params": {"g": 5.0, "lam": 0.2},
            "case": "A",
            "grid": {"density": 150.0},
        },
        sweep={"params.lam": [0.1, 1.5]},
    )
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    rc, _out, err = run(["sweep", "--config", str(cfg), "--outdir", str(outdir)],
                        capsys)
    assert rc == cli.EXIT_VERDICT
    assert "1 failed" in err
    manifest = json.loads((outdir / "manifest.json").read_text())
    statuses = [p["status"] for p in manifest["points"]]
    assert statuses.count("error") == 1
    failed = next(p for p in manifest["points"] if p["status"] == "error")
    assert "tilt" in failed["error"]


def test_sweep_refuses_square_well_x_max(tmp_path, capsys):
    doc = sweep_doc(
        base={
            "problem": "squarewell",
            "params": {"W": 3.0, "mu": 0.5, "alpha": 1.0, "beta": 2.0},
            "grid": {"density": 100.0},
        },
        sweep={"grid.x_max": [None, 0.2]},
    )
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    rc, _out, err = run(["sweep", "--config", str(cfg), "--outdir", str(outdir)],
                        capsys)
    assert rc == cli.EXIT_VERDICT
    assert "1 converged, 1 failed" in err
    points = json.loads((outdir / "manifest.json").read_text())["points"]
    assert [p["status"] for p in points] == ["tolerance", "error"]
    assert "x_max" in points[1]["error"]


@pytest.mark.parametrize(
    "typo, key",
    [
        ({"engine": {"maxiter": 1}}, "'maxiter'"),
        ({"grid": {"densty": 50}}, "'densty'"),
        ({"cas": "B"}, "'cas'"),
    ],
)
def test_sweep_refuses_misspelled_keys(tmp_path, capsys, typo, key):
    doc = sweep_doc()
    doc["base"].update(typo)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    outdir = tmp_path / "out"
    rc, _out, err = run(["sweep", "--config", str(cfg), "--outdir", str(outdir)],
                        capsys)
    assert rc == cli.EXIT_VERDICT
    assert "0 converged, 2 failed" in err
    points = json.loads((outdir / "manifest.json").read_text())["points"]
    assert [p["status"] for p in points] == ["error", "error"]
    for point in points:
        assert key in point["error"] and len(point["error"].splitlines()) == 1
    assert not list(outdir.glob("point_*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_point_overflow_is_recorded_not_raised(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_doc(sweep={"params.g": [2.0, 1e300]})))
    outdir = tmp_path / "out"
    rc, _out, err = run(["sweep", "--config", str(cfg), "--outdir", str(outdir)],
                        capsys)
    assert rc == cli.EXIT_VERDICT
    assert "1 converged, 1 failed" in err


@pytest.mark.parametrize("body", [b"[1, 2]", b"\xff\xfe{}"])
def test_sweep_config_that_is_no_json_object_is_a_config_error(
    tmp_path, capsys, body
):
    cfg = tmp_path / "sweep.json"
    cfg.write_bytes(body)
    rc, out, err = run(
        ["sweep", "--config", str(cfg), "--outdir", str(tmp_path / "out")],
        capsys,
    )
    assert rc == cli.EXIT_CONFIG
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_sweep_missing_config_file(tmp_path):
    rc = cli.main(["sweep", "--config", str(tmp_path / "nope.json"),
                   "--outdir", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG


# config hashing


def test_config_hash_ignores_param_order():
    a = cli.ExperimentConfig("asym_quartic", {"g": 5.0, "lam": 0.2})
    b = cli.ExperimentConfig("asym_quartic", {"lam": 0.2, "g": 5.0})
    assert cli.config_hash(a) == cli.config_hash(b)
    assert len(cli.config_hash(a)) == 64


def test_config_hash_separates_cases():
    a = cli.ExperimentConfig("sym_quartic", {"g": 2.0}, case="A")
    b = cli.ExperimentConfig("sym_quartic", {"g": 2.0}, case="B")
    assert cli.config_hash(a) != cli.config_hash(b)


def test_validate_config_rejects_unknown_problem():
    cfg = cli.ExperimentConfig("cubic", {"g": 1.0})
    with pytest.raises(cli.ConfigError):
        cli.validate_config(cfg)
