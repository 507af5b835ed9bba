"""Print a sha256 digest of every output of a fixed set of CLI runs.

Each command line runs in-process through ``wellsolver.cli.main`` inside
a temporary directory. One line is printed per output: the digest, then
a label. A run's console output (exit code, stdout and stderr, with the
temporary directory's path masked) is one output, and every file it
writes is another. Two checkouts whose outputs agree byte for byte print
identical lines, so diffing this script's output before and after a
change shows whether any output byte moved. The failing command lines
come last: each should end in one stderr line and its documented exit
code.

Usage:
    PYTHONPATH=src python scripts/output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from wellsolver import cli

README_WELL = ["--w", "3", "--mu", "0.7071067811865476", "--alpha", "1",
               "--beta", "2"]

# (name of the output file, command line); "--out <output path>" is
# appended to each command line
SOLVES = [
    ("harmonic.csv", ["solve", "harmonic", "--g", "2"]),
    ("sym_a_100.csv", ["solve", "sym_quartic", "--g", "2",
                       "--grid-density", "100"]),
    ("sym_a_400.csv", ["solve", "sym_quartic", "--g", "6"]),
    ("sym_a_1600.json", ["solve", "sym_quartic", "--g", "20",
                         "--grid-density", "1600", "--format", "json"]),
    ("sym_b_400.csv", ["solve", "sym_quartic", "--g", "3", "--case", "B"]),
    ("asym_lam0.csv", ["solve", "asym_quartic", "--g", "4", "--lam", "0"]),
    ("asym_lam03.json", ["solve", "asym_quartic", "--g", "4", "--lam", "0.3",
                         "--format", "json"]),
    ("squarewell.csv", ["solve", "squarewell", *README_WELL,
                        "--grid-density", "200"]),
]

REPORTS = [
    ("sw.txt", ["squarewell", *README_WELL, "--grid-density", "100"]),
    ("sw.json", ["squarewell", *README_WELL, "--grid-density", "100",
                 "--format", "json"]),
    ("oracle_sym.txt", ["oracle", "sym_quartic", "--g", "2",
                        "--grid-density", "100"]),
    ("oracle_sym.json", ["oracle", "sym_quartic", "--g", "2",
                         "--grid-density", "100", "--format", "json"]),
    ("oracle_asym.txt", ["oracle", "asym_quartic", "--g", "4", "--lam", "0.3",
                         "--grid-density", "100"]),
    ("oracle_asym.json", ["oracle", "asym_quartic", "--g", "4", "--lam", "0.3",
                          "--grid-density", "100", "--format", "json"]),
    ("oracle_sw.json", ["oracle", "squarewell", *README_WELL,
                        "--grid-density", "100", "--format", "json"]),
    ("twolevel.txt", ["twolevel", "--e-inf", "1.5", "--lam", "0.01",
                      "--mu-sq", "0.5"]),
    ("twolevel.json", ["twolevel", "--e-inf", "1.5", "--lam", "0.01",
                       "--mu-sq", "0.5", "--format", "json"]),
]

SWEEPS = {
    "sym_g": {
        "version": cli.SWEEP_VERSION,
        "base": {"problem": "sym_quartic", "params": {"g": 2.0},
                 "grid": {"density": 200.0}},
        "sweep": {"params.g": [1.0, 2.0, 4.0, 8.0]},
    },
    "sw_mu": {
        "version": cli.SWEEP_VERSION,
        "base": {"problem": "squarewell",
                 "params": {"W": 3.0, "mu": 0.7071067811865476,
                            "alpha": 1.0, "beta": 2.0},
                 "grid": {"density": 100.0}},
        "sweep": {"params.mu": [0.0, 0.3, 0.7071067811865476, 1.2]},
    },
}


# Trace files that are not a solve product: junk, a JSON row without a
# column, JSON rows that are not a list, and bytes that are not UTF-8.
BAD_TRACES = {
    "malformed.csv": b"not a trace\n",
    "row_lacks_a_column.json":
        b'{"version": "trace-v1", "case": "A", "rows": [{"n": 0}, {"n": 1}]}',
    "rows_not_a_list.json": b'{"version": "trace-v1", "case": "A", "rows": 3}',
    "not_utf8.csv": b"\xff\xfe# trace-v1 config=\n",
}

# (name of the output to digest if it appears, or None; command line);
# "{dir}" is replaced by the temporary directory. The first five are one
# configuration error per verb but certify; then a missing trace and the
# BAD_TRACES, an eigensolve failure (exit 6), an unconverged half-line stage
# (exit 5), a grid too large to allocate and an unsupported tilt (exit 4),
# two unusable sweep configs, and an output that cannot be written for
# every verb.
SQUAREWELL = ["squarewell", *README_WELL, "--grid-density", "100"]
ORACLE = ["oracle", "sym_quartic", "--g", "2", "--grid-density", "100"]
TWOLEVEL = ["twolevel", "--e-inf", "1.5", "--lam", "0.01", "--mu-sq", "0.5"]
FAILURES = [
    (None, ["solve", "sym_quartic", "--g", "0.5"]),
    (None, ["squarewell", "--w", "3", "--mu", "4", "--alpha", "1",
            "--beta", "2"]),
    (None, ["twolevel", "--e-inf", "1", "--lam", "1e200", "--mu-sq", "0"]),
    (None, ["oracle", "sym_quartic", "--g", "2", "--levels", "0"]),
    ("bad_base", ["sweep", "--config", "{dir}/bad_base.json",
                  "--outdir", "{dir}/bad_base"]),
    (None, ["certify", "{dir}/missing.csv"]),
    *((None, ["certify", f"{{dir}}/{name}"]) for name in BAD_TRACES),
    (None, ["oracle", "asym_quartic", "--g", "30", "--lam", "0",
            "--grid-density", "100"]),
    (None, ["solve", "asym_quartic", "--g", "2", "--lam", "0.5",
            "--grid-density", "25"]),
    (None, ["solve", "sym_quartic", "--g", "2", "--grid-density", "1e12"]),
    (None, ["solve", "asym_quartic", "--g", "4", "--lam", "0.85"]),
    ("bad_version", ["sweep", "--config", "{dir}/bad_version.json",
                     "--outdir", "{dir}/bad_version"]),
    ("no_config", ["sweep", "--config", "{dir}/missing.json",
                   "--outdir", "{dir}/no_config"]),
    (None, ["solve", "sym_quartic", "--g", "2", "--out", "{dir}/missing/t.csv"]),
    (None, ["certify", "{dir}/harmonic.csv", "--out", "{dir}/missing/c.json"]),
    (None, [*SQUAREWELL, "--out", "{dir}/missing/sw.txt"]),
    (None, [*SQUAREWELL, "--format", "json", "--out", "{dir}/missing/sw.json"]),
    (None, [*ORACLE, "--out", "{dir}/missing/o.txt"]),
    (None, [*ORACLE, "--format", "json", "--out", "{dir}/missing/o.json"]),
    (None, [*TWOLEVEL, "--out", "{dir}/missing/tl.txt"]),
    (None, [*TWOLEVEL, "--format", "json", "--out", "{dir}/missing/tl.json"]),
    (None, ["sweep", "--config", "{dir}/sym_g.json",
            "--outdir", "{dir}/malformed.csv"]),
    # the point files are written, then the manifest, a directory, is not
    ("manifest_dir", ["sweep", "--config", "{dir}/sym_g.json",
                      "--outdir", "{dir}/manifest_dir"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], tmp: Path) -> str:
    """Run one command line; the digest of its exit code and console."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    console = f"exit={code}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}"
    return _sha(console.replace(str(tmp), "<tmp>").encode())


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        runs = []
        for fname, argv in SOLVES + REPORTS:
            runs.append((fname, [*argv, "--out", str(tmp / fname)]))
        for fname, _argv in SOLVES:
            cert = f"certify_{Path(fname).stem}.json"
            runs.append((cert, ["certify", str(tmp / fname),
                                "--out", str(tmp / cert)]))
        for sweep, doc in SWEEPS.items():
            config = tmp / f"{sweep}.json"
            config.write_text(json.dumps(doc))
            runs.append((sweep, ["sweep", "--config", str(config),
                                 "--outdir", str(tmp / sweep)]))
        for name, body in BAD_TRACES.items():
            (tmp / name).write_bytes(body)
        for sweep, doc in (
            ("bad_version", {**SWEEPS["sym_g"], "version": "sweep-v0"}),
            ("bad_base", {**SWEEPS["sym_g"], "base": ["sym_quartic"]}),
        ):
            (tmp / f"{sweep}.json").write_text(json.dumps(doc))
        (tmp / "manifest_dir" / "manifest.json").mkdir(parents=True)
        for fname, argv in FAILURES:
            argv = [a.replace("{dir}", str(tmp)) for a in argv]
            runs.append((fname, argv))
        for fname, argv in runs:
            label = " ".join(argv).replace(str(tmp), "<tmp>")
            lines.append(f"{_run(argv, tmp)}  console of {label}")
            if fname is None:
                continue
            written = tmp / fname
            files = sorted(written.iterdir()) if written.is_dir() else [written]
            for path in files:
                if path.is_file():
                    rel = path.relative_to(tmp)
                    lines.append(f"{_sha(path.read_bytes())}  {rel}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
