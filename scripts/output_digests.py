"""Print a sha256 digest of every output of a fixed set of CLI runs.

Each command line runs in-process through ``wellsolver.cli.main`` inside
a temporary directory. One line is printed per output: the digest, then
a label. A run's console output (exit code, stdout and stderr, with the
temporary directory's path masked) is one output, and every file it
writes is another. Two checkouts whose outputs agree byte for byte print
identical lines, so diffing this script's output before and after a
change shows whether any output byte moved.

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

# (name of the output file or None, command line); "{out}" is replaced by
# the output path, "{dir}" by the temporary directory
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
        for fname, argv in runs:
            label = " ".join(argv).replace(str(tmp), "<tmp>")
            lines.append(f"{_run(argv, tmp)}  console of {label}")
            written = tmp / fname
            files = sorted(written.iterdir()) if written.is_dir() else [written]
            for path in files:
                if path.exists():
                    rel = path.relative_to(tmp)
                    lines.append(f"{_sha(path.read_bytes())}  {rel}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
