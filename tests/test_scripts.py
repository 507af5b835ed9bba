"""The demo scripts run end to end with their defaults.

They call the public API directly, so a renamed or removed entry point
shows up here rather than in a user's terminal. ``output_digests.py``
must also print the digests pinned in ``tests/data/output_digests.txt``:
a change that moves an output byte regenerates that file and names the
moved labels.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PINNED_DIGESTS = ROOT / "tests" / "data" / "output_digests.txt"


@functools.lru_cache(maxsize=None)
def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_every_script_is_collected():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_runs_with_defaults(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr


def _by_label(text: str) -> dict[str, str]:
    """Label -> digest of each ``<digest>  <label>`` line."""
    return {
        label: digest
        for digest, label in (line.split("  ", 1) for line in text.splitlines())
    }


def test_output_digests_match_the_pinned_file():
    proc = _run(ROOT / "scripts" / "output_digests.py")
    assert proc.returncode == 0, proc.stderr
    got = _by_label(proc.stdout)
    pinned = _by_label(PINNED_DIGESTS.read_text())
    moved = [label for label in pinned if got.get(label) != pinned[label]]
    moved += [label for label in got if label not in pinned]
    assert not moved, (
        "outputs moved; if that is intended, regenerate with "
        "`PYTHONPATH=src python scripts/output_digests.py > "
        "tests/data/output_digests.txt` and list these labels in CHANGES.md:\n"
        + "\n".join(moved)
    )
