"""Self-tests of the benchmark: ``python3 -m pytest bench/test_bench.py``.

They check that a seed fixes the inputs, the failures found in them and
the bytes of every trace written, and that a short run prints every
metric ``BENCHMARK.json`` names, with its unit, for every workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _blocks(workload, n):
    return [workload.block() for _ in range(n)]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    make = wl.WORKLOADS[name]
    assert _blocks(make(7), 3) == _blocks(make(7), 3)
    assert _blocks(make(7), 3) != _blocks(make(8), 3)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_fixes_failures_and_trace_digest(name, monkeypatch):
    for key, value in run.child_env().items():
        monkeypatch.setenv(key, value)
    outcomes = []
    for _ in range(2):
        workload = wl.WORKLOADS[name](3)
        workload.prepare()
        records, ran = worker.execute(workload, blocks=_blocks(workload, 1))
        counts = worker.check(workload, records, wl.References())
        outcomes.append(
            (ran, counts, [r["fail"] for r in records], worker.digest(records, len(records)))
        )
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][0][0]) == workload.block_size


def test_gated_halfline_and_its_edge_split_the_draw_space():
    """halfline draws where the code passes; halfline_edge holds the rest."""
    for inp in (op for block in _blocks(wl.Halfline(5), 20) for op in block):
        assert inp["density"] in (400.0, 1600.0) and 1.0 <= inp["g"] <= 30.0
    edge = [op for block in _blocks(wl.HalflineEdge(5), 20) for op in block]
    for inp in edge:
        assert inp["density"] == 100.0 or 30.0 <= inp["g"] <= 40.0
    assert {inp["density"] for inp in edge} == {100.0, 400.0, 1600.0}


def test_every_gated_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


def _names_and_units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(name, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = _names_and_units(SPEC["per_layer" if trace else "end_to_end"])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.strip().startswith("fail_frac") for line in lines)
