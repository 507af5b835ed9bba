"""One benchmark process: set up, run the closed loop, check every output.

Started by ``run.py``; not meant to be run by hand. Writes its result as
JSON to ``--result``. With ``--setup-only`` it stops once set up, so the
parent can time set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter

import workloads as wl
from tracer import Tracer, layer_report

# The trace digest covers the first two blocks of every run, so runs of
# different lengths on the same seed stay comparable.
DIGEST_BLOCKS = 2


def execute(workload, tracer=None, seconds=None, blocks=None) -> tuple[list[dict], list]:
    """Run whole blocks, until ``seconds`` have passed or ``blocks`` are used up.

    Returns the op records and the blocks that ran.
    """
    records: list[dict] = []
    ran: list[list[dict]] = []
    digest_ops = DIGEST_BLOCKS * workload.block_size
    source = iter(blocks) if blocks is not None else iter(workload.block, None)
    start = time.perf_counter()
    for block in source:
        for inp in block:
            op_id = len(records)
            records.append(workload.run(inp, op_id, tracer, op_id < digest_ops))
        ran.append(block)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records, ran


def check(workload, records: list[dict], refs: wl.References) -> dict:
    """Apply the failure rules; returns counts by reason."""
    for rec in records:
        try:
            rec["fail"] = workload.failure(rec, refs)
        except (KeyError, IndexError, ValueError) as exc:  # unreadable output
            rec["fail"] = "exception"
            rec["error"] = rec["error"] or f"unreadable output: {exc!r}"
    counts = Counter(rec["fail"] for rec in records if rec["fail"])
    return {reason: counts.get(reason, 0) for reason in wl.REASONS}


def digest(records: list[dict], n_ops: int) -> str:
    h = hashlib.sha256()
    for rec in records[:n_ops]:
        for text in rec["outputs"]:
            h.update(text.encode())
    return h.hexdigest()


def shared_grid_share(records: list[dict]) -> float:
    """Share of sweep points whose grid is exactly another point's grid."""
    from wellsolver import squarewell, trialgen

    shared = total = 0
    for rec in records:
        if rec["input"]["kind"] != "sweep":
            continue
        cfg = rec["input"]["config"]
        base, (key, values) = cfg["base"], next(iter(cfg["sweep"].items()))
        density = base["grid"]["density"]
        nodes = []
        for v in values:
            params = {**base["params"], key.split(".", 1)[1]: v}
            if base["problem"] == "sym_quartic":
                grid = trialgen.quartic_grid(params["g"], density)
            else:
                m = squarewell.solve_asymmetric(
                    params["W"], params["mu"], params["alpha"], params["beta"]
                )
                grid = squarewell.squarewell_grid(m, density)
            nodes.append(grid.nodes.tobytes())
        repeats = Counter(nodes)
        shared += sum(1 for n in nodes if repeats[n] > 1)
        total += len(nodes)
    return shared / total if total else 0.0


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def summary(workload, records, refs, n_blocks) -> dict:
    fails = check(workload, records, refs)
    digest_ops = min(len(records), DIGEST_BLOCKS * workload.block_size)
    return {
        "attempted": len(records),
        "failed": sum(fails.values()),
        "fail_counts": fails,
        # a silent wrong answer: the program claimed success, the reference disagrees
        "correct": fails["wrong_energy"] == 0,
        "blocks": n_blocks,
        "digest": digest(records, digest_ops),
        "digest_ops": digest_ops,
        "ops": [
            {k: rec.get(k) for k in ("input", "seconds", "energy", "reference", "fail", "error")}
            for rec in records
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = wl.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    for i, inp in enumerate(workload.warmup()):
        workload.run(inp, -1 - i, None, False)
    result: dict = {"ready": time.monotonic()}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    refs = wl.References()
    if not args.trace:
        records, ran = execute(workload, seconds=args.seconds)
        result["peak_rss_mb"] = peak_rss_mb(workload)
        result.update(summary(workload, records, refs, len(ran)))
    else:
        # Untraced half first, then the same inputs again with tracing on:
        # the difference of the two medians is the tracing overhead.
        plain, ran = execute(workload, seconds=args.seconds / 2)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        traced, _ = execute(workload, tracer=tracer, blocks=ran)
        tracer.uninstall()
        check(workload, plain, refs)
        result.update(summary(workload, traced, refs, len(ran)))
        op_seconds = sum(r["seconds"] for r in traced)
        sweep_points = sum(
            len(next(iter(r["input"]["config"]["sweep"].values())))
            for r in traced
            if r["input"]["kind"] == "sweep"
        )
        layers = layer_report(tracer.spans, len(traced), op_seconds, sweep_points)
        p50_plain = statistics.median(r["seconds"] for r in plain)
        p50_traced = statistics.median(r["seconds"] for r in traced)
        layers["cli.sweep.shared_grid_share"] = (shared_grid_share(traced), "ratio")
        layers["trace.overhead_s"] = (p50_traced - p50_plain, "s")
        layers["trace.overhead_frac"] = ((p50_traced - p50_plain) / p50_plain, "ratio")
        for reason, count in result["fail_counts"].items():
            layers[f"fail.{reason}"] = (count, "count")
        result["layers"] = layers
        result["plain_p50_s"] = p50_plain
        spans_path = wl.OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_path.relative_to(wl.ROOT))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
