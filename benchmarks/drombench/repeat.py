"""One drombench repeat, run by ``run.py`` in a fresh process.

Sets the workload up from its seed, runs the timed phase (traced or not),
optionally checks the outputs against the oracle, and writes one JSON result
for the parent; ``--setup-only`` stops after the set-up.  The program is
imported from the checkout's ``src/`` and nowhere else: without it this
process fails, and so does the benchmark.

    python3 benchmarks/drombench/repeat.py --workload NAME --seed N --result OUT.json
        [--traced] [--oracle] [--artifacts DIR] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"repro was imported from {origin}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--artifacts", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import layers
    from repro.obs.export import validate_chrome_trace, write_chrome_trace
    from repro.obs.telemetry import DISABLED
    from workloads import WORKLOADS, percentile

    workload = WORKLOADS[args.workload]
    work = ROOT / "benchmarks" / "results" / "drombench" / f"work-{os.getpid()}"
    try:
        state = workload.setup(args.seed, work)
        first_op = time.monotonic()
        if args.setup_only:
            args.result.write_text(json.dumps({"first_op": first_op}) + "\n")
            return 0
        trace = layers.LayerTrace() if args.traced else nullcontext()
        with trace:
            obs = trace.telemetry if args.traced else DISABLED
            start = time.perf_counter()
            with obs.span("timed", workload=args.workload):
                outcome = workload.timed(state, obs)
            timed_s = time.perf_counter() - start
        # Sampled before the oracle, which inflates whole traces; ru_maxrss
        # is in KiB on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.oracle:
            workload.oracle(state, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies_ms = [seconds * 1e3 for seconds in outcome.latencies]
    result = {
        "first_op": first_op,
        "timed_s": timed_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "executed": outcome.executed,
        "samples": len(latencies_ms),
        "digests": outcome.digests,
        "metrics": {
            "cells_per_s": outcome.cells / outcome.cell_seconds if outcome.cell_seconds else 0.0,
            "query_p50_ms": percentile(latencies_ms, 0.50) if latencies_ms else 0.0,
            "query_p90_ms": percentile(latencies_ms, 0.90) if latencies_ms else 0.0,
            "store_bytes_per_cell": (
                outcome.store_bytes / outcome.store_cells if outcome.store_cells else 0.0
            ),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if args.traced:
        root = trace.telemetry.roots[0]
        result["per_layer"] = layers.layer_metrics(root)
        result["self_time"] = layers.self_time_table(root)
        if args.artifacts is not None:
            args.artifacts.mkdir(parents=True, exist_ok=True)
            (args.artifacts / "spans.json").write_text(
                json.dumps([root.to_payload()], sort_keys=True) + "\n"
            )
            chrome = args.artifacts / "chrome_trace.json"
            write_chrome_trace(trace.telemetry, chrome)
            validate_chrome_trace(json.loads(chrome.read_text()))
    args.result.write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
