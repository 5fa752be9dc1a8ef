"""Perf-core gate: the batched fast path vs the single-step reference.

The fast-core refactor batches step advancement through the engine, the
runner, the tracer and the stats modules.  This harness is its gate: a
pinned cold sweep over the paper's scenario families runs every cell twice —
once with ``ScenarioRunner(batching=False)`` (the original single-step
reference loop, kept verbatim) and once with the batched default — and

* asserts **byte identity** per cell: equal :class:`RunMetrics` rows, equal
  stored metrics-tier JSON bytes under the same content key, and equal
  trace-tier gzip artifact bytes under the same content key;
* measures wall-clock, steps/sec and events/sec per cell, records its
  batched wakes (``batches``) next to its events, and writes the whole
  report to ``BENCH_core.json``;
* asserts the **aggregate cold-sweep speedup is >= 5x**;
* asserts the **pricing gate** per cell: ``priced_per_advanced`` (per-rank
  step prices over per-rank steps advanced, from the ``simulate`` span's
  ``priced``/``steps`` counters) is exactly 1.0 on every Serial cell and at
  most 3.0 on every DROM cell — the cached fold re-prices only when a mask
  or interference factor changes.

Run standalone (the tier-1 suite does not collect ``benchmarks/``)::

    PYTHONPATH=src python benchmarks/bench_perf_core.py [--out BENCH_core.json]

or through pytest alongside the figure benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_core.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign.runner import execute_run, summarise_run
from repro.obs.telemetry import Span, Telemetry
from repro.campaign.spec import (
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
)
from repro.results.store import ResultStore
from repro.traces.store import TraceStore
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL

SPEEDUP_GATE = 5.0
#: Upper bound on steps priced per step advanced, per scenario.
PRICING_GATE = {SERIAL: 1.0, DROM: 3.0}

#: The pinned cold-sweep grid: one representative cell per scenario family,
#: each expanded to a Serial and a DROM run.  Everything is seeded/derived —
#: two invocations of the harness execute bit-for-bit identical simulations.
FAMILIES = {
    "insitu": dict(workload=InSituWorkloadRef()),
    "heterogeneous": dict(workload=InSituWorkloadRef(analytics_nodes=1)),
    "high-priority": dict(workload=HighPriorityWorkloadRef()),
    "interference": dict(workload=InSituWorkloadRef(), interference_factor=1.3),
    "synthetic": dict(
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(njobs=6, iterations=2000, work_scale=0.3),
            seed=3,
        )
    ),
}
#: The synthetic workload under the node policy that reads the running
#: jobs' statistics at every scheduler pass: the only cell whose passes
#: record steps (the batched loop's statistics catch-up).
FAMILIES["lowest-utilisation"] = dict(
    FAMILIES["synthetic"], scheduler=SchedulerRef(node_policy="lowest-utilisation")
)


def _timed(run: RunSpec, batching: bool) -> tuple[Span, object]:
    """One cell on the shared telemetry clock/schema (no private timers).

    Returns the closed ``cell`` span — its duration is the wall-clock, its
    ``simulate`` child carries the events/steps/batches counters — plus the
    scenario result.
    """
    obs = Telemetry()
    with obs.span("cell", batching=batching) as cell:
        result = execute_run(run, trace=True, batching=batching, telemetry=obs)
    return cell, result


def _span_seconds(cell: Span) -> dict[str, float]:
    """Per-name wall-clock totals of one cell tree (the report's span block)."""
    totals: dict[str, float] = {}
    for span in cell.walk():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return dict(sorted(totals.items()))


def run_cell(family: str, run: RunSpec, work_dir: Path) -> dict:
    """Execute one grid cell both ways, check byte identity, report timings."""
    ref_cell, reference = _timed(run, batching=False)
    fast_cell, batched = _timed(run, batching=True)
    ref_seconds = ref_cell.duration
    fast_seconds = fast_cell.duration

    row_ref = summarise_run(run, reference)
    row_fast = summarise_run(run, batched)
    assert row_ref == row_fast, f"{family}/{run.scenario}: RunMetrics diverged"

    cell_dir = work_dir / f"{family}-{run.scenario}"
    metrics_ref = ResultStore(cell_dir / "metrics-ref").put(row_ref)
    metrics_fast = ResultStore(cell_dir / "metrics-fast").put(row_fast)
    assert metrics_ref.name == metrics_fast.name
    assert metrics_ref.read_bytes() == metrics_fast.read_bytes(), (
        f"{family}/{run.scenario}: metrics-tier bytes diverged"
    )
    trace_ref = TraceStore(cell_dir / "traces-ref").put(run, reference)
    trace_fast = TraceStore(cell_dir / "traces-fast").put(run, batched)
    assert trace_ref.name == trace_fast.name
    assert trace_ref.read_bytes() == trace_fast.read_bytes(), (
        f"{family}/{run.scenario}: trace-tier bytes diverged"
    )

    steps = len(batched.tracer)
    events = batched.events_executed
    simulate = fast_cell.find("simulate")[0]
    return {
        "family": family,
        "scenario": run.scenario,
        "reference_seconds": ref_seconds,
        "batched_seconds": fast_seconds,
        "speedup": ref_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
        "steps": steps,
        "steps_per_sec": steps / fast_seconds if fast_seconds > 0 else float("inf"),
        "events": events,
        "events_per_sec": events / fast_seconds if fast_seconds > 0 else float("inf"),
        "batches": batched.batches_executed,
        "reference_events": reference.events_executed,
        "priced_per_advanced": simulate.counters["priced"] / simulate.counters["steps"],
        "byte_identical": True,
        # Span-schema totals of the batched execution (build vs simulate) and
        # the simulate span's counters — the same names telemetry.json uses.
        "span_seconds": _span_seconds(fast_cell),
        "counters": {key: simulate.counters[key] for key in sorted(simulate.counters)},
        "reference_span_seconds": _span_seconds(ref_cell),
    }


def run_harness(out: Path) -> dict:
    """Run the full gate, write ``out`` and return the report dict."""
    cells = []
    with tempfile.TemporaryDirectory(prefix="bench-perf-core-") as tmp:
        work_dir = Path(tmp)
        for family, kwargs in FAMILIES.items():
            for scenario in (SERIAL, DROM):
                run = RunSpec(index=0, scenario=scenario, **kwargs)
                cell = run_cell(family, run, work_dir)
                cells.append(cell)
                print(
                    f"  {family:>14}/{scenario:<6} "
                    f"ref {cell['reference_seconds']:7.3f}s  "
                    f"batched {cell['batched_seconds']:7.3f}s  "
                    f"{cell['speedup']:5.1f}x  "
                    f"{cell['steps_per_sec']:>9.0f} steps/s  "
                    f"{cell['events_per_sec']:>8.0f} events/s  "
                    f"{cell['events']:>5} events  {cell['batches']:>5} batches  "
                    f"{cell['priced_per_advanced']:4.2f} priced/step"
                )
    ref_total = sum(c["reference_seconds"] for c in cells)
    fast_total = sum(c["batched_seconds"] for c in cells)
    aggregate = ref_total / fast_total if fast_total > 0 else float("inf")
    span_totals: dict[str, float] = {}
    for cell in cells:
        for name, seconds in cell["span_seconds"].items():
            span_totals[name] = span_totals.get(name, 0.0) + seconds
    overpriced = [
        f"{c['family']}/{c['scenario']}"
        for c in cells
        if c["priced_per_advanced"] > PRICING_GATE[c["scenario"]]
    ]
    report = {
        "gate": {
            "minimum_speedup": SPEEDUP_GATE,
            "maximum_priced_per_advanced": PRICING_GATE,
            "overpriced": overpriced,
            "passed": aggregate >= SPEEDUP_GATE and not overpriced,
        },
        "aggregate": {
            "reference_seconds": ref_total,
            "batched_seconds": fast_total,
            "speedup": aggregate,
            "cells": len(cells),
            "byte_identical": all(c["byte_identical"] for c in cells),
            "span_seconds": dict(sorted(span_totals.items())),
        },
        "cells": cells,
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"\ncold sweep: {ref_total:.3f}s reference vs {fast_total:.3f}s batched "
        f"-> {aggregate:.1f}x aggregate speedup over {len(cells)} byte-identical "
        f"cells (gate: >= {SPEEDUP_GATE:.0f}x), "
        f"{len(overpriced)} over the pricing gate -> {out}"
    )
    return report


def test_perf_core_gate(report):
    """Pytest entry point: same gate, report lands in benchmarks/results."""
    results = run_harness(Path(__file__).parent / "results" / "BENCH_core.json")
    assert results["aggregate"]["byte_identical"]
    assert results["aggregate"]["speedup"] >= SPEEDUP_GATE
    assert results["gate"]["overpriced"] == []
    lines = [
        f"{c['family']}/{c['scenario']}: {c['speedup']:.1f}x, "
        f"{c['steps_per_sec']:.0f} steps/s, {c['events_per_sec']:.0f} events/s, "
        f"{c['events']} events, {c['batches']} batches, "
        f"{c['priced_per_advanced']:.2f} priced/step"
        for c in results["cells"]
    ]
    report(
        "perf_core",
        f"aggregate speedup {results['aggregate']['speedup']:.1f}x "
        f"(gate >= {SPEEDUP_GATE:.0f}x), all cells byte-identical\n"
        + "\n".join(lines),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Batched-vs-reference perf gate with byte-identity checks."
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_core.json"),
        help="where to write the JSON report (default ./BENCH_core.json)",
    )
    args = parser.parse_args(argv)
    report = run_harness(args.out)
    if report["aggregate"]["speedup"] < SPEEDUP_GATE:
        print(
            f"FAIL: aggregate speedup {report['aggregate']['speedup']:.2f}x "
            f"is below the {SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
    for name in report["gate"]["overpriced"]:
        print(f"FAIL: {name} is over the pricing gate {PRICING_GATE}", file=sys.stderr)
    return 0 if report["gate"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
