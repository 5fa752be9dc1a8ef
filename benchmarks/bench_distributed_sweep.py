"""Distributed-sweep gate: orchestrated executors vs the serial baseline.

The distributed execution layer (:mod:`repro.exec`) claims two things, and
this harness gates both:

* **Byte identity.**  A campaign orchestrated across two single-slot local
  executors must reproduce the serial execution exactly — equal
  :class:`RunMetrics` rows, equal aggregated table, and byte-identical
  metrics-tier artifacts under the same content keys.
* **Throughput.**  With two executor slots the sweep must clear **>= 1.6x**
  the serial cells/sec.  The speedup gate is only *enforced* where it can
  physically hold (``os.cpu_count() >= 2`` — on a single-core runner both
  configurations share one core); byte identity is asserted unconditionally.

The harness also exercises crash recovery end to end: one artifact is
deleted from the warm store and ``resume_campaign`` must re-execute exactly
that one cell from the manifest, byte-identically.

Run standalone (the tier-1 suite does not collect ``benchmarks/``)::

    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py \\
        [--out BENCH_distributed.json]

or through pytest alongside the figure benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_distributed_sweep.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import (
    CampaignSpec,
    SyntheticWorkloadRef,
    resume_campaign,
    run_campaign,
)
from repro.exec import LocalPoolExecutor
from repro.obs.telemetry import Telemetry
from repro.results.store import ResultStore, content_key
from repro.workload.generator import WorkloadSpec

SPEEDUP_GATE = 1.6
EXECUTORS = 2

#: Deliberately heavy cells (~0.25 s each on a 2-vCPU x86 VM, Python 3.11):
#: pool start-up and per-cell orchestration overhead (asyncio round trip +
#: RunSpec pickle) must be negligible against real simulation work for the
#: throughput gate to measure anything honest.  Batched step pricing costs
#: per batch, not per iteration, so the weight comes from the job count.
SWEEP_WORKLOADS = WorkloadSpec(
    njobs=30,
    iterations=8000,
    work_scale=0.5,
    name="distributed",
)


def build_spec() -> CampaignSpec:
    return CampaignSpec(
        name="distributed-sweep",
        workloads=tuple(
            SyntheticWorkloadRef(spec=SWEEP_WORKLOADS, seed=seed)
            for seed in range(6)
        ),
    )


def _executor_stats(telemetry: Telemetry) -> list[dict]:
    """The per-executor accounting spans the campaign runner recorded."""
    campaign = telemetry.roots[0]
    return [
        {"attrs": dict(span.attrs), "counters": dict(span.counters)}
        for span in campaign.children
        if span.name == "executor"
    ]


def run_harness(out: Path) -> dict:
    spec = build_spec()
    nruns = spec.nruns
    enforced = (os.cpu_count() or 1) >= EXECUTORS

    with tempfile.TemporaryDirectory(prefix="bench-distributed-") as tmp:
        work = Path(tmp)
        serial_store = ResultStore(work / "serial-store")
        orch_store = ResultStore(work / "orch-store")
        manifest = work / "manifest.jsonl"

        serial_obs = Telemetry()
        serial = run_campaign(
            spec, workers=1, store=serial_store, telemetry=serial_obs
        )
        serial_s = serial_obs.roots[0].duration

        orch_obs = Telemetry()
        orchestrated = run_campaign(
            spec,
            store=orch_store,
            manifest=manifest,
            telemetry=orch_obs,
            executor=[LocalPoolExecutor(slots=1) for _ in range(EXECUTORS)],
        )
        orch_s = orch_obs.roots[0].duration

        # -- byte identity ---------------------------------------------------
        assert orchestrated.rows == serial.rows, "orchestrated rows diverged"
        assert orchestrated.to_table() == serial.to_table()
        assert serial_store.keys() == orch_store.keys()
        for key in serial_store.keys():
            assert (
                serial_store.path_for(key).read_bytes()
                == orch_store.path_for(key).read_bytes()
            ), f"store artifact {key[:12]} diverged"

        # -- crash recovery --------------------------------------------------
        victim = content_key(spec.expand()[0])
        orch_store.remove(victim)
        resumed = run_resume(manifest, orch_store)
        assert resumed.executed == 1, "resume re-executed more than the missing cell"
        assert resumed.cache_hits == nruns - 1
        assert resumed.rows == serial.rows
        assert (
            orch_store.path_for(victim).read_bytes()
            == serial_store.path_for(victim).read_bytes()
        )

        stats = _executor_stats(orch_obs)

    serial_rate = nruns / serial_s if serial_s > 0 else float("inf")
    orch_rate = nruns / orch_s if orch_s > 0 else float("inf")
    speedup = orch_rate / serial_rate if serial_rate > 0 else float("inf")
    passed = speedup >= SPEEDUP_GATE or not enforced
    report = {
        "gate": {
            "minimum_speedup": SPEEDUP_GATE,
            "enforced": enforced,
            "cpu_count": os.cpu_count() or 1,
            "passed": passed,
        },
        "aggregate": {
            "cells": nruns,
            "serial_seconds": serial_s,
            "orchestrated_seconds": orch_s,
            "serial_cells_per_sec": serial_rate,
            "orchestrated_cells_per_sec": orch_rate,
            "speedup": speedup,
            "byte_identical": True,
            "resume_reexecuted": 1,
        },
        "executors": stats,
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"\n{nruns} cells: serial {serial_s:.3f}s ({serial_rate:.2f} cells/s) "
        f"vs {EXECUTORS} orchestrated executors {orch_s:.3f}s "
        f"({orch_rate:.2f} cells/s) -> {speedup:.2f}x "
        f"(gate >= {SPEEDUP_GATE}x, "
        f"{'enforced' if enforced else f'not enforced on {os.cpu_count()} cpu'}); "
        f"byte-identical artifacts, resume re-ran 1 cell -> {out}"
    )
    return report


def run_resume(manifest: Path, store: ResultStore):
    """The resume leg, kept separate so the pytest entry reuses it."""
    return resume_campaign(manifest, store, executor=LocalPoolExecutor(slots=1))


def test_distributed_sweep_gate(report):
    """Pytest entry point: same gate, report lands in benchmarks/results."""
    results = run_harness(Path(__file__).parent / "results" / "BENCH_distributed.json")
    assert results["aggregate"]["byte_identical"]
    assert results["aggregate"]["resume_reexecuted"] == 1
    if results["gate"]["enforced"]:
        assert results["aggregate"]["speedup"] >= SPEEDUP_GATE
    report(
        "distributed_sweep",
        f"{results['aggregate']['cells']} cells, "
        f"{results['aggregate']['speedup']:.2f}x cells/sec at {EXECUTORS} local "
        f"executors (gate >= {SPEEDUP_GATE}x, enforced: "
        f"{results['gate']['enforced']}), byte-identical rows and store "
        f"artifacts, crash resume re-executed exactly the missing cell",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Orchestrated-vs-serial distributed sweep gate."
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_distributed.json"),
        help="where to write the JSON report (default ./BENCH_distributed.json)",
    )
    args = parser.parse_args(argv)
    results = run_harness(args.out)
    if not results["gate"]["passed"]:
        print(
            f"FAIL: speedup {results['aggregate']['speedup']:.2f}x is below "
            f"the {SPEEDUP_GATE}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
