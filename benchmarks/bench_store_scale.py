"""Store-scale gate: indexed O(1) lookups vs rebuild-from-directory.

The store index journals both tiers' membership and summary fields into a
sibling ``<root>.index.jsonl`` file, turning ``scan()``/``ls``/warm-campaign
lookup from O(N) directory walks with per-entry reads into one journal
replay (and one stat on the root).  This harness is the gate:

* seeds a **10 000-cell** synthetic metrics store (real entry layout, every
  file parses and summarises) and measures warm ``scan()`` and ``ls``
  (summary listing) with the index against the rebuild-from-directory
  baseline (index deleted, every entry re-described) — asserting **>= 10x**
  on both;
* runs a small real campaign over both tiers and asserts the warm re-runs
  stay **zero-execution and byte-identical** with the index present, absent
  (deleted), and truncated mid-way — the index is derived metadata, never
  ground truth;
* stores one real trace and asserts windowed ``TraceReader`` queries
  equal the full-inflation results while reading only the stored runs
  (the full tracer is never assembled).

The whole report lands in ``BENCH_store.json``.  Run standalone (tier-1
does not collect ``benchmarks/``)::

    PYTHONPATH=src python benchmarks/bench_store_scale.py [--out BENCH_store.json]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_store_scale.py -q
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # standalone: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign.runner import execute_run, run_campaign, summarise_run
from repro.campaign.spec import CampaignSpec, ClusterRef, RunSpec, SyntheticWorkloadRef
from repro.results.query import render_store_table
from repro.results.store import STORE_FORMAT_VERSION, ResultStore
from repro.traces.query import TraceReader
from repro.traces.store import TraceStore
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM

SPEEDUP_GATE = 10.0
CELLS = 10_000

SMALL = WorkloadSpec(njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=12)


def _small_spec(seeds=(0, 1)) -> CampaignSpec:
    return CampaignSpec(
        name="store-scale",
        workloads=tuple(SyntheticWorkloadRef(spec=SMALL, seed=s) for s in seeds),
        clusters=(ClusterRef(nnodes=4),),
    )


# -- synthetic 10k-cell seeding -------------------------------------------------------


def seed_synthetic_store(root: Path, cells: int) -> ResultStore:
    """A ``cells``-cell metrics store grown from one real simulated row.

    One cell executes for real; its stored payload then stamps out the grid
    with per-cell workload seeds, re-deriving each content key exactly the
    way ``content_key`` does — so every file is a fully valid, parseable,
    summarisable store entry, and the rebuild baseline pays the real
    describe cost per cell.
    """
    run = RunSpec(
        index=0,
        scenario=DROM,
        workload=SyntheticWorkloadRef(spec=SMALL, seed=0),
        cluster=ClusterRef(nnodes=4),
    )
    row = summarise_run(run, execute_run(run))
    store = ResultStore(root)
    store.put(row)
    template = json.loads(store.path_for(store.keys()[0]).read_text())
    root.mkdir(parents=True, exist_ok=True)
    for seed in range(1, cells):
        payload = dict(template)
        payload["run"] = dict(template["run"])
        payload["run"]["workload"] = dict(template["run"]["workload"])
        payload["run"]["workload"]["seed"] = seed
        canonical = json.dumps(
            payload["run"], sort_keys=True, separators=(",", ":")
        )
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        payload["key"] = key
        (root / f"{key}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n"
        )
    return store


def _timed(fn, repeats: int = 3) -> tuple[float, object]:
    """Best-of-``repeats`` wall-clock of ``fn`` plus its last return value."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def bench_scan_and_ls(root: Path) -> dict:
    """Indexed vs rebuild-from-directory timings on the synthetic store.

    The warm measurements hold one live :class:`ResultStore` — the
    production access pattern: a campaign scans the store object it holds,
    and the journal replays once per process.  The first replay is timed
    separately and reported, and even it must beat the rebuild.
    """
    store = ResultStore(root)
    index_path = store.index.path

    # Cold-start the journal (full rebuild from the directory), then time
    # the once-per-process replay a fresh CLI/campaign pays.
    store.scan()
    replay_s, replayed = _timed(lambda: ResultStore(root).scan(), repeats=1)

    def indexed_scan():
        return store.scan()  # warm object: one stat each on journal + root

    def rebuild_scan():
        index_path.unlink(missing_ok=True)  # the pre-index world, every time
        return ResultStore(root).scan()

    rebuild_scan_s, rebuilt = _timed(rebuild_scan)
    indexed_scan_s, scanned = _timed(indexed_scan)
    assert scanned == rebuilt == replayed and len(scanned) == CELLS

    # Both sides produce the same listing rows (key, scenario, workload,
    # headline metrics); the shared ASCII table rendering is excluded so the
    # comparison isolates what the index changes: a journal lookup vs one
    # full JSON read per cell.
    def indexed_ls():
        return [
            (e.key, e.summary["scenario"], e.summary["total_run_time"])
            for e in store.summaries()
        ]

    def baseline_ls():
        return [
            (e.key, e.contents["scenario"], e.metrics["total_run_time"])
            for e in ResultStore(root).entries()
        ]

    baseline_ls_s, baseline_rows = _timed(baseline_ls, repeats=1)
    indexed_ls_s, indexed_rows = _timed(indexed_ls)
    assert len(indexed_rows) == CELLS
    assert indexed_rows == baseline_rows  # identical listings, either path
    table = render_store_table(store)
    assert table.count("\n") >= CELLS  # the CLI renders one row per cell

    return {
        "cells": CELLS,
        "indexed_scan_seconds": indexed_scan_s,
        "first_replay_seconds": replay_s,
        "rebuild_scan_seconds": rebuild_scan_s,
        "scan_speedup": rebuild_scan_s / indexed_scan_s,
        "replay_speedup": rebuild_scan_s / replay_s,
        "indexed_ls_seconds": indexed_ls_s,
        "baseline_ls_seconds": baseline_ls_s,
        "ls_speedup": baseline_ls_s / indexed_ls_s,
    }


# -- byte identity with and without the index -----------------------------------------


def _tier_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def bench_byte_identity(work: Path) -> dict:
    """Warm campaigns must stay zero-execution and byte-identical with the
    index present, deleted, and truncated mid-way."""
    spec = _small_spec()
    store_root, trace_root = work / "store", work / "traces"
    cold = run_campaign(
        spec, store=ResultStore(store_root), trace_store=TraceStore(trace_root)
    )
    baseline = {"store": _tier_bytes(store_root), "traces": _tier_bytes(trace_root)}
    modes = {}
    for mode in ("present", "deleted", "truncated"):
        for root in (store_root, trace_root):
            index_path = ResultStore(root).index.path  # same sibling rule both tiers
            if mode == "deleted":
                index_path.unlink(missing_ok=True)
            elif mode == "truncated":
                ResultStore(root).scan() if root == store_root else TraceStore(
                    root
                ).scan()  # ensure a journal exists to truncate
                lines = index_path.read_text().splitlines(keepends=True)
                index_path.write_text("".join(lines[: max(1, len(lines) // 2)]))
        warm = run_campaign(
            spec, store=ResultStore(store_root), trace_store=TraceStore(trace_root)
        )
        identical = (
            warm.rows == cold.rows
            and _tier_bytes(store_root) == baseline["store"]
            and _tier_bytes(trace_root) == baseline["traces"]
        )
        modes[mode] = {
            "executed": warm.executed,
            "cache_hits": warm.cache_hits,
            "byte_identical": identical,
        }
        assert warm.executed == 0, f"index {mode}: warm campaign re-executed"
        assert identical, f"index {mode}: rows or artifacts diverged"
    return {"cells": len(cold.rows), "modes": modes}


# -- windowed trace queries -----------------------------------------------------------


def bench_windowed_queries(work: Path) -> dict:
    """Windowed results equal full inflation, read from the stored runs
    without assembling the full tracer."""
    run = RunSpec(
        index=0,
        scenario=DROM,
        # A longer trace than the identity sweep's, so each window is a
        # small slice of the steps.
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(
                njobs=2, mean_interarrival=90.0, work_scale=0.04, iterations=150
            ),
            seed=0,
        ),
        cluster=ClusterRef(nnodes=4),
    )
    result = execute_run(run, trace=True)
    store = TraceStore(work / "traces-windowed")
    store.put(run, result)
    steps = list(result.tracer)
    windows = [
        (steps[0].start, steps[len(steps) // 8].end),
        (steps[len(steps) // 2].start, steps[len(steps) // 2 + 4].end),
        (steps[-5].start, steps[-1].end),
    ]
    checked = []
    for lo, hi in windows:
        entry = store.get(run)  # fresh entry: nothing inflated yet
        expected = [s for s in steps if s.start <= hi and s.end >= lo]
        got = TraceReader(entry).steps_between(lo, hi)
        assert got == expected, "windowed query diverged from full inflation"
        assert "tracer" not in entry.__dict__, (
            "windowed query assembled the full tracer"
        )
        checked.append(
            {
                "window": [lo, hi],
                "matched_steps": len(got),
                "stored_runs": len(entry.runs),
            }
        )
    return {"steps": len(steps), "windows": checked, "equal_to_full_inflation": True}


def run_harness(out: Path) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-store-scale-") as tmp:
        work = Path(tmp)
        print(f"  seeding {CELLS} synthetic cells ...")
        seed_synthetic_store(work / "synthetic", CELLS)
        scale = bench_scan_and_ls(work / "synthetic")
        print(
            f"  scan: {scale['rebuild_scan_seconds'] * 1e3:8.1f} ms rebuild vs "
            f"{scale['indexed_scan_seconds'] * 1e3:8.1f} ms warm "
            f"({scale['first_replay_seconds'] * 1e3:.1f} ms once-per-process "
            f"replay) -> {scale['scan_speedup']:6.1f}x"
        )
        print(
            f"  ls:   {scale['baseline_ls_seconds'] * 1e3:8.1f} ms baseline vs "
            f"{scale['indexed_ls_seconds'] * 1e3:8.1f} ms indexed "
            f"-> {scale['ls_speedup']:6.1f}x"
        )
        identity = bench_byte_identity(work / "identity")
        print(
            "  byte identity: "
            + ", ".join(
                f"{mode}: executed={m['executed']} identical={m['byte_identical']}"
                for mode, m in identity["modes"].items()
            )
        )
        windows = bench_windowed_queries(work)
        print(
            "  windowed queries: "
            + ", ".join(
                f"{w['matched_steps']} steps from {w['stored_runs']} runs"
                for w in windows["windows"]
            )
        )
    passed = (
        scale["scan_speedup"] >= SPEEDUP_GATE
        and scale["ls_speedup"] >= SPEEDUP_GATE
        and scale["replay_speedup"] > 1.0  # even a cold replay beats rebuild
        and all(
            m["executed"] == 0 and m["byte_identical"]
            for m in identity["modes"].values()
        )
        and windows["equal_to_full_inflation"]
    )
    report = {
        "gate": {"minimum_speedup": SPEEDUP_GATE, "passed": passed},
        "scale": scale,
        "byte_identity": identity,
        "windowed_queries": windows,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"\nstore scale: scan {scale['scan_speedup']:.1f}x, "
        f"ls {scale['ls_speedup']:.1f}x on {CELLS} cells "
        f"(gate: >= {SPEEDUP_GATE:.0f}x) -> {out}"
    )
    return report


def test_store_scale_gate(report):
    """Pytest entry point: same gate, report lands in benchmarks/results."""
    results = run_harness(Path(__file__).parent / "results" / "BENCH_store.json")
    assert results["gate"]["passed"]
    assert results["scale"]["scan_speedup"] >= SPEEDUP_GATE
    assert results["scale"]["ls_speedup"] >= SPEEDUP_GATE
    report(
        "store_scale",
        f"scan speedup {results['scale']['scan_speedup']:.1f}x, "
        f"ls speedup {results['scale']['ls_speedup']:.1f}x on "
        f"{results['scale']['cells']} cells (gate >= {SPEEDUP_GATE:.0f}x); "
        f"warm campaigns zero-execution and byte-identical with index "
        f"present/deleted/truncated; windowed queries equal full inflation",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Indexed-store scale gate with byte-identity checks."
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_store.json"),
        help="where to write the JSON report (default ./BENCH_store.json)",
    )
    args = parser.parse_args(argv)
    report = run_harness(args.out)
    if not report["gate"]["passed"]:
        print(
            f"FAIL: store-scale gate not met "
            f"(scan {report['scale']['scan_speedup']:.1f}x, "
            f"ls {report['scale']['ls_speedup']:.1f}x, need "
            f">= {SPEEDUP_GATE:.0f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
