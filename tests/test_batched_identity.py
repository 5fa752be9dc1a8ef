"""Byte-identity of the batched fast path against the single-step reference.

The tentpole guarantee of the fast-core refactor: ``ScenarioRunner`` with
``batching=True`` (the default) must produce *byte-identical* results to the
``batching=False`` reference loop — the same ``RunMetrics`` rows, the same
stored JSON in the metrics tier, and the same gzip artifact bytes in the
trace tier, across every scenario family.  ``benchmarks/bench_perf_core.py``
gates releases on the same property at sweep scale; this is the tier-1
subset.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.campaign.runner import execute_run, summarise_run
from repro.campaign.spec import (
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    RunSpec,
    SyntheticWorkloadRef,
)
from repro.results.store import ResultStore
from repro.slurm.jobs import ResourceRequest
from repro.traces.query import TraceReader
from repro.traces.store import TraceStore
from repro.workload import configs
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import DROM, SERIAL, ScenarioRunner
from repro.workload.workloads import Workload, WorkloadJob

# Not named Test*, so the class is not collected a second time here.
from test_traces import TestRunLengthSegments as RunLengthCells

#: One representative cell per scenario family (each expands to a Serial and
#: a DROM run): the paper's in-situ pair, a heterogeneous resource request,
#: the high-priority use case, co-run interference, a non-malleable ablation
#: and a multi-job synthetic draw.
FAMILIES = {
    "insitu": dict(workload=InSituWorkloadRef()),
    "heterogeneous": dict(workload=InSituWorkloadRef(analytics_nodes=1)),
    "high-priority": dict(workload=HighPriorityWorkloadRef()),
    "interference": dict(workload=InSituWorkloadRef(), interference_factor=1.3),
    "non-malleable": dict(
        workload=InSituWorkloadRef(simulator_kwargs=(("malleable", False),))
    ),
    "synthetic": dict(
        workload=SyntheticWorkloadRef(
            spec=WorkloadSpec(njobs=4, iterations=400, work_scale=0.1), seed=7
        )
    ),
}

CASES = [
    pytest.param(
        RunSpec(index=0, scenario=scenario, **kwargs),
        id=f"{family}-{scenario}",
    )
    for family, kwargs in FAMILIES.items()
    for scenario in (SERIAL, DROM)
]


@pytest.mark.parametrize("run", CASES)
def test_batched_run_is_byte_identical_to_reference(run, tmp_path):
    reference = execute_run(run, trace=True, batching=False)
    batched = execute_run(run, trace=True, batching=True)

    # Compact campaign rows compare exactly (all floats bit-for-bit).
    row_ref = summarise_run(run, reference)
    row_fast = summarise_run(run, batched)
    assert row_ref == row_fast

    # Metrics tier: identical stored JSON bytes under the same content key.
    path_ref = ResultStore(tmp_path / "metrics-ref").put(row_ref)
    path_fast = ResultStore(tmp_path / "metrics-fast").put(row_fast)
    assert path_ref.name == path_fast.name
    assert path_ref.read_bytes() == path_fast.read_bytes()

    # Trace tier: identical gzip artifact bytes under the same content key.
    trace_ref = TraceStore(tmp_path / "traces-ref").put(run, reference)
    trace_fast = TraceStore(tmp_path / "traces-fast").put(run, batched)
    assert trace_ref.name == trace_fast.name
    assert trace_ref.read_bytes() == trace_fast.read_bytes()


#: TestRunLengthSegments' generated cells: njobs 4/12 x serial/DROM x
#: fcfs/backfill, interference on two.
GENERATED = [
    pytest.param(
        RunLengthCells._cell(*cell),
        id=f"generated-n{cell[0]}-{cell[1]}{'-backfill' if cell[2] else ''}",
    )
    for cell in RunLengthCells.CELLS
]


@pytest.mark.parametrize("run", CASES + GENERATED)
def test_batched_tracer_views_match_reference(run):
    """Derived tracer views (not just serialised bytes) agree too: the
    batched tracer stores runs, the reference loop one step at a time, and
    every per-step view expanded from the runs, and every reader query
    answered from them, is the reference's."""
    reference = execute_run(run, trace=True, batching=False)
    batched = execute_run(run, trace=True, batching=True)
    assert batched.end_time == reference.end_time
    reference, batched = reference.tracer, batched.tracer
    assert len(batched.runs()) < len(batched)
    assert len(reference.runs()) == len(reference)

    assert len(batched) == len(reference)
    assert list(batched) == list(reference)
    assert repr(list(batched)) == repr(list(reference))
    assert batched.mask_changes() == reference.mask_changes()
    assert batched.jobs() == reference.jobs()
    readers = TraceReader(batched), TraceReader(reference)
    assert readers[0].view().horizon() == readers[1].view().horizon()
    for job in reference.jobs():
        histograms = [reader.ipc_histogram(job) for reader in readers]
        assert histograms[0].dtype == histograms[1].dtype == np.float64
        assert histograms[0].tolist() == histograms[1].tolist()
        assert readers[0].mean_ipc(job) == readers[1].mean_ipc(job)
        assert readers[0].render_job_widths() == readers[1].render_job_widths()
        assert readers[0].render_thread_activity(job) == readers[1].render_thread_activity(job)
        assert batched.span(job) == reference.span(job)
        for rank in sorted({step.rank for step in reference.steps(job)}):
            assert batched.steps(job, rank) == reference.steps(job, rank)
            assert batched.thread_utilisation(job, rank) == reference.thread_utilisation(
                job, rank
            )


@pytest.mark.parametrize("drom_enabled", [False, True], ids=[SERIAL, DROM])
def test_interference_change_alone_reprices(drom_enabled):
    """A co-runner arriving on a job's node changes its interference factor
    without touching its mask: the cached fold must be re-priced on that
    half of its key alone."""
    half_node = ResourceRequest(nodes=1, ntasks=1, cpus_per_task=8)
    workload = Workload(
        name="half-node pair",
        jobs=(
            WorkloadJob(
                app=configs.nest(iterations=300), submit_time=0.0, resources=half_node
            ),
            WorkloadJob(
                app=configs.stream(iterations=300), submit_time=30.0, resources=half_node
            ),
        ),
        nodes=1,
    )

    def interference(job: str, node: str, co_runners: list[str]) -> float:
        return 1.3 if co_runners else 1.0

    reference, batched = (
        ScenarioRunner(drom_enabled, interference=interference, batching=batching).run(
            workload
        )
        for batching in (False, True)
    )
    assert batched.tracer.steps() == reference.tracer.steps()
    assert batched.tracer.mask_changes() == reference.tracer.mask_changes()

    def stats(result):  # pids come from a process-global counter
        return {
            label: [replace(record, pid=0) for record in records]
            for label, records in result.job_stats.items()
        }

    assert stats(batched) == stats(reference)
    assert batched.end_time == reference.end_time
    # Masks never change under Serial, so a re-priced step there can only
    # come from the interference factor.
    assert batched.steps_priced > batched.steps_advanced
