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
    ClusterRef,
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    RunSpec,
    SchedulerRef,
    SyntheticWorkloadRef,
)
from repro.cpuset.topology import ClusterTopology
from repro.results.store import ResultStore
from repro.runtime.process import ApplicationProcess
from repro.slurm.jobs import ResourceRequest
from repro.traces.query import TraceReader
from repro.traces.store import TraceStore
from repro.workload import configs
from repro.workload.generator import BURSTY, WorkloadSpec
from repro.workload.runner import DROM, SERIAL, ScenarioRunner, _RunState
from repro.workload.workloads import Workload, WorkloadJob

# Not named Test*, so the class is not collected a second time here.
from step_oracle import canonical_steps
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


#: The lowest-utilisation node policy reads the running jobs' statistics at
#: every scheduler pass, which the batched loop first brings up to the
#: pass's instant.  A bursty 12-job draw on four nodes, fcfs and backfill:
#: the cells diverge from the reference loop if a pass reads the statistics
#: as of the running batches' starts.
LOWEST_UTILISATION = [
    pytest.param(
        RunSpec(
            index=0,
            scenario=scenario,
            workload=SyntheticWorkloadRef(
                spec=WorkloadSpec(
                    njobs=12, arrival=BURSTY, mean_interarrival=40.0, work_scale=0.04,
                    iterations=40,
                ),
                seed=3,
            ),
            cluster=ClusterRef(nnodes=4),
            scheduler=SchedulerRef(backfill=backfill, node_policy="lowest-utilisation"),
        ),
        id=f"lowest-utilisation-{'backfill' if backfill else 'fcfs'}-{scenario}",
    )
    for backfill in (False, True)
    for scenario in (SERIAL, DROM)
]


@pytest.mark.parametrize("run", CASES + LOWEST_UTILISATION)
def test_batched_run_is_byte_identical_to_reference(run, tmp_path):
    assert_byte_identical(run, tmp_path)


#: DROM cells whose processes adopt masks through DLB's asynchronous mode.
ASYNCHRONOUS = [
    pytest.param(RunSpec(index=0, scenario=DROM, **FAMILIES[family]), id=family)
    for family in ("insitu", "heterogeneous", "synthetic")
]


@pytest.mark.parametrize("run", ASYNCHRONOUS)
def test_asynchronous_adoption_is_byte_identical(run, tmp_path, monkeypatch):
    """With DLB's asynchronous (helper-thread) mode a runtime adopts a mask
    the moment it is written, mid-step, not at its next poll.  Both loops
    still price, record and charge the step that spans the write under the
    mask its ranks polled before it, and the next step under the new one.
    Every process the runner builds polls instead, so only these cells
    adopt a mask mid-step."""
    start = ApplicationProcess.start

    def start_asynchronous(process):
        start(process)
        process.dlb.enable_async(process._apply_mask)

    monkeypatch.setattr(ApplicationProcess, "start", start_asynchronous)
    assert_byte_identical(run, tmp_path)


@pytest.mark.parametrize(
    "run, batches",
    [
        pytest.param(*cell.values, batches, id=cell.id)
        for cell, batches in zip(LOWEST_UTILISATION, [12, 38, 12, 38])
    ],
)
def test_statistics_reads_match_the_reference(run, batches, monkeypatch):
    """Every utilisation the node policy reads, batched, is the reference
    loop's at the same instant, to the bit: the catch-up records the steps
    that end before each read, and a node summary adds its records in
    registration order, so the order in which the loops create them does
    not matter.  The four cells ran 54, 127, 53 and 127 batches when batches
    ended strictly before the next predicted event, 36, 92, 38 and 92 when
    they crossed it, 24, 50, 23 and 50 when every event pulled every wake
    back, and run 12, 38, 12 and 38 now that an event pulls back only the
    jobs whose next poll it changed."""
    original = _RunState._node_utilisation

    def recorded(state, name):
        value = original(state, name)
        reads.append((state.engine.now, name, None if value is None else value.hex()))
        return value

    monkeypatch.setattr(_RunState, "_node_utilisation", recorded)
    reads = []
    execute_run(run, trace=False, batching=False)
    reference, reads = reads, []
    batched = execute_run(run, trace=False, batching=True)
    assert reads == reference
    assert reads
    assert batched.batches_executed == batches


def assert_byte_identical(run, tmp_path):
    """Run ``run`` batched and through the single-step reference loop,
    assert equal campaign rows and byte-equal store entries in both tiers,
    and return the batched result."""
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
    return batched


#: TestRunLengthSegments' generated cells: njobs 4/12 x serial/DROM x
#: fcfs/backfill, interference on two.
GENERATED = [
    pytest.param(
        RunLengthCells._cell(*cell),
        id=f"generated-n{cell[0]}-{cell[1]}{'-backfill' if cell[2] else ''}",
    )
    for cell in RunLengthCells.CELLS
]


@pytest.mark.parametrize("run", CASES + GENERATED + LOWEST_UTILISATION)
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
    assert canonical_steps(batched) == canonical_steps(reference)
    assert repr(canonical_steps(batched)) == repr(canonical_steps(reference))
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
        for rank in sorted({step.rank for step in canonical_steps(reference, job)}):
            assert canonical_steps(batched, job, rank) == canonical_steps(reference, job, rank)
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
    assert canonical_steps(batched.tracer) == canonical_steps(reference.tracer)
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


def test_interference_pulls_back_only_co_runners():
    """With an interference hook a launch or completion pulls back only the
    jobs on the nodes it touched: NEST on node 0 sleeps through STREAM's
    launch and completion on node 1 (every event used to pull it back),
    and both loops still record the same steps."""
    whole_node = ResourceRequest(nodes=1, ntasks=1, cpus_per_task=16)
    workload = Workload(
        name="two nodes",
        jobs=(
            WorkloadJob(
                app=configs.nest(iterations=300), submit_time=0.0, resources=whole_node
            ),
            WorkloadJob(
                app=configs.stream(iterations=100), submit_time=30.0, resources=whole_node
            ),
        ),
        nodes=2,
    )

    def interference(job: str, node: str, co_runners: list[str]) -> float:
        return 1.3 if co_runners else 1.0

    reference, batched = (
        ScenarioRunner(
            False,
            cluster=ClusterTopology.marenostrum3(2),
            interference=interference,
            batching=batching,
        ).run(workload)
        for batching in (False, True)
    )
    assert canonical_steps(batched.tracer) == canonical_steps(reference.tracer)
    assert batched.end_time.hex() == reference.end_time.hex()
    nest, stream = (batched.tracer.span(job) for job in batched.tracer.jobs())
    assert len({step.node for step in canonical_steps(batched.tracer)}) == 2
    assert nest[0] < stream[0] and stream[1] < nest[1]
    assert batched.pulled_back == 0


def test_non_malleable_survivor_is_byte_identical():
    """A release whose survivors include a non-malleable job grows the
    malleable survivor onto every CPU the non-malleable one does not hold,
    and the batched loop still records what the reference loop does.  Pils
    (8 CPUs), a non-malleable NEST (4) and STREAM (4) share one node; when
    Pils completes, STREAM expands from 4 to 12 threads and NEST keeps its
    4 CPUs (before, the release stripped NEST to an empty mask, and its
    next step raised on zero threads)."""
    def request(cpus):
        return ResourceRequest(nodes=1, ntasks=1, cpus_per_task=cpus)

    workload = Workload(
        name="non-malleable survivor",
        jobs=(
            WorkloadJob(app=configs.pils(iterations=100), submit_time=0.0,
                        resources=request(8)),
            WorkloadJob(app=configs.nest(iterations=100, malleable=False),
                        submit_time=10.0, resources=request(4)),
            WorkloadJob(app=configs.stream(iterations=100), submit_time=20.0,
                        resources=request(4)),
        ),
        nodes=1,
    )
    reference, batched = (
        ScenarioRunner(
            True, cluster=ClusterTopology.marenostrum3(1), batching=batching
        ).run(workload)
        for batching in (False, True)
    )

    def rows(result):  # job ids come from a process-global counter
        return [replace(job, job_id=0) for job in result.metrics.jobs]

    def stats(result):  # so do pids
        return {
            label: [replace(record, pid=0) for record in records]
            for label, records in result.job_stats.items()
        }

    assert rows(batched) == rows(reference)
    assert stats(batched) == stats(reference)
    assert canonical_steps(batched.tracer) == canonical_steps(reference.tracer)
    assert batched.end_time.hex() == reference.end_time.hex()
    assert batched.tracer.mask_changes() == reference.tracer.mask_changes()
    assert [(c.job, c.old_threads, c.new_threads) for c in batched.tracer.mask_changes()] == [
        ("STREAM Conf. 1", 4, 12)
    ]
    assert {step.nthreads for step in canonical_steps(batched.tracer, "NEST Conf. 1")} == {4}


def test_wakes_follow_events():
    """A job sleeps to its completion and only a scheduler event that
    changes its next poll pulls its wake back: the generated 12-job DROM
    fcfs cell ran 76 batches with two wakes per predicted completion, 50
    with one, 33 when every event pulled every job back, and runs 19 now
    that an event pulls back only the jobs it wrote a mask to, pricing the
    same 1 506 steps."""
    result = execute_run(RunLengthCells._cell(12, DROM, False, None), trace=False)
    assert result.batches_executed == 19
    assert result.steps_priced == 1506
