"""Seeded differential runs over generated workloads.

Hypothesis draws a synthetic workload family (``WorkloadSpec``: job count,
uniform or heavy-tailed sizes, Poisson/uniform/bursty arrivals), a
co-run interference factor, a controller (fcfs/backfill × the three node
policies) and a scenario.  Each draw runs twice, batched and through the
single-step reference loop (``batching=False``), and must give equal
campaign rows and byte-equal store entries in both tiers.  The batched run
must also satisfy the invariants stated on its scheduler timeline and its
statistics:

* every job starts no earlier than its submission, and completes;
* the pending queue never has negative depth;
* on every node, the ranks' summed ``cpu_seconds_owned`` stays within the
  node's CPUs × the run's end time, up to rounding, and the controller
  never counts more CPUs busy than the node has;
* every rank's ``cpu_seconds_owned`` is the fold of its traced steps' team
  size × duration.

The node bounds (the third) are checked on Serial draws only: they do not
hold under DROM (see ``test_drom_draw_node_bounds``, whose failing cases
are strict ``xfail``s naming the gap, so mending it shows as an XPASS).

Tier-1 runs a derandomised slice of 50 small draws (about two seconds); CI
reruns the file with ``--hypothesis-profile=ci``, which draws a quarter of
that profile's example count here, since every example simulates two runs.
A draw that once failed is pinned as an ``@example``.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign.runner import execute_run
from repro.campaign.spec import ClusterRef, RunSpec, SchedulerRef, SyntheticWorkloadRef
from repro.core.floats import left_sum, repeat_add
from repro.workload.generator import (
    BURSTY,
    POISSON,
    UNIFORM,
    WorkloadSpec,
    heavy_tailed_size_mix,
)
from repro.workload.runner import DROM, SERIAL
from test_batched_identity import assert_byte_identical

NNODES = 4


@st.composite
def runs(draw) -> RunSpec:
    spec = WorkloadSpec(
        njobs=draw(st.integers(2, 8)),
        arrival=draw(st.sampled_from([POISSON, UNIFORM, BURSTY])),
        burst_size=draw(st.integers(2, 4)),
        mean_interarrival=draw(st.sampled_from([0.0, 15.0, 40.0, 120.0])),
        size_mix=draw(st.sampled_from([(), heavy_tailed_size_mix(NNODES)])),
        work_scale=draw(st.sampled_from([0.02, 0.04])),
        iterations=draw(st.integers(4, 40)),
    )
    return RunSpec(
        index=0,
        scenario=draw(st.sampled_from([SERIAL, DROM])),
        workload=SyntheticWorkloadRef(spec=spec, seed=draw(st.integers(0, 2**16))),
        cluster=ClusterRef(nnodes=NNODES),
        interference_factor=draw(st.sampled_from([None, 1.3])),
        scheduler=SchedulerRef(
            backfill=draw(st.booleans()),
            node_policy=draw(
                st.sampled_from(["first-fit", "least-allocated", "lowest-utilisation"])
            ),
        ),
    )


def _node_cpu_seconds(result) -> dict[str, float]:
    """Per node, its ranks' summed ``cpu_seconds_owned``, after checking
    that each rank's equals the left fold of its traced steps' team size ×
    duration.  A job's stats list is in global-rank order.  Every run holds
    at least one step: the tracer's run views rely on it."""
    rank_runs = defaultdict(list)
    for step_run in result.tracer.runs():
        assert step_run.count >= 1, step_run
        rank_runs[step_run.job, step_run.rank].append(step_run)
    owned = defaultdict(list)
    for label, records in result.job_stats.items():
        ranks = sorted(rank for job, rank in rank_runs if job == label)
        assert len(records) == len(ranks), label
        for rank, record in zip(ranks, records):
            fold = 0.0
            for step_run in rank_runs[label, rank]:
                fold = repeat_add(fold, step_run.nthreads * step_run.duration, step_run.count)
            assert record.cpu_seconds_owned == fold, (label, rank)
            owned[rank_runs[label, rank][0].node].append(fold)
    return {node: left_sum(values) for node, values in owned.items()}


def _assert_invariants(run: RunSpec, result) -> None:
    sched = result.sched
    assert len(sched.jobs) == run.workload.spec.njobs
    for job in sched.jobs:
        assert job.start_time is not None and job.end_time is not None, job
        assert job.submit_time <= job.start_time <= job.end_time, job
    assert all(sample.depth >= 0 for sample in sched.queue)
    _node_cpu_seconds(result)  # checks each rank's fold
    if run.scenario == SERIAL:
        _assert_busy_within_node(run, result)
        _assert_owned_within_capacity(run, result)


def _assert_busy_within_node(run: RunSpec, result) -> None:
    """The controller never counts more CPUs busy than a node has."""
    assert all(sample.busy_cpus <= sample.ncpus for sample in result.sched.nodes)


def _assert_owned_within_capacity(run: RunSpec, result) -> None:
    """Per node, the ranks' summed ``cpu_seconds_owned`` ≤ CPUs × end time."""
    owned = _node_cpu_seconds(result)
    # Both sides are float folds of the same real quantity, equal on a node
    # kept busy for the whole run, so allow for their rounding, no more.
    for node in run.cluster.build().nodes:
        capacity = node.ncpus * result.end_time
        assert owned.get(node.name, 0.0) <= capacity * (1 + 1e-12), node.name


def _draw(
    scenario, arrival, mean_interarrival, seed, burst_size=4, size_mix=(),
    interference_factor=None, node_policy="first-fit",
) -> RunSpec:
    """A draw that once failed, pinned below."""
    spec = WorkloadSpec(
        njobs=3, arrival=arrival, mean_interarrival=mean_interarrival,
        burst_size=burst_size, size_mix=size_mix, work_scale=0.02, iterations=4,
    )
    return RunSpec(
        index=0,
        scenario=scenario,
        workload=SyntheticWorkloadRef(spec=spec, seed=seed),
        cluster=ClusterRef(nnodes=NNODES),
        interference_factor=interference_factor,
        scheduler=SchedulerRef(node_policy=node_policy),
    )


#: Two jobs fill two nodes from t=0 to the end: the owned CPU-seconds equal
#: the capacity but for rounding.
FULL_NODE = _draw(SERIAL, BURSTY, 15.0, seed=3, burst_size=2)
#: NEST #2 starts at 39.31 s beside NEST #0, which keeps 16 threads until
#: its next poll at 41.58 s.
ADOPTION_LAG = _draw(DROM, BURSTY, 40.0, seed=3, burst_size=2)
#: Three jobs co-allocated at t=0: the controller counts more CPUs busy on
#: a node than it has.
CO_ALLOCATED = _draw(DROM, POISSON, 0.0, seed=0)
#: STREAM #2 completes at 1.95 s, the instant a step of STREAM #0, launched
#: before it, ends: #0 polls before the completion, as in the reference
#: loop.  Woken after it, #0 adopts the freed CPUs a step early and ends at
#: 4.2 s instead of 5.4 s.
SAME_INSTANT = _draw(
    DROM, POISSON, 0.0, seed=0, size_mix=heavy_tailed_size_mix(NNODES),
    interference_factor=1.3, node_policy="least-allocated",
)


@settings(
    max_examples=max(50, settings.default.max_examples // 4),
    derandomize=True,
    deadline=None,
)
@given(run=runs())
@example(run=FULL_NODE)
@example(run=ADOPTION_LAG)
@example(run=CO_ALLOCATED)
@example(run=SAME_INSTANT)
def test_batched_run_matches_reference_and_invariants(run, tmp_path_factory):
    batched = assert_byte_identical(run, tmp_path_factory.mktemp("cell"))
    _assert_invariants(run, batched)


#: DROM hands a co-allocated job its CPUs at once, but the shrunk rank keeps
#: (and is charged for) its old team until its next malleability point, so
#: both own the same CPUs for up to a step.
OWNED_OVERLAP = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="cpu_seconds_owned over-counts a node under DROM: a shrunk rank "
    "keeps its team until its next poll",
)
#: The controller adds each co-allocated job's full request to its node's
#: busy CPUs.
BUSY_OVERCOUNT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="SchedTimeline counts more busy CPUs than a node has under DROM "
    "co-allocation",
)


@pytest.mark.parametrize(
    "run, bound",
    [
        pytest.param(ADOPTION_LAG, _assert_owned_within_capacity,
                     marks=OWNED_OVERLAP, id="adoption-lag-owned"),
        pytest.param(ADOPTION_LAG, _assert_busy_within_node,
                     marks=BUSY_OVERCOUNT, id="adoption-lag-busy"),
        pytest.param(CO_ALLOCATED, _assert_owned_within_capacity, id="co-allocated-owned"),
        pytest.param(CO_ALLOCATED, _assert_busy_within_node,
                     marks=BUSY_OVERCOUNT, id="co-allocated-busy"),
    ],
)
def test_drom_draw_node_bounds(run, bound):
    """The node bounds on the pinned DROM draws.  Where a known gap breaks
    one, the case is a strict ``xfail``: mending the gap turns it into an
    XPASS, whose mark is then removed."""
    bound(run, execute_run(run, trace=True))
