"""Tests of the slurmctld controller: FCFS scheduling and DROM co-allocation."""

from __future__ import annotations

import pytest

from repro.cpuset.topology import ClusterTopology
from repro.slurm.jobs import JobSpec, JobState
from repro.slurm.slurmctld import Slurmctld


def spec(name="job", nodes=2, ntasks=2, cpt=16, priority=0, malleable=True):
    return JobSpec(
        name=name, nodes=nodes, ntasks=ntasks, cpus_per_task=cpt,
        priority=priority, malleable=malleable,
    )


@pytest.fixture
def serial_ctld(mn3_cluster):
    return Slurmctld(mn3_cluster, drom_enabled=False)


@pytest.fixture
def drom_ctld(mn3_cluster):
    return Slurmctld(mn3_cluster, drom_enabled=True)


class TestSubmission:
    def test_submit_queues_pending_job(self, serial_ctld):
        job = serial_ctld.submit(spec(), time=5.0)
        assert job.state is JobState.PENDING
        assert job.submit_time == 5.0
        assert serial_ctld.pending_jobs() == [job]

    def test_too_many_nodes_rejected(self, serial_ctld):
        with pytest.raises(ValueError):
            serial_ctld.submit(spec(nodes=3, ntasks=3), time=0.0)

    def test_cancel_pending_job(self, serial_ctld):
        job = serial_ctld.submit(spec(), time=0.0)
        serial_ctld.cancel(job.job_id, time=1.0)
        assert job.state is JobState.CANCELLED
        assert serial_ctld.pending_jobs() == []


class TestSerialScheduling:
    def test_first_job_starts_immediately(self, serial_ctld):
        job = serial_ctld.submit(spec(), time=0.0)
        decisions = serial_ctld.schedule(0.0)
        assert len(decisions) == 1
        assert decisions[0].job is job
        assert not decisions[0].co_allocated
        assert job.state is JobState.RUNNING
        assert len(job.allocated_nodes) == 2

    def test_second_full_job_waits(self, serial_ctld):
        first = serial_ctld.submit(spec(name="first"), time=0.0)
        serial_ctld.schedule(0.0)
        second = serial_ctld.submit(spec(name="second"), time=10.0)
        assert serial_ctld.schedule(10.0) == []
        assert second.state is JobState.PENDING
        assert second.pending_reason == "Resources"
        # once the first job completes, the second starts
        serial_ctld.job_completed(first.job_id, 100.0)
        decisions = serial_ctld.schedule(100.0)
        assert [d.job for d in decisions] == [second]
        assert second.wait_time == 90.0

    def test_small_jobs_share_free_cpus_without_drom(self, serial_ctld):
        serial_ctld.submit(spec(name="small1", ntasks=2, cpt=4), time=0.0)
        serial_ctld.submit(spec(name="small2", ntasks=2, cpt=4), time=0.0)
        decisions = serial_ctld.schedule(0.0)
        # 4+4 CPUs per node fit side by side even in stock SLURM.
        assert len(decisions) == 2
        assert not any(d.co_allocated for d in decisions)

    def test_fcfs_blocks_later_jobs_without_backfill(self, serial_ctld):
        serial_ctld.submit(spec(name="big1"), time=0.0)
        serial_ctld.schedule(0.0)
        serial_ctld.submit(spec(name="big2"), time=1.0)
        small = serial_ctld.submit(spec(name="small", ntasks=2, cpt=1), time=2.0)
        decisions = serial_ctld.schedule(2.0)
        # small would fit, but FCFS without backfill keeps it behind big2
        assert decisions == []
        assert small.state is JobState.PENDING

    def test_backfill_lets_small_job_jump(self, mn3_cluster):
        ctld = Slurmctld(mn3_cluster, drom_enabled=False, backfill=True)
        # big1 leaves one CPU free per node; big2 cannot start, but the small
        # one-CPU-per-node job can be backfilled around it.
        ctld.submit(spec(name="big1", ntasks=2, cpt=15), time=0.0)
        ctld.schedule(0.0)
        ctld.submit(spec(name="big2"), time=1.0)
        small = ctld.submit(spec(name="small", ntasks=2, cpt=1), time=2.0)
        decisions = ctld.schedule(2.0)
        assert [d.job.spec.name for d in decisions] == ["small"]
        assert small.state is JobState.RUNNING


class TestDromCoAllocation:
    def test_full_jobs_are_co_allocated(self, drom_ctld):
        drom_ctld.submit(spec(name="sim"), time=0.0)
        drom_ctld.schedule(0.0)
        analytics = drom_ctld.submit(spec(name="analytics", ntasks=2, cpt=1), time=10.0)
        decisions = drom_ctld.schedule(10.0)
        assert len(decisions) == 1
        assert decisions[0].co_allocated
        assert analytics.state is JobState.RUNNING
        assert analytics.wait_time == 0.0

    def test_non_malleable_new_job_cannot_co_allocate(self, drom_ctld):
        drom_ctld.submit(spec(name="sim"), time=0.0)
        drom_ctld.schedule(0.0)
        rigid = drom_ctld.submit(spec(name="rigid", malleable=False), time=5.0)
        assert drom_ctld.schedule(5.0) == []
        assert rigid.state is JobState.PENDING

    def test_non_malleable_running_job_blocks_co_allocation(self, drom_ctld):
        drom_ctld.submit(spec(name="rigid", malleable=False), time=0.0)
        drom_ctld.schedule(0.0)
        new = drom_ctld.submit(spec(name="sim"), time=5.0)
        assert drom_ctld.schedule(5.0) == []
        assert new.state is JobState.PENDING

    def test_co_allocation_respects_task_capacity(self, drom_ctld):
        """Co-allocation never oversubscribes: total tasks per node <= CPUs."""
        drom_ctld.submit(spec(name="wide1", ntasks=16, cpt=2), time=0.0)
        drom_ctld.schedule(0.0)
        drom_ctld.submit(spec(name="wide2", ntasks=16, cpt=2), time=1.0)
        decisions = drom_ctld.schedule(1.0)
        assert len(decisions) == 1  # 8 + 8 tasks per node = 16 <= 16 CPUs
        drom_ctld.submit(spec(name="wide3", ntasks=2, cpt=1), time=2.0)
        assert drom_ctld.schedule(2.0) == []

    def test_priority_order_respected(self, drom_ctld):
        low = drom_ctld.submit(spec(name="low", priority=0), time=0.0)
        high = drom_ctld.submit(spec(name="high", priority=10), time=0.0)
        decisions = drom_ctld.schedule(0.0)
        assert decisions[0].job is high
        assert decisions[1].job is low  # co-allocated next to it

    def test_completed_job_frees_controller_state(self, drom_ctld):
        job = drom_ctld.submit(spec(name="sim"), time=0.0)
        drom_ctld.schedule(0.0)
        drom_ctld.job_completed(job.job_id, 50.0)
        assert job.state is JobState.COMPLETED
        for node in drom_ctld.nodes.values():
            assert node.idle
        assert drom_ctld.all_done()
