"""Tests of slurmd, slurmstepd and srun working together on the full launch flow."""

from __future__ import annotations

import pytest

from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import ClusterTopology
from repro.slurm.jobs import Job, JobSpec
from repro.slurm.launcher import Srun
from repro.slurm.slurmd import Slurmd
from repro.slurm.slurmstepd import allocate_pid


def make_job(name="job", nodes=2, ntasks=2, cpt=16, malleable=True, node_names=("mn3-0", "mn3-1")):
    job = Job(spec=JobSpec(name=name, nodes=nodes, ntasks=ntasks, cpus_per_task=cpt, malleable=malleable))
    job.mark_submitted(0.0)
    job.mark_started(0.0, tuple(node_names[:nodes]))
    return job


@pytest.fixture
def stack(mn3_cluster):
    slurmds = {n.name: Slurmd(n, drom_enabled=True) for n in mn3_cluster.nodes}
    return slurmds, Srun(slurmds)


class TestSlurmd:
    def test_launch_job_step_creates_tasks(self, mn3_cluster):
        slurmd = Slurmd(mn3_cluster.nodes[0], drom_enabled=True)
        job = make_job(nodes=1, ntasks=2, cpt=8, node_names=("mn3-0",))
        record = slurmd.launch_job_step(job, first_global_rank=0)
        assert len(record.launches) == 2
        assert {t.global_rank for t in record.launches} == {0, 1}
        assert slurmd.shmem.pids() == [t.pid for t in record.launches]
        assert slurmd.shmem.free_mask().is_empty()
        assert slurmd.running_job_ids() == [job.job_id]

    def test_duplicate_step_rejected(self, mn3_cluster):
        slurmd = Slurmd(mn3_cluster.nodes[0])
        job = make_job(nodes=1, ntasks=1, cpt=4, node_names=("mn3-0",))
        slurmd.launch_job_step(job, 0)
        with pytest.raises(ValueError):
            slurmd.launch_job_step(job, 0)

    def test_job_step_completed_cleans_up(self, mn3_cluster):
        slurmd = Slurmd(mn3_cluster.nodes[0])
        job = make_job(nodes=1, ntasks=1, cpt=4, node_names=("mn3-0",))
        record = slurmd.launch_job_step(job, 0)
        pid = record.launches[0].pid
        assert slurmd.shmem.has(pid)
        slurmd.job_step_completed(job.job_id)
        assert not slurmd.shmem.has(pid)
        assert slurmd.running_job_ids() == []
        # unknown job is a no-op
        survivor = make_job(nodes=1, ntasks=1, cpt=4, node_names=("mn3-0",))
        survivor_pid = slurmd.launch_job_step(survivor, 0).launches[0].pid
        slurmd.job_step_completed(9999)
        assert slurmd.running_job_ids() == [survivor.job_id]
        assert slurmd.shmem.pids() == [survivor_pid]
        assert slurmd.shmem.get_mask(survivor_pid).count() == 4


class TestSlurmstepd:
    def test_environment_propagates_preinit_variables(self, mn3_cluster):
        slurmd = Slurmd(mn3_cluster.nodes[0])
        job = make_job(nodes=1, ntasks=1, cpt=8, node_names=("mn3-0",))
        record = slurmd.launch_job_step(job, first_global_rank=3)
        launch = record.launches[0]
        assert launch.environ["SLURM_JOB_ID"] == str(job.job_id)
        assert launch.environ["SLURM_PROCID"] == "3"
        assert launch.environ["SLURMD_NODENAME"] == "mn3-0"
        assert launch.environ["DLB_DROM_PREINIT_PID"] == str(launch.pid)
        assert CpuSet.parse(launch.environ["DLB_DROM_PREINIT_MASK"]) == launch.mask

    def test_step_terminated_is_idempotent(self, mn3_cluster):
        slurmd = Slurmd(mn3_cluster.nodes[0])
        job = make_job(nodes=1, ntasks=2, cpt=4, node_names=("mn3-0",))
        record = slurmd.launch_job_step(job, 0)
        record.stepd.step_terminated()
        assert len(slurmd.shmem) == 0
        record.stepd.step_terminated()  # second call does nothing

    def test_pid_allocation_is_unique(self):
        pids = {allocate_pid() for _ in range(100)}
        assert len(pids) == 100


class TestSrun:
    def test_launch_spreads_ranks_over_nodes(self, stack):
        _, srun = stack
        job = make_job(ntasks=4, cpt=8)
        launch = srun.launch(job)
        ranks_per_node = {node: [] for node in job.allocated_nodes}
        for task in launch.tasks():
            ranks_per_node[task.node].append(task.global_rank)
        assert ranks_per_node == {"mn3-0": [0, 1], "mn3-1": [2, 3]}
        assert [t.global_rank for t in launch.tasks()] == [0, 1, 2, 3]

    def test_launch_requires_allocation(self, stack):
        _, srun = stack
        job = Job(spec=JobSpec(name="x", nodes=1, ntasks=1, cpus_per_task=1))
        with pytest.raises(ValueError):
            srun.launch(job)

    def test_launch_unknown_node_rejected(self, stack):
        _, srun = stack
        job = make_job(node_names=("mn3-0", "other-node"))
        with pytest.raises(KeyError):
            srun.launch(job)

    def test_terminate_expands_survivors(self, stack):
        """End-to-end Figure 2: job 2 expands on both nodes once job 1 ends."""
        slurmds, srun = stack
        sim = make_job(name="sim", ntasks=2, cpt=16)
        launch1 = srun.launch(sim)
        analytics = make_job(name="analytics", ntasks=2, cpt=16)
        launch2 = srun.launch(analytics)
        # co-allocation shrank the simulation to 8 CPUs per node
        for task in launch1.tasks():
            assert slurmds[task.node].shmem.get_mask(task.pid).count() == 8
        for task in launch2.tasks():
            assert slurmds[task.node].shmem.get_mask(task.pid).count() == 8
        srun.terminate(sim)
        for task in launch2.tasks():
            assert slurmds[task.node].shmem.get_mask(task.pid) == CpuSet.from_range(0, 16)
