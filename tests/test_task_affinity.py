"""Tests of the DROM-enabled task/affinity plugin (Figure 2's flow)."""

from __future__ import annotations

import pytest

from repro.core.drom import attach_admin
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology
from repro.slurm.task_affinity import TaskAffinityPlugin


@pytest.fixture
def plugin_setup():
    node = NodeTopology.marenostrum3()
    shmem = NodeSharedMemory(node)
    admin = attach_admin(shmem)
    plugin = TaskAffinityPlugin(node, admin, drom_enabled=True)
    return node, shmem, admin, plugin


@pytest.fixture
def stock_plugin_setup():
    node = NodeTopology.marenostrum3()
    shmem = NodeSharedMemory(node)
    admin = attach_admin(shmem)
    plugin = TaskAffinityPlugin(node, admin, drom_enabled=False)
    return node, shmem, admin, plugin


class TestLaunchRequest:
    def test_first_job_gets_requested_cpus(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        plan = plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        assert len(plan.new_tasks) == 1
        assert plan.new_tasks[0].mask == CpuSet.from_range(0, 16)
        assert plan.running_updates == {}
        assert plugin.local_jobs() == [1]

    def test_second_job_triggers_repartition(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        plan1 = plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plan2 = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=16)
        # Both jobs end up with half the node, on separate sockets.
        assert plan2.new_tasks[0].mask.count() == 8
        assert 1 in plan2.running_updates
        pid, new_mask = plan2.running_updates[1][0]
        assert pid == 101
        assert new_mask.count() == 8
        assert new_mask.isdisjoint(plan2.new_tasks[0].mask)

    def test_small_second_job_takes_only_its_request(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plan2 = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=2)
        assert plan2.new_tasks[0].mask.count() == 2
        assert plan2.running_updates[1][0][1].count() == 14

    def test_same_job_twice_rejected(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=4)
        with pytest.raises(ValueError):
            plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=4)

    def test_stock_plugin_requires_free_cpus(self, stock_plugin_setup):
        _, _, _, plugin = stock_plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        with pytest.raises(ValueError):
            plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=16)

    def test_stock_plugin_packs_when_space_exists(self, stock_plugin_setup):
        _, _, _, plugin = stock_plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=10)
        plan = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=4)
        assert plan.new_tasks[0].mask.count() == 4
        assert plan.new_tasks[0].mask.isdisjoint(plugin.job_mask(1))
        assert plan.running_updates == {}


class TestPreLaunch:
    def test_pre_launch_registers_in_shmem(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=2, cpus_per_task=8)
        result0 = plugin.pre_launch(1, 0, pid=101)
        result1 = plugin.pre_launch(1, 1, pid=102)
        assert shmem.has(101) and shmem.has(102)
        assert CpuSet.parse(result0.next_environ["DLB_DROM_PREINIT_MASK"]).count() == 8
        assert shmem.get_mask(101).isdisjoint(shmem.get_mask(102))

    def test_pre_launch_applies_running_updates(self, plugin_setup):
        """The running job's shrink reaches the DLB shared memory before the
        new task is pre-initialised (the paper's step 2 then 2.1)."""
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(2, 0, pid=201)
        assert shmem.get_mask(101).count() == 8
        assert shmem.get_mask(201).count() == 8
        assert shmem.oversubscribed_cpus().is_empty()
        # the running process discovers the shrink at its next poll
        assert shmem.poll(101)[0].count() == 8


class TestPostTermAndRelease:
    def test_post_term_cleans_entry(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.post_term(1, 0)
        assert not shmem.has(101)

    def test_post_term_without_pid_is_noop(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.post_term(1, 0)  # pid never assigned

    def test_release_resources_expands_survivor(self, plugin_setup):
        """Figure 2 step 5: when the CPU owner finishes, the co-allocated job
        expands to keep the node fully utilised."""
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(2, 0, pid=201)
        # job 1 finishes
        plugin.post_term(1, 0)
        new_masks = plugin.release_resources(1)
        assert new_masks == {201: CpuSet.from_range(0, 16)}
        assert shmem.get_mask(201) == CpuSet.from_range(0, 16)
        assert plugin.local_jobs() == [2]

    def test_release_resources_last_job_is_noop(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.post_term(1, 0)
        assert plugin.release_resources(1) == {}

    def test_release_unknown_job_is_noop(self, plugin_setup):
        _, _, _, plugin = plugin_setup
        assert plugin.release_resources(42) == {}

    def test_release_does_not_expand_non_malleable_jobs(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=8, malleable=False)
        plugin.pre_launch(2, 0, pid=201)
        plugin.post_term(1, 0)
        new_masks = plugin.release_resources(1)
        assert new_masks == {}
        assert shmem.get_mask(201).count() == 8


class TestMaskAccounting:
    def test_used_and_free_masks(self, plugin_setup):
        node, _, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=6)
        assert plugin.used_mask().count() == 6
        assert plugin.free_mask().count() == node.ncpus - 6
        assert plugin.job_mask(1).count() == 6
