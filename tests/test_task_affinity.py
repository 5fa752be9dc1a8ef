"""Tests of the DROM-enabled task/affinity plugin (Figure 2's flow)."""

from __future__ import annotations

import pytest

from repro.core.drom import attach_admin
from repro.core.errors import DlbError
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

    def test_second_job_triggers_repartition(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plan2 = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=16)
        # Both jobs end up with half the node, on separate sockets.
        assert plan2.new_tasks[0].mask.count() == 8
        # The running job's new mask is pushed at the step's pre_launch,
        # not at launch_request (Figure 2).
        assert shmem.get_mask(101).count() == 16
        plugin.pre_launch(2, 0, pid=201)
        assert shmem.get_mask(101).count() == 8
        assert shmem.get_mask(101).isdisjoint(plan2.new_tasks[0].mask)

    def test_small_second_job_takes_only_its_request(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plan2 = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=2)
        plugin.pre_launch(2, 0, pid=201)
        assert plan2.new_tasks[0].mask.count() == 2
        assert shmem.get_mask(101).count() == 14

    def test_launch_leaves_a_non_malleable_job_on_its_cpus(self, plugin_setup):
        """A non-malleable task never polls: a malleable job launching next
        to it shares only the CPUs it does not hold, and it is never
        rewritten."""
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=4, malleable=False)
        plugin.pre_launch(1, 0, pid=101)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 4)
        plan = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(2, 0, pid=201)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 4)
        assert not shmem.entry(101).dirty
        assert plan.new_tasks[0].mask.count() == 8
        assert shmem.get_mask(201) == plan.new_tasks[0].mask
        assert shmem.get_mask(201).isdisjoint(CpuSet.from_range(0, 4))
        assert shmem.oversubscribed_cpus().is_empty()

    def test_launch_spares_a_non_malleable_job_not_yet_pre_launched(self, plugin_setup):
        """Before its ``pre_launch`` a non-malleable task holds its launch
        mask, which a later launch leaves out of the split too."""
        _, shmem, _, plugin = plugin_setup
        rigid = plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=4, malleable=False)
        plan = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.pre_launch(2, 0, pid=201)
        assert shmem.get_mask(101) == rigid.new_tasks[0].mask == CpuSet.from_range(0, 4)
        assert shmem.get_mask(201) == plan.new_tasks[0].mask
        assert shmem.oversubscribed_cpus().is_empty()

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
        _, shmem, _, plugin = stock_plugin_setup
        plan1 = plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=10)
        plugin.pre_launch(1, 0, pid=101)
        plan = plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=4)
        plugin.pre_launch(2, 0, pid=201)
        assert plan.new_tasks[0].mask.count() == 4
        assert plan.new_tasks[0].mask.isdisjoint(plan1.new_tasks[0].mask)
        # The running job is never touched.
        assert shmem.get_mask(101) == plan1.new_tasks[0].mask


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

    def test_pre_launch_moves_running_tasks_to_their_new_masks(self, plugin_setup):
        """The running jobs get the masks the policy computed, not just what
        the new task's CPU steal leaves them."""
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=4)
        plugin.pre_launch(2, 0, pid=201)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 8)
        assert shmem.get_mask(201) == CpuSet.from_range(8, 12)
        plan = plugin.launch_request(job_id=3, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(3, 0, pid=301)
        # Equipartition 6/4/6, laid out contiguously: job 2 moves down.
        assert shmem.get_mask(101) == CpuSet.from_range(0, 6)
        assert shmem.get_mask(201) == CpuSet.from_range(6, 10)
        assert shmem.get_mask(301) == plan.new_tasks[0].mask == CpuSet.from_range(10, 16)
        assert shmem.oversubscribed_cpus().is_empty()

    def test_repartition_may_move_a_job_onto_all_of_another_jobs_cpus(
        self, plugin_setup, monkeypatch
    ):
        """Job 1 moves onto every CPU job 2 holds before job 2 moves: the
        targets are written in one pass, and the shared memory lets a write
        strip a pid that its own write then moves."""
        _, shmem, admin, plugin = plugin_setup
        for job_id, cpus in ((1, 8), (2, 2)):
            plugin.launch_request(job_id=job_id, ntasks=1, cpus_per_task=cpus)
            plugin.pre_launch(job_id, 0, pid=100 * job_id + 1)
        assert shmem.get_mask(201) == CpuSet([8, 9])
        calls = []
        set_process_mask = admin.set_process_mask

        def spy(pid, mask, flags):
            code = set_process_mask(pid, mask, flags)
            calls.append((pid, code))
            return code

        monkeypatch.setattr(admin, "set_process_mask", spy)
        plan = plugin.launch_request(job_id=3, ntasks=1, cpus_per_task=12)
        plugin.pre_launch(3, 0, pid=301)
        assert calls == [(101, DlbError.DLB_NOTED), (201, DlbError.DLB_NOTED)]
        assert shmem.get_mask(101) == CpuSet.from_range(8, 14)
        assert shmem.get_mask(201) == CpuSet.from_range(14, 16)
        assert shmem.get_mask(301) == plan.new_tasks[0].mask == CpuSet.from_range(0, 8)


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
        assert shmem.get_mask(201) == CpuSet.from_range(8, 16)
        plugin.release_resources(1)
        assert shmem.pids() == [201]
        assert shmem.get_mask(201) == CpuSet.from_range(0, 16)
        # job 1 is forgotten: a second release is a no-op
        plugin.release_resources(1)
        assert shmem.pids() == [201]
        assert shmem.get_mask(201) == CpuSet.from_range(0, 16)

    def test_release_resources_last_job_is_noop(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.post_term(1, 0)
        plugin.release_resources(1)
        assert shmem.pids() == []
        assert shmem.free_mask().count() == 16

    def test_release_unknown_job_is_noop(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.release_resources(42)
        assert shmem.pids() == [101]
        assert shmem.get_mask(101) == CpuSet.from_range(0, 8)
        assert not shmem.entry(101).dirty

    def test_release_does_not_expand_non_malleable_jobs(self, plugin_setup):
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=8)
        plugin.pre_launch(1, 0, pid=101)
        plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=8, malleable=False)
        plugin.pre_launch(2, 0, pid=201)
        plugin.post_term(1, 0)
        mask = shmem.get_mask(201)
        plugin.release_resources(1)
        assert shmem.get_mask(201) == mask
        assert mask.count() == 8
        assert not shmem.entry(201).dirty

    def test_release_swaps_jobs_across_sockets(self, plugin_setup):
        """Job 2 takes socket 0 and moves job 1 to socket 1; job 3's release
        swaps them back.  Job 1's write takes every CPU job 2 holds and job
        2's write then finds its target free.  Job 1 records what it took,
        which it returns to job 2 when it ends."""
        _, shmem, _, plugin = plugin_setup
        for job_id, cpus in ((1, 4), (2, 8), (3, 4)):
            plugin.launch_request(job_id=job_id, ntasks=1, cpus_per_task=cpus)
            plugin.pre_launch(job_id, 0, pid=100 * job_id + 1)
        assert [shmem.get_mask(pid) for pid in (101, 201, 301)] == [
            CpuSet.from_range(8, 12), CpuSet.from_range(0, 8), CpuSet.from_range(12, 16)
        ]
        plugin.post_term(3, 0)
        plugin.release_resources(3)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 8)
        assert shmem.get_mask(201) == CpuSet.from_range(8, 16)
        assert shmem.entry(101).stolen_from == {201: CpuSet.from_range(0, 8)}
        assert shmem.entry(201).stolen_from == {}
        plugin.post_term(1, 0)
        assert shmem.get_mask(201) == CpuSet.from_range(0, 16)

    def test_release_with_a_non_malleable_survivor_completes(self, plugin_setup):
        """The malleable survivor grows to every CPU the non-malleable
        survivor does not hold: the non-malleable task never polls, so it
        keeps its CPUs, and no CPU is assigned twice."""
        _, shmem, _, plugin = plugin_setup
        for job_id, cpus, malleable in ((1, 8, True), (2, 4, False), (3, 4, True)):
            plugin.launch_request(
                job_id=job_id, ntasks=1, cpus_per_task=cpus, malleable=malleable
            )
            plugin.pre_launch(job_id, 0, pid=100 * job_id + 1)
        assert shmem.get_mask(201) == CpuSet.from_range(8, 12)
        plugin.post_term(1, 0)
        plugin.release_resources(1)
        assert shmem.get_mask(301) == CpuSet.from_range(0, 8) | CpuSet.from_range(12, 16)
        assert shmem.get_mask(201) == CpuSet.from_range(8, 12)
        assert shmem.entry(201).current_mask == CpuSet.from_range(8, 12)
        assert shmem.oversubscribed_cpus().is_empty()

    def test_release_around_a_non_malleable_survivor_on_part_of_a_socket(
        self, plugin_setup
    ):
        """The malleable survivors share the CPUs around a non-malleable job
        holding part of socket 0: a whole socket is granted only when it is
        wholly free, so every survivor keeps CPUs and none is assigned twice."""
        _, shmem, _, plugin = plugin_setup
        jobs = ((1, False), (2, True), (3, True), (4, True), (5, True))
        for job_id, malleable in jobs:
            plugin.launch_request(
                job_id=job_id, ntasks=1, cpus_per_task=4, malleable=malleable
            )
            plugin.pre_launch(job_id, 0, pid=100 * job_id + 1)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 4)
        plugin.post_term(5, 0)
        plugin.release_resources(5)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 4)
        assert [shmem.get_mask(pid).count() for pid in (201, 301, 401)] == [4, 4, 4]
        assert shmem.oversubscribed_cpus().is_empty()

    def test_release_grants_only_wholly_free_sockets(self, plugin_setup):
        """Two non-malleable jobs on 4-11 leave 8 CPUs, a socket's worth,
        to the malleable survivor, but no socket is wholly free: it gets
        0-3 and 12-15, not socket 0, half of which a rigid job runs on."""
        _, shmem, _, plugin = plugin_setup
        for job_id, malleable in ((1, True), (2, False), (3, False), (4, True)):
            plugin.launch_request(
                job_id=job_id, ntasks=1, cpus_per_task=4, malleable=malleable
            )
            plugin.pre_launch(job_id, 0, pid=100 * job_id + 1)
        plugin.post_term(1, 0)
        plugin.release_resources(1)
        assert shmem.get_mask(401) == CpuSet.from_range(0, 4) | CpuSet.from_range(12, 16)
        assert shmem.get_mask(201) == CpuSet.from_range(4, 8)
        assert shmem.get_mask(301) == CpuSet.from_range(8, 12)
        assert shmem.oversubscribed_cpus().is_empty()

    def test_release_restores_a_shrink_the_survivor_has_not_polled(self, plugin_setup):
        """A survivor shrunk by a launch and not yet polled still runs with
        its old mask; the release must rewrite the mask it is *assigned*."""
        _, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(1, 0, pid=101)
        plugin.launch_request(job_id=2, ntasks=1, cpus_per_task=16)
        plugin.pre_launch(2, 0, pid=201)
        assert shmem.entry(101).current_mask == CpuSet.from_range(0, 16)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 8)
        plugin.post_term(2, 0)
        plugin.release_resources(2)
        assert shmem.get_mask(101) == CpuSet.from_range(0, 16)
        assert not shmem.entry(101).dirty

    def test_release_writes_only_masks_that_change(self, plugin_setup, monkeypatch):
        """After a completion, DROM_SetProcessMask is called only for the
        pids whose assigned mask changes."""
        _, shmem, admin, plugin = plugin_setup
        for job_id, cpus in ((1, 8), (2, 4), (3, 4)):
            plugin.launch_request(job_id=job_id, ntasks=1, cpus_per_task=cpus)
            plugin.pre_launch(job_id, 0, pid=100 * job_id + 1)
        # job 1 on socket 0, jobs 2 and 3 share socket 1
        assert shmem.get_mask(101) == CpuSet.from_range(0, 8)
        assert shmem.get_mask(301) == CpuSet.from_range(12, 16)
        calls = []
        set_process_mask = admin.set_process_mask

        def spy(pid, mask, flags):
            calls.append((pid, shmem.get_mask(pid), mask))
            return set_process_mask(pid, mask, flags)

        monkeypatch.setattr(admin, "set_process_mask", spy)
        plugin.post_term(2, 0)
        plugin.release_resources(2)
        # job 1 keeps socket 0 (no write); job 3 grows to socket 1.
        assert calls == [(301, CpuSet.from_range(12, 16), CpuSet.from_range(8, 16))]
        assert shmem.get_mask(101) == CpuSet.from_range(0, 8)
        assert shmem.get_mask(301) == CpuSet.from_range(8, 16)


class TestMaskAccounting:
    def test_used_and_free_masks(self, plugin_setup):
        node, shmem, _, plugin = plugin_setup
        plugin.launch_request(job_id=1, ntasks=1, cpus_per_task=6)
        plugin.pre_launch(1, 0, pid=101)
        assert shmem.busy_mask().count() == 6
        assert shmem.free_mask().count() == node.ncpus - 6
        assert shmem.get_mask(101).count() == 6
