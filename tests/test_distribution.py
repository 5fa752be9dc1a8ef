"""Tests of the mask-distribution policies of the task/affinity plugin."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cpuset.distribution import (
    EquipartitionPolicy,
    JobShare,
    PackedPolicy,
    ProportionalPolicy,
    SocketAwareEquipartition,
    split_among_tasks,
)
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology


@pytest.fixture
def node() -> NodeTopology:
    return NodeTopology.marenostrum3()


class TestJobShare:
    def test_valid(self):
        share = JobShare(job_id=1, ntasks=2, requested_cpus=16)
        assert share.ntasks == 2

    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            JobShare(job_id=1, ntasks=0, requested_cpus=4)

    def test_request_at_least_tasks(self):
        with pytest.raises(ValueError):
            JobShare(job_id=1, ntasks=4, requested_cpus=2)


class TestSplitAmongTasks:
    def test_even_split(self):
        masks = split_among_tasks(CpuSet.from_range(0, 8), 2)
        assert masks[0] == CpuSet.from_range(0, 4)
        assert masks[1] == CpuSet.from_range(4, 8)

    def test_remainder_goes_to_first_tasks(self):
        masks = split_among_tasks(CpuSet.from_range(0, 7), 3)
        assert [m.count() for m in masks] == [3, 2, 2]

    def test_single_task_gets_all(self):
        assert split_among_tasks(CpuSet.from_range(0, 5), 1)[0].count() == 5

    def test_invalid_ntasks(self):
        with pytest.raises(ValueError):
            split_among_tasks(CpuSet.from_range(0, 4), 0)

    def test_masks_are_disjoint_and_cover(self):
        mask = CpuSet([0, 2, 4, 6, 8, 10, 12])
        masks = split_among_tasks(mask, 3)
        union = CpuSet.empty()
        for m in masks:
            assert union.isdisjoint(m)
            union = union | m
        assert union == mask


class TestEquipartition:
    def test_two_full_jobs_split_evenly(self, node):
        """Two full-node requests get half the node each (use case 2)."""
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 16)]
        alloc = EquipartitionPolicy().distribute(node, jobs)
        assert alloc[1].ncpus == 8
        assert alloc[2].ncpus == 8
        assert alloc[1].mask.isdisjoint(alloc[2].mask)

    def test_small_job_only_takes_its_request(self, node):
        """A 2-CPU analytics job leaves the rest to the running simulation
        (the NEST + STREAM case: 'we remove 2 CPUs from the simulation')."""
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 2)]
        alloc = EquipartitionPolicy().distribute(node, jobs)
        assert alloc[2].ncpus == 2
        assert alloc[1].ncpus == 14

    def test_one_cpu_analytics(self, node):
        """Pils Conf. 2 takes a single CPU per node."""
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 1)]
        alloc = EquipartitionPolicy().distribute(node, jobs)
        assert alloc[2].ncpus == 1
        assert alloc[1].ncpus == 15

    def test_every_task_gets_a_cpu(self, node):
        jobs = [JobShare(1, 8, 16), JobShare(2, 8, 16)]
        alloc = EquipartitionPolicy().distribute(node, jobs)
        for job_alloc in alloc.values():
            assert all(not m.is_empty() for m in job_alloc.task_masks)

    def test_oversubscription_rejected(self, node):
        jobs = [JobShare(1, 10, 16), JobShare(2, 10, 16)]
        with pytest.raises(ValueError):
            EquipartitionPolicy().distribute(node, jobs)

    def test_duplicate_job_ids_rejected(self, node):
        with pytest.raises(ValueError):
            EquipartitionPolicy().distribute(node, [JobShare(1, 1, 4), JobShare(1, 1, 4)])

    def test_empty_job_list(self, node):
        assert EquipartitionPolicy().distribute(node, []) == {}


class TestSocketAwareEquipartition:
    def test_two_jobs_get_separate_sockets(self, node):
        """The paper's locality rule: co-allocated jobs end up on different
        sockets when the shares allow it."""
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 16)]
        alloc = SocketAwareEquipartition().distribute(node, jobs)
        assert alloc[1].mask == node.socket_mask(0)
        assert alloc[2].mask == node.socket_mask(1)

    def test_three_jobs_fall_back_to_contiguous(self, node):
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 16), JobShare(3, 1, 16)]
        alloc = SocketAwareEquipartition().distribute(node, jobs)
        total = sum(a.ncpus for a in alloc.values())
        assert total <= node.ncpus
        masks = [a.mask for a in alloc.values()]
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                assert a.isdisjoint(b)

    def test_single_job_keeps_full_request(self, node):
        alloc = SocketAwareEquipartition().distribute(node, [JobShare(1, 1, 16)])
        assert alloc[1].ncpus == 16

    def test_small_job_does_not_get_whole_socket(self, node):
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 2)]
        alloc = SocketAwareEquipartition().distribute(node, jobs)
        assert alloc[2].ncpus == 2
        assert alloc[1].ncpus == 14


class TestProportionalPolicy:
    def test_shares_follow_requests(self, node):
        jobs = [JobShare(1, 1, 12), JobShare(2, 1, 4)]
        alloc = ProportionalPolicy().distribute(node, jobs)
        assert alloc[1].ncpus == 12
        assert alloc[2].ncpus == 4

    def test_never_exceeds_request(self, node):
        jobs = [JobShare(1, 1, 2), JobShare(2, 1, 2)]
        alloc = ProportionalPolicy().distribute(node, jobs)
        assert alloc[1].ncpus <= 2
        assert alloc[2].ncpus <= 2


class TestPackedPolicy:
    def test_first_job_keeps_everything(self, node):
        jobs = [JobShare(1, 1, 16), JobShare(2, 1, 2)]
        with pytest.raises(ValueError):
            # With the running job keeping its full request there is nothing
            # left for the new job: the no-malleability baseline cannot
            # co-allocate without oversubscription.
            PackedPolicy().distribute(node, jobs)

    def test_packing_when_space_remains(self, node):
        jobs = [JobShare(1, 1, 10), JobShare(2, 1, 4)]
        alloc = PackedPolicy().distribute(node, jobs)
        assert alloc[1].ncpus == 10
        assert alloc[2].ncpus == 4


# -- property-based invariants ----------------------------------------------------------

job_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),   # ntasks
        st.integers(min_value=1, max_value=16),  # requested cpus
    ),
    min_size=1,
    max_size=4,
)


@given(job_strategy)
def test_equipartition_invariants(specs):
    """For any feasible job mix: no oversubscription, no empty task masks,
    nobody above its request unless expanding is impossible, full coverage of
    demand."""
    node = NodeTopology.marenostrum3()
    jobs = [
        JobShare(job_id=i + 1, ntasks=t, requested_cpus=max(r, t))
        for i, (t, r) in enumerate(specs)
    ]
    if sum(j.ntasks for j in jobs) > node.ncpus:
        with pytest.raises(ValueError):
            EquipartitionPolicy().distribute(node, jobs)
        return
    alloc = EquipartitionPolicy().distribute(node, jobs)
    union = CpuSet.empty()
    for job in jobs:
        a = alloc[job.job_id]
        # disjointness
        assert union.isdisjoint(a.mask)
        union = union | a.mask
        # every task has at least one CPU
        assert all(m.count() >= 1 for m in a.task_masks)
        # task masks partition the job mask
        task_union = CpuSet.empty()
        for m in a.task_masks:
            assert task_union.isdisjoint(m)
            task_union = task_union | m
        assert task_union == a.mask
        # at least one CPU per task, never more than the node
        assert job.ntasks <= a.ncpus <= node.ncpus
    assert union.issubset(node.full_mask())


@given(job_strategy)
def test_socket_aware_matches_equipartition_shares(specs):
    """The socket-aware variant changes placement, not the share sizes."""
    node = NodeTopology.marenostrum3()
    jobs = [
        JobShare(job_id=i + 1, ntasks=t, requested_cpus=max(r, t))
        for i, (t, r) in enumerate(specs)
    ]
    if sum(j.ntasks for j in jobs) > node.ncpus:
        return
    flat = EquipartitionPolicy().distribute(node, jobs)
    socketed = SocketAwareEquipartition().distribute(node, jobs)
    for job in jobs:
        assert flat[job.job_id].ncpus == socketed[job.job_id].ncpus
