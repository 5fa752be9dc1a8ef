"""Tests of the DLB node shared memory (registration, stealing, polling)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import (
    CpuOwnershipError,
    ProcessAlreadyRegisteredError,
    ProcessNotRegisteredError,
)
from repro.core.shmem import NodeSharedMemory, ShmemRegistry
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology


class TestRegistration:
    def test_register_and_query(self, shmem):
        entry = shmem.register(100, CpuSet.from_range(0, 8))
        assert entry.pid == 100
        assert entry.current_mask == CpuSet.from_range(0, 8)
        assert not entry.dirty
        assert shmem.has(100)
        assert shmem.pids() == [100]
        assert len(shmem) == 1

    def test_register_twice_rejected(self, shmem):
        shmem.register(100, CpuSet.from_range(0, 4))
        with pytest.raises(ProcessAlreadyRegisteredError):
            shmem.register(100, CpuSet.from_range(4, 8))

    def test_register_outside_topology_rejected(self, shmem):
        with pytest.raises(ValueError):
            shmem.register(100, CpuSet([99]))

    def test_register_empty_mask_rejected(self, shmem):
        with pytest.raises(ValueError):
            shmem.register(100, CpuSet.empty())

    def test_overlap_without_steal_rejected(self, shmem):
        shmem.register(100, CpuSet.from_range(0, 8))
        with pytest.raises(CpuOwnershipError):
            shmem.register(200, CpuSet.from_range(4, 12))

    def test_overlap_with_steal_shrinks_victim(self, shmem):
        shmem.register(100, CpuSet.from_range(0, 16))
        entry = shmem.register(200, CpuSet.from_range(8, 16), steal=True)
        assert entry.assigned_mask == CpuSet.from_range(8, 16)
        victim = shmem.entry(100)
        assert victim.assigned_mask == CpuSet.from_range(0, 8)
        assert victim.dirty  # not yet acknowledged
        assert entry.stolen_from == {100: CpuSet.from_range(8, 16)}

    def test_steal_that_empties_a_victim_is_refused(self, shmem):
        shmem.register(1, CpuSet([0]))
        with pytest.raises(CpuOwnershipError):
            shmem.register(2, CpuSet([0, 1]), steal=True)
        assert shmem.pids() == [1]
        assert shmem.get_mask(1) == CpuSet([0])
        assert not shmem.entry(1).dirty

    def test_steal_checks_every_victim_before_writing(self, shmem):
        """Pid 1 could lose CPU 1, but pid 2 would lose its only CPU: the
        whole registration is refused and pid 1 keeps its mask too."""
        shmem.register(1, CpuSet([0, 1]))
        shmem.register(2, CpuSet([2]))
        with pytest.raises(CpuOwnershipError):
            shmem.register(3, CpuSet([1, 2, 3]), steal=True)
        assert shmem.pids() == [1, 2]
        assert [shmem.get_mask(pid) for pid in (1, 2)] == [CpuSet([0, 1]), CpuSet([2])]
        assert not any(entry.dirty for entry in shmem)
        assert all(entry.stolen_from == {} for entry in shmem)

    def test_capacity_limit(self, mn3_node):
        shmem = NodeSharedMemory(mn3_node, max_processes=2)
        shmem.register(1, CpuSet([0]))
        shmem.register(2, CpuSet([1]))
        with pytest.raises(CpuOwnershipError):
            shmem.register(3, CpuSet([2]))

    def test_unregister(self, shmem):
        shmem.register(100, CpuSet([0]))
        shmem.unregister(100)
        assert not shmem.has(100)
        with pytest.raises(ProcessNotRegisteredError):
            shmem.unregister(100)

    def test_iteration_yields_entries(self, shmem):
        shmem.register(1, CpuSet([0]))
        shmem.register(2, CpuSet([1]))
        assert sorted(e.pid for e in shmem) == [1, 2]


class TestMaskManagement:
    def test_set_mask_marks_dirty_until_poll(self, shmem):
        shmem.register(100, CpuSet.from_range(0, 16))
        shmem.set_mask(100, CpuSet.from_range(0, 8))
        entry = shmem.entry(100)
        assert entry.dirty
        assert entry.assigned_mask == CpuSet.from_range(0, 8)
        assert entry.current_mask == CpuSet.from_range(0, 16)
        polled = shmem.poll(100)
        assert polled == (CpuSet.from_range(0, 8), CpuSet.from_range(0, 8))
        assert not shmem.entry(100).dirty
        assert shmem.entry(100).updates_applied == 1

    def test_poll_without_update_returns_none(self, shmem):
        shmem.register(100, CpuSet([0]))
        assert shmem.poll(100) == (None, CpuSet([0]))

    def test_set_mask_unknown_pid(self, shmem):
        with pytest.raises(ProcessNotRegisteredError):
            shmem.set_mask(999, CpuSet([0]))

    def test_set_mask_empty_rejected(self, shmem):
        shmem.register(100, CpuSet([0]))
        with pytest.raises(ValueError):
            shmem.set_mask(100, CpuSet.empty())

    def test_set_mask_steal_from_other(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 8))
        shmem.register(2, CpuSet.from_range(8, 16))
        shmem.set_mask(2, CpuSet.from_range(4, 16), steal=True)
        assert shmem.get_mask(1) == CpuSet.from_range(0, 4)
        assert shmem.get_mask(2) == CpuSet.from_range(4, 16)

    def test_set_mask_steal_may_strip_a_pid(self, shmem):
        """A re-partition writes its targets one at a time, so a steal may
        take every CPU of a pid that is written its own target next."""
        shmem.register(1, CpuSet([0]))
        shmem.register(2, CpuSet([1]))
        shmem.set_mask(2, CpuSet([0, 1]), steal=True)
        assert shmem.get_mask(1) == CpuSet.empty()
        assert shmem.entry(1).dirty
        assert shmem.entry(2).stolen_from == {1: CpuSet([0])}
        shmem.set_mask(1, CpuSet([2]), steal=True)
        assert shmem.get_mask(1) == CpuSet([2])

    def test_set_mask_overlap_without_steal_rejected(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 8))
        shmem.register(2, CpuSet.from_range(8, 16))
        with pytest.raises(CpuOwnershipError):
            shmem.set_mask(2, CpuSet.from_range(6, 16))

    def test_busy_free_and_oversubscribed(self, shmem, mn3_node):
        shmem.register(1, CpuSet.from_range(0, 4))
        shmem.register(2, CpuSet.from_range(8, 10))
        assert shmem.busy_mask() == CpuSet.from_range(0, 4) | CpuSet.from_range(8, 10)
        assert shmem.free_mask() == mn3_node.full_mask() - shmem.busy_mask()
        assert shmem.oversubscribed_cpus().is_empty()

    def test_return_stolen_restores_owner(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 16))
        shmem.register(2, CpuSet.from_range(8, 16), steal=True)
        returned = shmem.unregister(2, return_stolen=True)
        assert returned == {1: CpuSet.from_range(8, 16)}
        assert shmem.get_mask(1) == CpuSet.from_range(0, 16)
        # the thief leaves with the give-back: no emptied pid stays registered
        assert shmem.pids() == [1]

    def test_return_stolen_skips_gone_owner(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 16))
        shmem.register(2, CpuSet.from_range(8, 16), steal=True)
        shmem.unregister(1)
        assert shmem.unregister(2, return_stolen=True) == {}
        assert shmem.free_mask() == CpuSet.from_range(0, 16)

    def test_return_stolen_gives_a_cpu_back_once(self, shmem):
        """A CPU stolen from two owners in turn goes back to one of them."""
        shmem.register(1, CpuSet([0]))
        shmem.register(2, CpuSet([1]))
        shmem.register(3, CpuSet([2]))
        shmem.set_mask(3, CpuSet([0, 2]), steal=True)
        shmem.set_mask(3, CpuSet([2]))
        shmem.set_mask(2, CpuSet([0, 1]))
        shmem.set_mask(3, CpuSet([0, 2]), steal=True)
        assert shmem.entry(3).stolen_from == {1: CpuSet([0]), 2: CpuSet([0])}
        assert shmem.unregister(3, return_stolen=True) == {1: CpuSet([0])}
        assert shmem.oversubscribed_cpus().is_empty()
        assert shmem.get_mask(2) == CpuSet([1])

    def test_unregister_without_return_keeps_stolen_cpus_free(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 16))
        shmem.register(2, CpuSet.from_range(8, 16), steal=True)
        assert shmem.unregister(2) == {}
        assert shmem.get_mask(1) == CpuSet.from_range(0, 8)

    def test_no_op_assignment_does_not_mark_dirty(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 4))
        shmem.set_mask(1, CpuSet.from_range(0, 4))
        assert not shmem.entry(1).dirty


class TestAsyncAndObservers:
    def test_async_callback_delivers_immediately(self, shmem):
        shmem.register(1, CpuSet.from_range(0, 16))
        received = []
        shmem.set_async_callback(1, lambda pid, mask: received.append((pid, mask)))
        shmem.set_mask(1, CpuSet.from_range(0, 8))
        assert received == [(1, CpuSet.from_range(0, 8))]
        # already acknowledged: nothing pending to poll
        assert not shmem.entry(1).dirty
        assert shmem.poll(1) == (None, CpuSet.from_range(0, 8))


class TestShmemRegistry:
    def test_create_get(self, mn3_node):
        registry = ShmemRegistry()
        shmem = registry.create(mn3_node)
        assert registry.get(mn3_node.name) is shmem
        assert mn3_node.name in registry
        assert len(registry) == 1
        assert registry.names() == [mn3_node.name]

    def test_create_twice_rejected(self, mn3_node):
        registry = ShmemRegistry()
        registry.create(mn3_node)
        with pytest.raises(ValueError):
            registry.create(mn3_node)

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            ShmemRegistry().get("nope")


# -- property: assigned masks stay pairwise disjoint ------------------------------------

_pids = st.integers(min_value=1, max_value=5)
_masks = st.sets(st.integers(min_value=0, max_value=15), min_size=1).map(CpuSet)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _pids, _masks),
        st.tuples(st.just("set_mask"), _pids, _masks),
        st.tuples(st.just("unregister"), _pids, st.booleans()),
        st.tuples(st.just("poll"), _pids),
    ),
    max_size=30,
)


def _snapshot(shmem: NodeSharedMemory) -> list[tuple]:
    return [
        (e.pid, e.assigned_mask, e.current_mask, dict(e.stolen_from), e.updates_applied)
        for e in shmem
    ]


@given(_operations)
def test_steal_keeps_assigned_masks_disjoint_and_rewrites_are_noops(operations):
    """Every mutation with STEAL keeps the assigned masks pairwise disjoint
    (``oversubscribed_cpus`` stays empty), so writing an entry's own assigned
    mask finds no overlap and changes no entry — the rule that lets the
    task/affinity plugin skip such writes.  A registration whose steal would
    take every CPU of another pid is refused with the state unchanged, and a
    finishing process gives its stolen CPUs back as it unregisters, so a
    registered pid holds no CPU only after a ``set_mask`` stripped it (a
    re-partition writes that pid its own target next)."""
    shmem = NodeSharedMemory(NodeTopology.marenostrum3())
    may_be_empty: set[int] = set()
    for op, pid, *mask in operations:
        if op == "register":
            if shmem.has(pid):
                continue
            before = _snapshot(shmem)
            if any(e.assigned_mask and e.assigned_mask <= mask[0] for e in shmem):
                with pytest.raises(CpuOwnershipError):
                    shmem.register(pid, mask[0], steal=True)
                assert _snapshot(shmem) == before
            else:
                shmem.register(pid, mask[0], steal=True)
        elif not shmem.has(pid):
            continue
        elif op == "set_mask":
            may_be_empty.update(e.pid for e in shmem if e.assigned_mask <= mask[0])
            may_be_empty.discard(pid)
            shmem.set_mask(pid, mask[0], steal=True)
        elif op == "unregister":
            shmem.unregister(pid, return_stolen=mask[0])
            may_be_empty.discard(pid)
        else:
            shmem.poll(pid)
        assert shmem.oversubscribed_cpus().is_empty()
        seen = CpuSet.empty()
        for entry in shmem:
            assert entry.assigned_mask.isdisjoint(seen)
            assert entry.assigned_mask or entry.pid in may_be_empty
            seen = seen | entry.assigned_mask
    for entry in shmem:
        before = _snapshot(shmem)
        for steal in (True, False):
            try:
                shmem.set_mask(entry.pid, entry.assigned_mask, steal=steal)
            except ValueError:
                # A pid left without CPUs cannot be written an empty mask.
                assert entry.pid in may_be_empty and not entry.assigned_mask
            assert _snapshot(shmem) == before
