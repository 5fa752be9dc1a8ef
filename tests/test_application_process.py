"""Tests of the ApplicationProcess abstraction (DLB + programming model glue)."""

from __future__ import annotations

import pytest

from repro.core.flags import DromFlags
from repro.cpuset.mask import CpuSet
from repro.runtime.mpi import MpiCommunicator
from repro.runtime.process import ApplicationProcess, ProcessSpec, ThreadModel


def make_process(shmem, thread_model=ThreadModel.OPENMP, pid=1, rank=0, comm=None,
                 mask=None, environ=None):
    spec = ProcessSpec(
        pid=pid,
        node=shmem.name,
        mpi_rank=rank,
        thread_model=thread_model,
        initial_mask=mask or CpuSet.from_range(0, 16),
    )
    return ApplicationProcess(spec, shmem, comm=comm, environ=environ or {})


class TestLifecycle:
    def test_start_registers_and_builds_runtime(self, shmem):
        proc = make_process(shmem)
        proc.start()
        assert proc.started
        assert shmem.has(1)
        assert proc.openmp is not None
        assert proc.num_threads == 16

    def test_double_start_rejected(self, shmem):
        proc = make_process(shmem)
        proc.start()
        with pytest.raises(RuntimeError):
            proc.start()

    def test_finish_unregisters(self, shmem):
        proc = make_process(shmem)
        proc.start()
        proc.finish()
        assert proc.finished
        assert not shmem.has(1)
        proc.finish()  # idempotent

    def test_poll_before_start_rejected(self, shmem):
        proc = make_process(shmem)
        with pytest.raises(RuntimeError):
            proc.poll_malleability()

    def test_ompss_variant(self, shmem):
        proc = make_process(shmem, thread_model=ThreadModel.OMPSS)
        proc.start()
        assert proc.ompss is not None
        assert proc.openmp is None
        assert proc.num_threads == 16

    def test_none_variant_has_no_runtime(self, shmem):
        proc = make_process(shmem, thread_model=ThreadModel.NONE)
        proc.start()
        assert proc.openmp is None and proc.ompss is None


class TestMalleability:
    def test_openmp_process_adopts_new_mask(self, shmem, admin):
        proc = make_process(shmem)
        proc.start()
        admin.set_process_mask(1, CpuSet.from_range(0, 8), DromFlags.STEAL)
        assert proc.poll_malleability() is True
        assert proc.num_threads == 8
        assert proc.current_mask == CpuSet.from_range(0, 8)

    def test_ompss_process_adopts_new_mask(self, shmem, admin):
        proc = make_process(shmem, thread_model=ThreadModel.OMPSS)
        proc.start()
        admin.set_process_mask(1, CpuSet.from_range(4, 8), DromFlags.STEAL)
        assert proc.poll_malleability() is True
        assert proc.current_mask == CpuSet.from_range(4, 8)

    def test_non_malleable_process_never_reacts(self, shmem, admin):
        proc = make_process(shmem, thread_model=ThreadModel.NONE)
        proc.start()
        admin.set_process_mask(1, CpuSet.from_range(0, 4), DromFlags.STEAL)
        assert proc.poll_malleability() is False
        # the runtime view is unchanged even though the registry shrank it
        assert proc.current_mask.count() == 4 or proc.current_mask.count() == 16

    def test_no_pending_change_returns_false(self, shmem):
        proc = make_process(shmem)
        proc.start()
        assert proc.poll_malleability() is False

    def test_mask_listeners_fire(self, shmem, admin):
        proc = make_process(shmem)
        proc.start()
        seen = []
        proc.on_mask_change(lambda mask: seen.append(mask.count()))
        admin.set_process_mask(1, CpuSet.from_range(0, 2), DromFlags.STEAL)
        proc.poll_malleability()
        assert seen == [2]

    def test_enter_parallel_region_polls_through_ompt(self, shmem, admin):
        proc = make_process(shmem)
        proc.start()
        admin.set_process_mask(1, CpuSet.from_range(0, 10), DromFlags.STEAL)
        team = proc.enter_parallel_region()
        assert team == 10
        assert proc.num_threads == 10

    def test_enter_parallel_region_requires_openmp(self, shmem):
        proc = make_process(shmem, thread_model=ThreadModel.OMPSS)
        proc.start()
        with pytest.raises(RuntimeError):
            proc.enter_parallel_region()


class TestPreInitFlow:
    def test_process_adopts_preinit_reservation(self, shmem, admin):
        """The DROM_PreInit -> fork/exec -> DLB_Init workflow of Section 3.2."""
        shmem.register(100, CpuSet.from_range(0, 16))
        result = admin.pre_init(200, CpuSet.from_range(8, 16), DromFlags.STEAL)
        proc = make_process(
            shmem, pid=200, mask=None if False else CpuSet.from_range(8, 16),
            environ=result.next_environ,
        )
        proc.start()
        assert proc.current_mask == CpuSet.from_range(8, 16)
        # the running process sees its shrink at its next malleability point
        victim_mask, _ = shmem.poll(100)
        assert victim_mask == CpuSet.from_range(0, 8)

    def test_pmpi_interception_installed_with_comm(self, shmem, admin):
        comm = MpiCommunicator(size=2)
        proc = make_process(shmem, comm=comm, rank=0)
        proc.start()
        admin.set_process_mask(1, CpuSet.from_range(0, 4), DromFlags.STEAL)
        # An MPI call by this rank is a malleability point.
        comm.rank(0).barrier()
        assert proc.num_threads == 4
