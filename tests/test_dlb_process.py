"""Tests of the process-side DLB handle (DLB_Init / DLB_PollDROM / DLB_Finalize)."""

from __future__ import annotations

import pytest

from repro.core.dlb import DlbProcess
from repro.core.drom import DROM_PREINIT_MASK_ENV, DROM_PREINIT_PID_ENV
from repro.core.errors import DlbError, DlbException
from repro.core.flags import DromFlags
from repro.cpuset.mask import CpuSet


class TestLifecycle:
    def test_init_registers_with_mask(self, shmem):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet.from_range(0, 4), environ={})
        assert proc.init() is DlbError.DLB_SUCCESS
        assert proc.initialized
        assert shmem.has(1)
        assert proc.current_mask() == CpuSet.from_range(0, 4)

    def test_double_init(self, shmem):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet([0]), environ={})
        proc.init()
        assert proc.init() is DlbError.DLB_ERR_INIT

    def test_init_without_mask_and_without_preinit_raises(self, shmem):
        proc = DlbProcess(pid=1, shmem=shmem, environ={})
        with pytest.raises(DlbException):
            proc.init()

    def test_finalize_unregisters(self, shmem):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet([0]), environ={})
        proc.init()
        assert proc.finalize() is DlbError.DLB_SUCCESS
        assert not shmem.has(1)
        assert proc.finalize() is DlbError.DLB_ERR_NOINIT

    def test_finalize_tolerates_admin_cleanup(self, shmem, admin):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet([0]), environ={})
        proc.init()
        admin.post_finalize(1, DromFlags.NONE)
        # The administrator already removed the entry; finalize still succeeds.
        assert proc.finalize() is DlbError.DLB_SUCCESS

    def test_operations_before_init_raise(self, shmem):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet([0]), environ={})
        with pytest.raises(DlbException):
            proc.poll_drom()
        with pytest.raises(DlbException):
            proc.current_mask()
        with pytest.raises(DlbException):
            proc.enable_async(lambda mask: None)


class TestPreInitAdoption:
    def test_init_adopts_preinitialized_entry(self, shmem, admin):
        result = admin.pre_init(55, CpuSet.from_range(4, 8), DromFlags.NONE)
        proc = DlbProcess(pid=55, shmem=shmem, environ=result.next_environ)
        assert proc.init() is DlbError.DLB_SUCCESS
        assert proc.current_mask() == CpuSet.from_range(4, 8)
        assert not shmem.entry(55).preinitialized

    def test_init_from_mask_env_when_entry_missing(self, shmem):
        environ = {DROM_PREINIT_MASK_ENV: "2-3"}
        proc = DlbProcess(pid=7, shmem=shmem, environ=environ)
        assert proc.init() is DlbError.DLB_SUCCESS
        assert proc.current_mask() == CpuSet([2, 3])

    def test_preinit_env_for_other_pid_is_ignored(self, shmem, admin):
        admin.pre_init(55, CpuSet.from_range(4, 8), DromFlags.NONE)
        environ = {DROM_PREINIT_PID_ENV: "55", DROM_PREINIT_MASK_ENV: "4-7"}
        proc = DlbProcess(pid=77, shmem=shmem, mask=CpuSet([0]), environ=environ)
        assert proc.init() is DlbError.DLB_SUCCESS
        assert proc.current_mask() == CpuSet([0])


class TestPolling:
    def test_poll_without_update(self, shmem):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet.from_range(0, 4), environ={})
        proc.init()
        code, ncpus, mask = proc.poll_drom()
        assert code is DlbError.DLB_NOUPDT
        assert ncpus == 4
        assert mask is None
        assert proc.polls == 1
        assert proc.updates == 0

    def test_poll_takes_the_shmem_lock_once(self, shmem, admin):
        """A poll reads the update and the mask it reports under one lock,
        with or without an update."""

        class CountingLock:
            def __init__(self, lock):
                self.lock, self.entered = lock, 0

            def __enter__(self):
                self.entered += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet.from_range(0, 16), environ={})
        proc.init()
        admin.set_process_mask(1, CpuSet.from_range(0, 8))
        shmem._lock = counting = CountingLock(shmem._lock)
        assert proc.poll_drom() == (DlbError.DLB_SUCCESS, 8, CpuSet.from_range(0, 8))
        assert counting.entered == 1
        assert proc.poll_drom() == (DlbError.DLB_NOUPDT, 8, None)
        assert counting.entered == 2

    def test_poll_after_admin_change(self, shmem, admin):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet.from_range(0, 16), environ={})
        proc.init()
        admin.set_process_mask(1, CpuSet.from_range(0, 8))
        code, ncpus, mask = proc.poll_drom()
        assert code is DlbError.DLB_SUCCESS
        assert ncpus == 8
        assert mask == CpuSet.from_range(0, 8)
        assert proc.updates == 1
        # second poll: nothing new
        assert proc.poll_drom()[0] is DlbError.DLB_NOUPDT

    def test_listing_1_manual_integration_pattern(self, shmem, admin):
        """The iterative-application pattern of Listing 1 works end to end."""
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet.from_range(0, 16), environ={})
        proc.init()
        applied: list[int] = []
        for iteration in range(5):
            if iteration == 2:
                admin.set_process_mask(1, CpuSet.from_range(0, 12))
            code, ncpus, mask = proc.poll_drom()
            if code is DlbError.DLB_SUCCESS:
                applied.append(ncpus)
        proc.finalize()
        assert applied == [12]


class TestAsyncMode:
    def test_async_callback_replaces_polling(self, shmem, admin):
        proc = DlbProcess(pid=1, shmem=shmem, mask=CpuSet.from_range(0, 16), environ={})
        proc.init()
        received = []
        assert proc.enable_async(received.append) is DlbError.DLB_SUCCESS
        admin.set_process_mask(1, CpuSet.from_range(0, 8))
        assert received == [CpuSet.from_range(0, 8)]
        assert proc.updates == 1
        # nothing left for the polling path
        assert proc.poll_drom()[0] is DlbError.DLB_NOUPDT
