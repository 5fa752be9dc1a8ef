"""Tests of the DROM administrator API (the paper's Section 3.2 interface)."""

from __future__ import annotations

import pytest

from repro.core.drom import (
    DROM_PREINIT_MASK_ENV,
    DROM_PREINIT_PID_ENV,
    DromAdmin,
    attach_admin,
)
from repro.core.errors import DlbError, NotAttachedError
from repro.core.flags import DromFlags
from repro.cpuset.mask import CpuSet


class TestAttachDetach:
    def test_attach_then_detach(self, shmem):
        admin = DromAdmin(shmem)
        assert not admin.attached
        assert admin.attach() is DlbError.DLB_SUCCESS
        assert admin.attached
        assert admin.detach() is DlbError.DLB_SUCCESS
        assert not admin.attached

    def test_double_attach_returns_error_code(self, shmem):
        admin = DromAdmin(shmem)
        admin.attach()
        assert admin.attach() is DlbError.DLB_ERR_INIT

    def test_detach_without_attach(self, shmem):
        assert DromAdmin(shmem).detach() is DlbError.DLB_ERR_NOINIT

    def test_operations_require_attach(self, shmem):
        admin = DromAdmin(shmem)
        with pytest.raises(NotAttachedError):
            admin.get_pid_list()
        with pytest.raises(NotAttachedError):
            admin.set_process_mask(1, CpuSet([0]))

    def test_attach_admin_helper(self, shmem):
        admin = attach_admin(shmem)
        assert admin.attached


class TestQueries:
    def test_get_pid_list(self, shmem, admin):
        shmem.register(10, CpuSet([0]))
        shmem.register(20, CpuSet([1]))
        assert admin.get_pid_list() == [10, 20]
        assert admin.get_pid_list(max_len=1) == [10]

    def test_get_process_mask(self, shmem, admin):
        shmem.register(10, CpuSet.from_range(0, 4))
        code, mask = admin.get_process_mask(10)
        assert code is DlbError.DLB_SUCCESS
        assert mask == CpuSet.from_range(0, 4)

    def test_get_process_mask_unknown_pid(self, admin):
        code, mask = admin.get_process_mask(999)
        assert code is DlbError.DLB_ERR_NOPROC
        assert mask is None


class TestSetProcessMask:
    def test_returns_noted_until_target_polls(self, shmem, admin):
        shmem.register(10, CpuSet.from_range(0, 16))
        code = admin.set_process_mask(10, CpuSet.from_range(0, 8))
        assert code is DlbError.DLB_NOTED
        assert shmem.poll(10) == (CpuSet.from_range(0, 8), CpuSet.from_range(0, 8))

    def test_success_when_target_uses_async_mode(self, shmem, admin):
        shmem.register(10, CpuSet.from_range(0, 16))
        shmem.set_async_callback(10, lambda pid, mask: None)
        code = admin.set_process_mask(10, CpuSet.from_range(0, 8))
        assert code is DlbError.DLB_SUCCESS

    def test_unknown_pid(self, admin):
        assert admin.set_process_mask(999, CpuSet([0])) is DlbError.DLB_ERR_NOPROC

    def test_ownership_violation_without_steal(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 8))
        shmem.register(2, CpuSet.from_range(8, 16))
        code = admin.set_process_mask(2, CpuSet.from_range(4, 16))
        assert code is DlbError.DLB_ERR_PERM

    def test_steal_flag_shrinks_other_process(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 8))
        shmem.register(2, CpuSet.from_range(8, 16))
        code = admin.set_process_mask(2, CpuSet.from_range(4, 16), DromFlags.STEAL)
        assert code in (DlbError.DLB_NOTED, DlbError.DLB_SUCCESS)
        assert shmem.get_mask(1) == CpuSet.from_range(0, 4)

    def test_empty_mask_rejected(self, shmem, admin):
        shmem.register(1, CpuSet([0]))
        assert admin.set_process_mask(1, CpuSet.empty()) is DlbError.DLB_ERR_REQST

    def test_dry_run_does_not_change_anything(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        code = admin.set_process_mask(1, CpuSet.from_range(0, 4), DromFlags.DRY_RUN)
        assert code is DlbError.DLB_SUCCESS
        assert shmem.get_mask(1) == CpuSet.from_range(0, 16)
        assert not shmem.entry(1).dirty

    def test_dry_run_answers_as_the_real_call(self, shmem, admin):
        """The dry run asks the shared memory's own check: an overlap
        without STEAL is refused by both, and a steal, even of every CPU
        pid 1 holds, is accepted by both."""
        shmem.register(1, CpuSet([0, 1]))
        shmem.register(2, CpuSet([2]))
        for flags in (DromFlags.DRY_RUN, DromFlags.NONE):
            assert admin.set_process_mask(2, CpuSet([1, 2]), flags) is DlbError.DLB_ERR_PERM
            assert shmem.get_mask(1) == CpuSet([0, 1])
            assert shmem.get_mask(2) == CpuSet([2])
        for mask in (CpuSet([1, 2]), CpuSet([0, 1, 2])):
            dry = admin.set_process_mask(2, mask, DromFlags.STEAL | DromFlags.DRY_RUN)
            assert dry is DlbError.DLB_SUCCESS
            assert shmem.get_mask(2) == CpuSet([2])
        real = admin.set_process_mask(2, CpuSet([0, 1, 2]), DromFlags.STEAL)
        assert real is DlbError.DLB_NOTED
        assert shmem.get_mask(1) == CpuSet.empty()
        assert shmem.get_mask(2) == CpuSet([0, 1, 2])

    def test_sync_query_times_out_if_target_never_polls(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        code = admin.set_process_mask(
            1,
            CpuSet.from_range(0, 8),
            DromFlags.SYNC_QUERY,
            sync_timeout=0.01,
            sync_poll_interval=0.002,
        )
        assert code is DlbError.DLB_ERR_TIMEOUT

    def test_sync_query_consumes_no_wall_clock_time_under_simulation(self, shmem, admin):
        """Regression: the sim-default administrator used to busy-wait on real
        time.monotonic()/time.sleep for the full sync_timeout."""
        import time

        shmem.register(1, CpuSet.from_range(0, 16))
        start = time.perf_counter()
        code = admin.set_process_mask(
            1,
            CpuSet.from_range(0, 8),
            DromFlags.SYNC_QUERY,
            sync_timeout=5.0,  # would stall 5 real seconds with the old code
        )
        elapsed = time.perf_counter() - start
        assert code is DlbError.DLB_ERR_TIMEOUT
        assert elapsed < 0.5
        # The change is still registered (asynchronous semantics preserved).
        assert shmem.get_mask(1) == CpuSet.from_range(0, 8)
        assert shmem.entry(1).dirty

    def test_sync_query_already_acknowledged_still_succeeds(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        shmem.set_async_callback(1, lambda pid, mask: None)  # acks immediately
        code = admin.set_process_mask(
            1, CpuSet.from_range(0, 8), DromFlags.SYNC_QUERY
        )
        assert code is DlbError.DLB_SUCCESS

    def test_sync_query_with_injected_clock_waits_for_acknowledgement(self, shmem):
        from repro.core.drom import DromAdmin

        clock = [0.0]
        sleeps = []

        def fake_sleep(interval: float) -> None:
            sleeps.append(interval)
            clock[0] += interval
            # The target polls while the administrator sleeps (the real-thread
            # behaviour the injectable time sources exist for).
            shmem.poll(1)

        admin = DromAdmin(shmem, clock=lambda: clock[0], sleep=fake_sleep)
        admin.attach()
        shmem.register(1, CpuSet.from_range(0, 16))
        code = admin.set_process_mask(
            1,
            CpuSet.from_range(0, 8),
            DromFlags.SYNC_QUERY,
            sync_timeout=1.0,
            sync_poll_interval=0.01,
        )
        assert code is DlbError.DLB_SUCCESS
        assert sleeps  # it really went through the wait loop
        assert shmem.entry(1).current_mask == CpuSet.from_range(0, 8)

    def test_half_injected_time_sources_rejected(self, shmem):
        from repro.core.drom import DromAdmin

        with pytest.raises(ValueError, match="together"):
            DromAdmin(shmem, clock=lambda: 0.0)
        with pytest.raises(ValueError, match="together"):
            DromAdmin(shmem, sleep=lambda _t: None)

    def test_sync_query_with_injected_clock_times_out_deterministically(self, shmem):
        from repro.core.drom import DromAdmin

        clock = [0.0]
        sleeps = []

        def fake_sleep(interval: float) -> None:
            sleeps.append(interval)
            clock[0] += interval  # nobody ever acknowledges

        admin = DromAdmin(shmem, clock=lambda: clock[0], sleep=fake_sleep)
        admin.attach()
        shmem.register(1, CpuSet.from_range(0, 16))
        code = admin.set_process_mask(
            1,
            CpuSet.from_range(0, 8),
            DromFlags.SYNC_QUERY,
            sync_timeout=0.05,
            sync_poll_interval=0.01,
        )
        assert code is DlbError.DLB_ERR_TIMEOUT
        assert len(sleeps) == 5  # exactly sync_timeout / sync_poll_interval


class TestPreInitPostFinalize:
    def test_preinit_reserves_and_builds_environ(self, shmem, admin):
        result = admin.pre_init(42, CpuSet.from_range(0, 4), DromFlags.NONE)
        assert result.code is DlbError.DLB_SUCCESS
        assert result.next_environ[DROM_PREINIT_PID_ENV] == "42"
        assert CpuSet.parse(result.next_environ[DROM_PREINIT_MASK_ENV]) == CpuSet.from_range(0, 4)
        assert shmem.entry(42).preinitialized

    def test_preinit_with_steal_reports_shrunk_victims(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        result = admin.pre_init(2, CpuSet.from_range(8, 16), DromFlags.STEAL)
        assert result.code is DlbError.DLB_SUCCESS
        assert result.shrunk == {1: CpuSet.from_range(8, 16)}
        assert shmem.get_mask(1) == CpuSet.from_range(0, 8)

    def test_preinit_without_steal_cannot_take_busy_cpus(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        result = admin.pre_init(2, CpuSet.from_range(8, 16), DromFlags.NONE)
        assert result.code is DlbError.DLB_ERR_PERM

    def test_preinit_steal_that_empties_a_process_is_refused(self, shmem, admin):
        shmem.register(1, CpuSet([0, 1]))
        shmem.register(2, CpuSet([2]))
        result = admin.pre_init(3, CpuSet([1, 2, 3]), DromFlags.STEAL)
        assert result.code is DlbError.DLB_ERR_PERM
        assert shmem.pids() == [1, 2]
        assert shmem.get_mask(1) == CpuSet([0, 1])
        assert shmem.get_mask(2) == CpuSet([2])

    def test_preinit_existing_pid_rejected(self, shmem, admin):
        shmem.register(7, CpuSet([0]))
        result = admin.pre_init(7, CpuSet([1]), DromFlags.STEAL)
        assert result.code is DlbError.DLB_ERR_INIT

    def test_preinit_preserves_caller_environ(self, shmem, admin):
        result = admin.pre_init(9, CpuSet([0]), DromFlags.NONE, environ={"FOO": "bar"})
        assert result.next_environ["FOO"] == "bar"

    def test_post_finalize_cleans_and_returns_stolen(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        admin.pre_init(2, CpuSet.from_range(8, 16), DromFlags.STEAL)
        code, returned = admin.post_finalize(2, DromFlags.RETURN_STOLEN)
        assert code is DlbError.DLB_SUCCESS
        assert returned == {1: CpuSet.from_range(8, 16)}
        assert not shmem.has(2)
        assert shmem.get_mask(1) == CpuSet.from_range(0, 16)

    def test_post_finalize_already_cleaned(self, admin):
        code, returned = admin.post_finalize(404)
        assert code is DlbError.DLB_NOUPDT
        assert returned == {}

    def test_post_finalize_without_return_flag_keeps_cpus_free(self, shmem, admin):
        shmem.register(1, CpuSet.from_range(0, 16))
        admin.pre_init(2, CpuSet.from_range(8, 16), DromFlags.STEAL)
        code, returned = admin.post_finalize(2, DromFlags.NONE)
        assert code is DlbError.DLB_SUCCESS
        assert returned == {}
        # The CPUs are not given back automatically; they are simply free.
        assert shmem.get_mask(1) == CpuSet.from_range(0, 8)
        assert shmem.free_mask() == CpuSet.from_range(8, 16)


class TestFlags:
    def test_flag_predicates(self):
        flags = DromFlags.SYNC_QUERY | DromFlags.STEAL
        assert flags.is_sync()
        assert flags.allows_steal()
        assert not flags.returns_stolen()
        assert not flags.is_dry_run()
        assert DromFlags.RETURN_STOLEN.returns_stolen()
        assert DromFlags.DRY_RUN.is_dry_run()
        assert not DromFlags.NONE.is_sync()

    def test_error_code_helpers(self):
        assert DlbError.DLB_SUCCESS.ok()
        assert DlbError.DLB_NOTED.ok()
        assert not DlbError.DLB_ERR_PERM.ok()
        assert DlbError.DLB_ERR_PERM.is_error()
        assert not DlbError.DLB_NOUPDT.is_error()
