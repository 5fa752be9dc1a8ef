"""LeWI — the Lend-When-Idle module of DLB.

DROM is built inside the pre-existing DLB framework whose original module,
LeWI, dynamically balances load *within* one application: when a process
blocks (typically inside an MPI call) it lends its CPUs to the node pool, and
other processes of the same node can borrow them to widen their thread teams;
when the lender resumes it reclaims its CPUs.

DROM itself does not need LeWI, but the paper presents them as the two modules
of the same framework (Figure 1); this module is that figure's companion,
contrasting *intra-job* malleability (load balancing) with DROM's *inter-job*
malleability (resource management).  No scenario, campaign or benchmark path
uses it: ``tests/test_lewi.py`` and ``examples/custom_administrator.py``
exercise it.  The implementation below provides the lend / borrow / reclaim
cycle over the same :class:`NodeSharedMemory` process entries that DROM
manages, so the two modules compose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import DlbError, ProcessNotRegisteredError
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.mask import CpuSet


@dataclass
class LendingState:
    """Per-node pool of lent CPUs."""

    #: CPUs currently lent and not borrowed, available for any process.
    idle_pool: CpuSet = CpuSet.empty()
    #: Owner of each lent CPU: cpu id -> lender pid.
    lender_of: dict[int, int] = field(default_factory=dict)
    #: Current borrower of each lent CPU: cpu id -> borrower pid.
    borrower_of: dict[int, int] = field(default_factory=dict)


class LewiModule:
    """Lend-When-Idle coordination for one node.

    The module subscribes to the shared memory's unregister notifications, so
    a process that finalises (``DLB_Finalize`` / ``DROM_PostFinalize``) is
    automatically purged from the lending pools: its lent CPUs stop being
    borrowable (their owner is gone) and its borrowed CPUs return to the idle
    pool for the surviving processes.
    """

    def __init__(self, shmem: NodeSharedMemory) -> None:
        self._shmem = shmem
        self._state = LendingState()
        shmem.add_unregister_observer(self.forget)

    # -- lending ------------------------------------------------------------

    def lend(self, pid: int, mask: CpuSet | None = None) -> tuple[DlbError, CpuSet]:
        """Lend CPUs of ``pid`` to the node pool.

        With ``mask=None`` the process lends everything except its lowest CPU
        (it keeps one CPU to make progress and to be able to reclaim), which
        is DLB's behaviour when a process enters a blocking MPI call.
        Returns the mask actually lent.
        """
        try:
            entry = self._shmem.entry(pid)
        except ProcessNotRegisteredError:
            return DlbError.DLB_ERR_NOPROC, CpuSet.empty()
        owned = entry.assigned_mask
        if mask is None:
            if owned.count() <= 1:
                return DlbError.DLB_NOUPDT, CpuSet.empty()
            mask = owned - CpuSet([owned.lowest()])
        lend_mask = mask & owned
        # CPUs already lent by this pid are not lent twice.
        lend_mask = CpuSet([c for c in lend_mask if c not in self._state.lender_of])
        if lend_mask.is_empty():
            return DlbError.DLB_NOUPDT, CpuSet.empty()
        for cpu in lend_mask:
            self._state.lender_of[cpu] = pid
        self._state.idle_pool = self._state.idle_pool | lend_mask
        return DlbError.DLB_SUCCESS, lend_mask

    def borrow(self, pid: int, max_cpus: int | None = None) -> tuple[DlbError, CpuSet]:
        """Borrow idle CPUs from the pool for ``pid``.

        Returns the borrowed mask; the caller (the programming-model runtime)
        is responsible for actually widening its thread team.
        """
        if not self._shmem.has(pid):
            return DlbError.DLB_ERR_NOPROC, CpuSet.empty()
        available = CpuSet(
            [c for c in self._state.idle_pool if self._state.lender_of.get(c) != pid]
        )
        if available.is_empty():
            return DlbError.DLB_NOUPDT, CpuSet.empty()
        take = available if max_cpus is None else available.first(max_cpus)
        if take.is_empty():
            return DlbError.DLB_NOUPDT, CpuSet.empty()
        for cpu in take:
            self._state.borrower_of[cpu] = pid
        self._state.idle_pool = self._state.idle_pool - take
        return DlbError.DLB_SUCCESS, take

    def reclaim(self, pid: int) -> tuple[DlbError, CpuSet, dict[int, CpuSet]]:
        """Reclaim the CPUs ``pid`` had lent.

        Returns ``(code, reclaimed_mask, revoked)`` where ``revoked`` maps each
        borrower pid to the CPUs it must stop using (the runtime narrows its
        team at its next malleability point).
        """
        lent = CpuSet([c for c, owner in self._state.lender_of.items() if owner == pid])
        if lent.is_empty():
            return DlbError.DLB_NOUPDT, CpuSet.empty(), {}
        revoked: dict[int, CpuSet] = {}
        for cpu in lent:
            borrower = self._state.borrower_of.pop(cpu, None)
            if borrower is not None:
                revoked.setdefault(borrower, CpuSet.empty())
                revoked[borrower] = revoked[borrower].add(cpu)
            del self._state.lender_of[cpu]
        self._state.idle_pool = self._state.idle_pool - lent
        return DlbError.DLB_SUCCESS, lent, revoked

    def return_borrowed(self, pid: int, mask: CpuSet | None = None) -> tuple[DlbError, CpuSet]:
        """Voluntarily return CPUs ``pid`` had borrowed to the idle pool."""
        borrowed = CpuSet(
            [c for c, borrower in self._state.borrower_of.items() if borrower == pid]
        )
        give_back = borrowed if mask is None else borrowed & mask
        if give_back.is_empty():
            return DlbError.DLB_NOUPDT, CpuSet.empty()
        for cpu in give_back:
            del self._state.borrower_of[cpu]
        self._state.idle_pool = self._state.idle_pool | give_back
        return DlbError.DLB_SUCCESS, give_back

    # -- teardown -----------------------------------------------------------

    def forget(self, pid: int) -> None:
        """Purge every trace of ``pid`` from the lending state.

        Called automatically when ``pid`` unregisters from the node shared
        memory (and callable directly from process teardown paths).  CPUs the
        pid had lent are withdrawn from the pool — their owner no longer
        exists, so they must not remain borrowable under a stale lender pid —
        and CPUs the pid had borrowed go back to the idle pool.
        """
        state = self._state
        lent = CpuSet([c for c, owner in state.lender_of.items() if owner == pid])
        for cpu in lent:
            del state.lender_of[cpu]
            state.borrower_of.pop(cpu, None)
        state.idle_pool = state.idle_pool - lent
        borrowed = CpuSet(
            [c for c, borrower in state.borrower_of.items() if borrower == pid]
        )
        for cpu in borrowed:
            del state.borrower_of[cpu]
        state.idle_pool = state.idle_pool | borrowed

    # -- queries --------------------------------------------------------------

    def idle_cpus(self) -> CpuSet:
        """CPUs currently lent and not borrowed by anyone."""
        return self._state.idle_pool

    def lent_by(self, pid: int) -> CpuSet:
        return CpuSet([c for c, owner in self._state.lender_of.items() if owner == pid])

    def borrowed_by(self, pid: int) -> CpuSet:
        return CpuSet(
            [c for c, borrower in self._state.borrower_of.items() if borrower == pid]
        )

    def effective_mask(self, pid: int) -> CpuSet:
        """Mask a process can actually compute on: assigned - lent + borrowed."""
        entry = self._shmem.entry(pid)
        return (entry.assigned_mask - self.lent_by(pid)) | self.borrowed_by(pid)
