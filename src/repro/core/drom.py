"""The DROM administrator API (Section 3.2 of the paper).

An *administrator process* (SLURM's slurmd/slurmstepd in the paper, or a
user-written tool) attaches to the node's DLB shared memory and can then
query and modify the CPU masks of every process registered with DLB on that
node.  The interface reproduced here follows the paper's function list:

========================  ====================================================
Paper C function          This module
========================  ====================================================
``DROM_Attach``           :meth:`DromAdmin.attach`
``DROM_Detach``           :meth:`DromAdmin.detach`
``DROM_GetPidList``       :meth:`DromAdmin.get_pid_list`
``DROM_GetProcessMask``   :meth:`DromAdmin.get_process_mask`
``DROM_SetProcessMask``   :meth:`DromAdmin.set_process_mask`
``DROM_PreInit``          :meth:`DromAdmin.pre_init`
``DROM_PostFinalize``     :meth:`DromAdmin.post_finalize`
========================  ====================================================

Each method returns a :class:`~repro.core.errors.DlbError` code (mirroring the
C ``int`` returns) alongside its payload where applicable; misuse (calling
before attach, unknown pid, ownership violations without ``STEAL``) surfaces
both as error codes and as typed exceptions depending on the entry point, so
the behaviour can be tested the same way the C API would be.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.errors import (
    CpuOwnershipError,
    DlbError,
    NotAttachedError,
    ProcessAlreadyRegisteredError,
    ProcessNotRegisteredError,
)
from repro.core.flags import DromFlags
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.mask import CpuSet


#: Environment variable propagated by ``DROM_PreInit`` so that the child
#: process can register itself under the pre-initialised pid (the
#: ``next_environ`` mechanism of the paper).
DROM_PREINIT_PID_ENV = "DLB_DROM_PREINIT_PID"
#: Environment variable carrying the reserved mask (CPU list string).
DROM_PREINIT_MASK_ENV = "DLB_DROM_PREINIT_MASK"


@dataclass
class PreInitResult:
    """Outcome of :meth:`DromAdmin.pre_init`.

    Attributes
    ----------
    code:
        ``DLB_SUCCESS`` when the reservation was made, an error code otherwise.
    next_environ:
        Environment additions the administrator must pass to the child process
        it forks/execs, so the child can complete the registration.
    shrunk:
        Map of victim pid to the CPUs removed from it to make room.
    """

    code: DlbError
    next_environ: dict[str, str] = field(default_factory=dict)
    shrunk: dict[int, CpuSet] = field(default_factory=dict)


class DromAdmin:
    """A DROM administrator attached to one node's shared memory.

    One administrator instance manages exactly one node (the paper: "if the
    submission allocates more than one node, one administrator process must be
    created for each node that requires management").

    Parameters
    ----------
    shmem:
        The node shared memory to administer.
    clock, sleep:
        Time sources used by the ``SYNC_QUERY`` wait loop of
        :meth:`set_process_mask`.  They default to ``None``, which selects the
        simulation behaviour: nothing else can run while the administrator
        waits in the single-threaded discrete-event experiments, so the call
        reports ``DLB_ERR_TIMEOUT`` immediately instead of burning
        ``sync_timeout`` seconds of real wall-clock time.  Pass
        ``clock=time.monotonic, sleep=time.sleep`` (or use
        :func:`attach_admin` with ``real_time=True``) when the managed
        processes run on real threads that can acknowledge concurrently.
    """

    def __init__(
        self,
        shmem: NodeSharedMemory,
        *,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if (clock is None) != (sleep is None):
            raise ValueError(
                "clock and sleep must be provided together (both for "
                "real-thread waiting, neither for the simulation)"
            )
        self._shmem = shmem
        self._attached = False
        self._clock = clock
        self._sleep = sleep

    # -- attach / detach ----------------------------------------------------

    def attach(self) -> DlbError:
        """Attach to the node's DLB shared memory (``DROM_Attach``)."""
        if self._attached:
            return DlbError.DLB_ERR_INIT
        self._attached = True
        return DlbError.DLB_SUCCESS

    def detach(self) -> DlbError:
        """Detach from the shared memory (``DROM_Detach``)."""
        if not self._attached:
            return DlbError.DLB_ERR_NOINIT
        self._attached = False
        return DlbError.DLB_SUCCESS

    @property
    def attached(self) -> bool:
        return self._attached

    @property
    def shmem(self) -> NodeSharedMemory:
        return self._shmem

    # -- queries --------------------------------------------------------------

    def get_pid_list(self, max_len: int | None = None) -> list[int]:
        """Pids of all processes registered with DLB on this node
        (``DROM_GetPidList``)."""
        self._require_attached()
        pids = self._shmem.pids()
        if max_len is not None:
            pids = pids[:max_len]
        return pids

    def get_process_mask(
        self, pid: int, flags: DromFlags = DromFlags.NONE
    ) -> tuple[DlbError, CpuSet | None]:
        """Current assigned mask of ``pid`` (``DROM_GetProcessMask``)."""
        self._require_attached()
        try:
            return DlbError.DLB_SUCCESS, self._shmem.get_mask(pid)
        except ProcessNotRegisteredError:
            return DlbError.DLB_ERR_NOPROC, None

    # -- mask management ---------------------------------------------------------

    def set_process_mask(
        self,
        pid: int,
        mask: CpuSet,
        flags: DromFlags = DromFlags.NONE,
        *,
        sync_timeout: float = 1.0,
        sync_poll_interval: float = 1e-3,
    ) -> DlbError:
        """Assign a new mask to ``pid`` (``DROM_SetProcessMask``).

        Returns ``DLB_NOTED`` when the change is registered but not yet
        acknowledged by the target (the normal, asynchronous case),
        ``DLB_SUCCESS`` when the target has already acknowledged it (e.g. it
        uses the asynchronous callback mode, or ``SYNC_QUERY`` was given and
        the target polled within the timeout), or an error code.

        ``sync_timeout`` and ``sync_poll_interval`` only apply with
        ``SYNC_QUERY`` on an administrator constructed with real ``clock`` /
        ``sleep`` sources.  Under the default (simulation) configuration the
        target can never acknowledge while this call waits, so ``SYNC_QUERY``
        on a not-yet-acknowledged change returns ``DLB_ERR_TIMEOUT``
        immediately and deterministically, consuming no wall-clock time.
        """
        self._require_attached()
        try:
            if flags.is_dry_run():
                self._shmem.entry(pid)  # raises for an unregistered pid
                self._shmem.check_assignment(pid, mask, steal=flags.allows_steal())
                return DlbError.DLB_SUCCESS
            entry = self._shmem.set_mask(pid, mask, steal=flags.allows_steal())
        except ProcessNotRegisteredError:
            return DlbError.DLB_ERR_NOPROC
        except CpuOwnershipError:
            return DlbError.DLB_ERR_PERM
        except ValueError:
            return DlbError.DLB_ERR_REQST

        if not entry.dirty:
            return DlbError.DLB_SUCCESS
        if flags.is_sync():
            if self._clock is None:
                # Simulation: single-threaded, the target cannot poll while
                # this call waits, so waiting can only end in a timeout.
                return DlbError.DLB_ERR_TIMEOUT
            deadline = self._clock() + sync_timeout
            while entry.dirty:
                if self._clock() >= deadline:
                    return DlbError.DLB_ERR_TIMEOUT
                self._sleep(sync_poll_interval)
            return DlbError.DLB_SUCCESS
        return DlbError.DLB_NOTED

    # -- pre-init / post-finalize ---------------------------------------------------

    def pre_init(
        self,
        pid: int,
        mask: CpuSet,
        flags: DromFlags = DromFlags.STEAL,
        environ: Mapping[str, str] | None = None,
    ) -> PreInitResult:
        """Reserve ``mask`` for a process about to start (``DROM_PreInit``).

        The usual workflow (paper, Section 3.2): the administrator registers
        the future pid, receives ``next_environ`` and then forks/execs the
        child, which completes the registration using the inherited
        environment.  With the ``STEAL`` flag the reservation shrinks the
        masks of already running processes ("making room in the node").
        """
        self._require_attached()
        shrunk_before = {e.pid: e.assigned_mask for e in self._shmem}
        try:
            entry = self._shmem.register(
                pid, mask, preinitialized=True, steal=flags.allows_steal()
            )
        except ProcessAlreadyRegisteredError:
            return PreInitResult(code=DlbError.DLB_ERR_INIT)
        except CpuOwnershipError:
            return PreInitResult(code=DlbError.DLB_ERR_PERM)
        except ValueError:
            return PreInitResult(code=DlbError.DLB_ERR_REQST)

        shrunk: dict[int, CpuSet] = {}
        for other_pid, before in shrunk_before.items():
            if other_pid == pid or not self._shmem.has(other_pid):
                continue
            after = self._shmem.get_mask(other_pid)
            removed = before - after
            if not removed.is_empty():
                shrunk[other_pid] = removed

        next_environ = dict(environ or {})
        next_environ[DROM_PREINIT_PID_ENV] = str(pid)
        next_environ[DROM_PREINIT_MASK_ENV] = entry.assigned_mask.to_list_string()
        return PreInitResult(
            code=DlbError.DLB_SUCCESS, next_environ=next_environ, shrunk=shrunk
        )

    def post_finalize(
        self, pid: int, flags: DromFlags = DromFlags.RETURN_STOLEN
    ) -> tuple[DlbError, dict[int, CpuSet]]:
        """Finalise a pre-initialised process (``DROM_PostFinalize``).

        Cleans the shared-memory entry (the child may already have done so if
        it ran a supported programming model — that case returns
        ``DLB_NOUPDT``).  With ``RETURN_STOLEN`` the CPUs the process was
        using are given back to their original owners if still registered;
        the returned mapping says who got what back.
        """
        self._require_attached()
        if not self._shmem.has(pid):
            return DlbError.DLB_NOUPDT, {}
        returned = self._shmem.unregister(pid, return_stolen=flags.returns_stolen())
        return DlbError.DLB_SUCCESS, returned

    # -- helpers -----------------------------------------------------------------

    def _require_attached(self) -> None:
        if not self._attached:
            raise NotAttachedError()


def attach_admin(shmem: NodeSharedMemory, *, real_time: bool = False) -> DromAdmin:
    """Create an administrator and attach it in one call.

    ``real_time=True`` wires the administrator to ``time.monotonic`` /
    ``time.sleep`` so that ``SYNC_QUERY`` genuinely waits for concurrently
    running (real-thread) processes; the default keeps the deterministic
    no-wait simulation behaviour.
    """
    if real_time:
        admin = DromAdmin(shmem, clock=_time.monotonic, sleep=_time.sleep)
    else:
        admin = DromAdmin(shmem)
    code = admin.attach()
    if code.is_error():
        raise NotAttachedError(f"DROM_Attach failed with {code.name}")
    return admin
