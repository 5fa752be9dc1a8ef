"""Process-side DLB handle.

This is the view an *application* process has of DLB: it initialises itself
into the node shared memory (``DLB_Init``), polls for pending mask changes at
its malleability points (``DLB_PollDROM``), optionally enables the
asynchronous callback mode, and finalises on exit (``DLB_Finalize``).

Listing 1 of the paper shows the manual integration pattern reproduced by
:class:`DlbProcess`:

.. code-block:: python

    dlb = DlbProcess(pid=..., shmem=node_shmem, mask=initial_mask)
    dlb.init()
    for _ in range(iterations):
        code, ncpus, mask = dlb.poll_drom()
        if code is DlbError.DLB_SUCCESS:
            modify_num_resources(ncpus, mask)
        ...  # parallel region
    dlb.finalize()

When the process runs a supported programming model the polling calls are
issued automatically by the PMPI/OMPT interception layers in
:mod:`repro.runtime`, so the application never sees this API — exactly the
"effortless" integration the paper describes.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.core.drom import DROM_PREINIT_MASK_ENV, DROM_PREINIT_PID_ENV
from repro.core.errors import (
    DlbError,
    DlbException,
    ProcessAlreadyRegisteredError,
    ProcessNotRegisteredError,
)
from repro.core.shmem import NodeSharedMemory
from repro.cpuset.mask import CpuSet

MaskCallback = Callable[[CpuSet], None]


class DlbProcess:
    """Per-process DLB handle (the ``DLB_*`` half of the API).

    Parameters
    ----------
    pid:
        Process identifier within the node (any unique integer).
    shmem:
        The node shared memory to register with.
    mask:
        Initial CPU mask.  If omitted, the mask reserved for this pid by a
        prior ``DROM_PreInit`` is looked up from ``environ``.
    environ:
        Environment mapping used to complete a pre-initialised registration
        (defaults to ``os.environ``).
    """

    def __init__(
        self,
        pid: int,
        shmem: NodeSharedMemory,
        mask: CpuSet | None = None,
        environ: dict[str, str] | None = None,
    ) -> None:
        self.pid = pid
        self._shmem = shmem
        self._environ = dict(os.environ) if environ is None else dict(environ)
        self._initial_mask = mask
        self._initialized = False
        self._async_callback: MaskCallback | None = None
        self.polls = 0
        self.updates = 0

    # -- lifecycle ------------------------------------------------------------

    def init(self) -> DlbError:
        """Register the process with DLB (``DLB_Init``).

        A process started through the ``DROM_PreInit`` workflow finds its
        reserved mask in the environment and completes that registration;
        otherwise it registers fresh with the supplied mask.
        """
        if self._initialized:
            return DlbError.DLB_ERR_INIT
        mask = self._initial_mask
        preinit_pid = self._environ.get(DROM_PREINIT_PID_ENV)
        if preinit_pid is not None and int(preinit_pid) == self.pid and self._shmem.has(self.pid):
            # Pre-initialised by the administrator: adopt the reserved entry.
            entry = self._shmem.entry(self.pid)
            entry.preinitialized = False
            if mask is not None and mask != entry.assigned_mask:
                # The reservation wins; the caller-supplied mask is ignored,
                # mirroring how the execed child inherits the slurmstepd mask.
                pass
            self._initialized = True
            return DlbError.DLB_SUCCESS
        if mask is None:
            env_mask = self._environ.get(DROM_PREINIT_MASK_ENV)
            if env_mask is None:
                raise DlbException(
                    DlbError.DLB_ERR_REQST,
                    "DLB_Init needs an initial mask (none supplied, none pre-initialised)",
                )
            mask = CpuSet.parse(env_mask)
        try:
            self._shmem.register(self.pid, mask)
        except ProcessAlreadyRegisteredError:
            return DlbError.DLB_ERR_INIT
        self._initialized = True
        return DlbError.DLB_SUCCESS

    def finalize(self) -> DlbError:
        """Unregister from DLB (``DLB_Finalize``)."""
        if not self._initialized:
            return DlbError.DLB_ERR_NOINIT
        try:
            self._shmem.unregister(self.pid)
        except ProcessNotRegisteredError:
            # The administrator may have already cleaned the entry
            # (DROM_PostFinalize); that is not an application error.
            pass
        self._initialized = False
        return DlbError.DLB_SUCCESS

    @property
    def initialized(self) -> bool:
        return self._initialized

    # -- polling -----------------------------------------------------------------

    def poll_drom(self) -> tuple[DlbError, int, CpuSet | None]:
        """Check for a pending mask change (``DLB_PollDROM``).

        Returns ``(DLB_SUCCESS, ncpus, mask)`` when a new mask is available,
        ``(DLB_NOUPDT, current_ncpus, None)`` when there is nothing to update.
        """
        self._require_init()
        self.polls += 1
        new_mask, current = self._shmem.poll(self.pid)
        if new_mask is None:
            return DlbError.DLB_NOUPDT, current.count(), None
        self.updates += 1
        return DlbError.DLB_SUCCESS, new_mask.count(), new_mask

    def current_mask(self) -> CpuSet:
        """The mask currently assigned to this process."""
        self._require_init()
        return self._shmem.get_mask(self.pid)

    # -- asynchronous mode ----------------------------------------------------------

    def enable_async(self, callback: MaskCallback) -> DlbError:
        """Enable the asynchronous (helper-thread) mode.

        ``callback(new_mask)`` is invoked immediately whenever an
        administrator changes this process's mask, instead of waiting for the
        next poll.
        """
        self._require_init()
        self._async_callback = callback
        self._shmem.set_async_callback(self.pid, lambda _pid, mask: self._on_async(mask))
        return DlbError.DLB_SUCCESS

    def _on_async(self, mask: CpuSet) -> None:
        self.updates += 1
        self._async_callback(mask)

    # -- helpers ------------------------------------------------------------------------

    def _require_init(self) -> None:
        if not self._initialized:
            raise DlbException(DlbError.DLB_ERR_NOINIT, "DLB_Init has not been called")
