"""Node shared memory — the backbone of the DLB framework.

In the real DLB library every process on a node maps a small POSIX shared
memory segment protected by a lock; DROM administrators write new CPU masks
into it and the managed processes read them back from their polling points.
This module reproduces the same structure in-process:

* one :class:`NodeSharedMemory` per simulated node;
* a :class:`ProcessEntry` per registered pid carrying the *current* mask (what
  the process is actually running with), the *assigned* mask (what an
  administrator last wrote) and the *initial* mask (CPU ownership, used when
  stolen CPUs are returned);
* the polling/acknowledgement protocol: an entry is *dirty* while assigned
  differs from current, and becomes clean when the process polls;
* the optional asynchronous mode, where a registered callback is invoked
  immediately when the mask changes (the helper-thread mode of the paper).

Thread-safety: all mutating operations take an ``RLock``, matching the
lock-protected address space described in Section 3.1.  The simulation itself
is single-threaded, but the lock keeps the component usable from real threads
(e.g. the asynchronous helper-thread example).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.errors import (
    CpuOwnershipError,
    ProcessAlreadyRegisteredError,
    ProcessNotRegisteredError,
)
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology

MaskCallback = Callable[[int, CpuSet], None]


@dataclass
class ProcessEntry:
    """Book-keeping of one DLB-registered process."""

    pid: int
    #: Mask the process is currently running with (last acknowledged).
    current_mask: CpuSet
    #: Mask last assigned by an administrator; differs from ``current_mask``
    #: while the process has not yet polled.
    assigned_mask: CpuSet
    #: Mask the process registered with; defines CPU *ownership* for
    #: return-stolen semantics.
    initial_mask: CpuSet
    #: True when the entry was created by ``DROM_PreInit`` and the real
    #: process has not yet called ``DLB_Init``.
    preinitialized: bool = False
    #: CPUs taken from other pids when this entry was created with the steal
    #: flag: victim pid -> mask stolen from it.
    stolen_from: dict[int, CpuSet] = field(default_factory=dict)
    #: Asynchronous-mode callback; invoked as ``callback(pid, new_mask)``.
    async_callback: MaskCallback | None = None
    #: Number of times the process polled and found an update.
    updates_applied: int = 0

    @property
    def dirty(self) -> bool:
        """Whether an assigned mask is waiting to be acknowledged."""
        return self.assigned_mask != self.current_mask

    @property
    def ncpus(self) -> int:
        """Number of CPUs currently assigned to the process."""
        return self.assigned_mask.count()


class NodeSharedMemory:
    """The per-node DLB shared memory segment.

    Parameters
    ----------
    topology:
        Node hardware description; masks are validated against it.
    name:
        Identifier (usually the node name); used in error messages.
    max_processes:
        Capacity of the registry.  The real shared memory segment is a fixed
        size; the default of 64 is far above anything the experiments need but
        keeps the "shared memory full" error path testable.
    """

    def __init__(
        self,
        topology: NodeTopology,
        name: str | None = None,
        max_processes: int = 64,
    ) -> None:
        self.topology = topology
        self.name = name or topology.name
        self.max_processes = max_processes
        self._entries: dict[int, ProcessEntry] = {}
        self._lock = threading.RLock()
        self._unregister_observers: list[Callable[[int], None]] = []

    # -- wiring ------------------------------------------------------------

    def add_unregister_observer(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(pid)`` to run whenever a pid unregisters.

        Modules keeping per-pid state outside the entry table (LeWI's lending
        pools, statistics caches) hook in here so a finished process never
        leaves dangling state behind.
        """
        self._unregister_observers.append(callback)

    # -- registration --------------------------------------------------------

    def register(
        self,
        pid: int,
        mask: CpuSet,
        *,
        preinitialized: bool = False,
        steal: bool = False,
    ) -> ProcessEntry:
        """Register ``pid`` with ``mask``.

        If ``steal`` is true, CPUs in ``mask`` currently assigned to other
        processes are removed from those processes (their entries become
        dirty), unless that would leave one of them without a CPU; see
        :meth:`check_assignment` for what is refused.
        """
        with self._lock:
            if pid in self._entries and not self._entries[pid].preinitialized:
                raise ProcessAlreadyRegisteredError(pid)
            if len(self._entries) >= self.max_processes and pid not in self._entries:
                raise CpuOwnershipError(
                    f"node {self.name!r} shared memory is full "
                    f"({self.max_processes} processes)"
                )
            stolen_from = self.check_assignment(pid, mask, steal=steal, keep_victims=True)
            for victim, overlap in stolen_from.items():
                other = self._entries[victim]
                self._assign(other, other.assigned_mask - overlap)

            if pid in self._entries:
                # Completing a pre-initialised registration: the child process
                # inherits the reserved mask (DROM_PreInit workflow).
                entry = self._entries[pid]
                entry.preinitialized = preinitialized
                entry.stolen_from.update(stolen_from)
                return entry

            entry = ProcessEntry(
                pid=pid,
                current_mask=mask,
                assigned_mask=mask,
                initial_mask=mask,
                preinitialized=preinitialized,
                stolen_from=stolen_from,
            )
            self._entries[pid] = entry
            return entry

    def unregister(self, pid: int, *, return_stolen: bool = False) -> dict[int, CpuSet]:
        """Remove ``pid`` from the registry.

        With ``return_stolen`` the CPUs ``pid`` stole and still holds go
        back to their owners that are still registered; CPUs whose owner has
        finished are left unassigned (the SLURM plugin hands them out
        through its ``release_resources`` path instead).  Giving back and
        leaving are one step, so no registered pid is left emptied by it.
        Returns the mapping of owner pid to the CPUs given back.
        """
        with self._lock:
            entry = self._require(pid)
            returned: dict[int, CpuSet] = {}
            if return_stolen:
                kept = entry.assigned_mask
                for owner_pid, stolen in entry.stolen_from.items():
                    give_back = stolen & kept
                    owner = self._entries.get(owner_pid)
                    if owner is None or give_back.is_empty():
                        continue
                    kept = kept - give_back
                    self._assign(owner, owner.assigned_mask | give_back)
                    returned[owner_pid] = give_back
            del self._entries[pid]
            for observer in self._unregister_observers:
                observer(pid)
            return returned

    # -- queries --------------------------------------------------------------

    def pids(self) -> list[int]:
        """Registered pids in registration order."""
        with self._lock:
            return list(self._entries.keys())

    def entry(self, pid: int) -> ProcessEntry:
        with self._lock:
            return self._require(pid)

    def has(self, pid: int) -> bool:
        with self._lock:
            return pid in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[ProcessEntry]:
        with self._lock:
            return iter(list(self._entries.values()))

    def get_mask(self, pid: int) -> CpuSet:
        """The mask currently assigned to ``pid`` (may not yet be applied)."""
        with self._lock:
            return self._require(pid).assigned_mask

    def busy_mask(self) -> CpuSet:
        """Union of all assigned masks on the node."""
        with self._lock:
            busy = CpuSet.empty()
            for entry in self._entries.values():
                busy = busy | entry.assigned_mask
            return busy

    def free_mask(self) -> CpuSet:
        """CPUs of the node not assigned to any registered process."""
        return self.topology.full_mask() - self.busy_mask()

    def oversubscribed_cpus(self) -> CpuSet:
        """CPUs assigned to more than one process (should stay empty with DROM)."""
        with self._lock:
            seen = CpuSet.empty()
            dup = CpuSet.empty()
            for entry in self._entries.values():
                dup = dup | (seen & entry.assigned_mask)
                seen = seen | entry.assigned_mask
            return dup

    # -- mask management --------------------------------------------------------

    def check_assignment(
        self, pid: int, mask: CpuSet, *, steal: bool = False, keep_victims: bool = False
    ) -> dict[int, CpuSet]:
        """The CPUs assigning ``mask`` to ``pid`` would take from each other
        registered pid, checked before anything is written.

        Raises ``ValueError`` for an invalid or empty mask, and
        :class:`CpuOwnershipError` (``DLB_ERR_PERM``) when ``mask`` overlaps
        another pid without ``steal``.  With ``keep_victims`` (a registering
        process) a steal that would take every CPU another pid is assigned is
        refused too: that pid would poll for zero CPUs.  ``set_mask`` may
        strip a pid: a re-partition writes its targets one at a time, so a
        pid can hold nothing between a job moving onto its CPUs and its own
        write, and a release may strip a non-malleable survivor, which never
        polls.  Writes nothing, so ``DROM_SetProcessMask``'s dry run asks it
        too.
        """
        with self._lock:
            self.topology.validate_mask(mask)
            if mask.is_empty():
                raise ValueError(f"refusing to assign an empty mask to pid {pid}")
            overlaps: dict[int, CpuSet] = {}
            for other in self._entries.values():
                if other.pid == pid or other.assigned_mask.isdisjoint(mask):
                    continue
                overlap = other.assigned_mask & mask
                if not steal:
                    raise CpuOwnershipError(
                        f"CPUs {overlap.to_list_string()} requested for pid {pid} are "
                        f"assigned to pid {other.pid}; use the STEAL flag to shrink it"
                    )
                if keep_victims and overlap == other.assigned_mask:
                    raise CpuOwnershipError(
                        f"stealing CPUs {overlap.to_list_string()} for pid {pid} would "
                        f"leave pid {other.pid} without a CPU"
                    )
                overlaps[other.pid] = overlap
            return overlaps

    def set_mask(self, pid: int, mask: CpuSet, *, steal: bool = False) -> ProcessEntry:
        """Assign a new mask to ``pid``.

        The entry becomes dirty until the process polls (or its asynchronous
        callback is delivered).  With ``steal`` the CPUs are taken from any
        other process currently holding them, even all of them; see
        :meth:`check_assignment` for what is refused.
        """
        with self._lock:
            entry = self._require(pid)
            for victim, overlap in self.check_assignment(pid, mask, steal=steal).items():
                stolen = entry.stolen_from.get(victim, CpuSet.empty())
                entry.stolen_from[victim] = stolen | overlap
                other = self._entries[victim]
                self._assign(other, other.assigned_mask - overlap)
            self._assign(entry, mask)
            return entry

    def poll(self, pid: int) -> tuple[CpuSet | None, CpuSet]:
        """Process-side poll: the new mask if one is pending, and the mask.

        Returns ``(new mask or None, assigned mask)`` under one lock and
        acknowledges the assignment (the entry becomes clean); once polled,
        the assigned mask is the one the process runs with.
        """
        with self._lock:
            entry = self._require(pid)
            if entry.dirty:
                entry.current_mask = entry.assigned_mask
                entry.updates_applied += 1
                return entry.current_mask, entry.current_mask
            return None, entry.assigned_mask

    def set_async_callback(self, pid: int, callback: MaskCallback | None) -> None:
        """Install (or clear) the asynchronous-mode callback of ``pid``."""
        with self._lock:
            self._require(pid).async_callback = callback

    # -- internals ----------------------------------------------------------------

    def _require(self, pid: int) -> ProcessEntry:
        if pid not in self._entries:
            raise ProcessNotRegisteredError(pid)
        return self._entries[pid]

    def _assign(self, entry: ProcessEntry, mask: CpuSet) -> None:
        """Write a new assigned mask and fire the asynchronous callback."""
        if mask == entry.assigned_mask:
            return
        entry.assigned_mask = mask
        if entry.async_callback is not None:
            # Asynchronous mode: the helper thread delivers the change right
            # away and the entry is immediately acknowledged.
            entry.current_mask = mask
            entry.updates_applied += 1
            entry.async_callback(entry.pid, mask)


class ShmemRegistry:
    """Registry of per-node shared memory segments (one per simulated node)."""

    def __init__(self) -> None:
        self._segments: dict[str, NodeSharedMemory] = {}

    def create(self, topology: NodeTopology, name: str | None = None) -> NodeSharedMemory:
        name = name or topology.name
        if name in self._segments:
            raise ValueError(f"shared memory for node {name!r} already exists")
        shmem = NodeSharedMemory(topology, name=name)
        self._segments[name] = shmem
        return shmem

    def get(self, name: str) -> NodeSharedMemory:
        if name not in self._segments:
            raise KeyError(f"no shared memory segment for node {name!r}")
        return self._segments[name]

    def names(self) -> list[str]:
        return list(self._segments.keys())

    def __contains__(self, name: object) -> bool:
        return name in self._segments

    def __len__(self) -> int:
        return len(self._segments)
