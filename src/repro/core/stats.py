"""DROM statistics module — run-time performance data for the scheduler.

The paper's future-work section proposes "the collection of useful data from
applications at run time.  The collected information can be consulted by an
external [entity] to get info about applications performance and send them to
the job scheduler to be taken into account for further scheduling decisions".
The real DLB library later grew this capability as the TALP module; this
module provides the equivalent for the reproduction:

* every DLB process accumulates, in the node shared memory, counters of
  useful compute time, idle (load-imbalance) time, MPI time and the number of
  DROM mask changes it has applied;
* an attached administrator reads them back per pid or per node
  (:meth:`StatsModule.process_stats`, :meth:`StatsModule.node_summary`), which
  is exactly what a DROM-aware scheduling policy needs to choose "victim"
  nodes with low utilisation.

The workload runner feeds these counters from the application models, and the
``LowUtilisationFirst`` policy in :mod:`repro.slurm.policies` consumes them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import inf

from repro.core.errors import ProcessNotRegisteredError
from repro.core.floats import left_sum, repeat_add
from repro.core.shmem import NodeSharedMemory


@dataclass
class ProcessStats:
    """Per-process accumulated counters (the shared-memory stats record)."""

    pid: int
    #: Seconds of useful computation performed by the process's threads.
    useful_time: float = 0.0
    #: Seconds the threads spent idle (load imbalance, shrunk-team gaps).
    idle_time: float = 0.0
    #: Seconds spent inside MPI calls.
    mpi_time: float = 0.0
    #: Number of DROM mask changes the process has applied.
    mask_changes: int = 0
    #: Integral of (CPUs owned x seconds) — the denominator for utilisation.
    cpu_seconds_owned: float = 0.0

    @property
    def utilisation(self) -> float:
        """Fraction of the owned CPU time that was useful computation."""
        if self.cpu_seconds_owned <= 0:
            return 0.0
        return min(1.0, self.useful_time / self.cpu_seconds_owned)

    @property
    def parallel_efficiency(self) -> float:
        """Useful time over useful + idle + MPI time (a LeWI-style metric)."""
        total = self.useful_time + self.idle_time + self.mpi_time
        if total <= 0:
            return 0.0
        return self.useful_time / total


@dataclass(frozen=True)
class NodeStatsSummary:
    """Aggregated view of one node, as a scheduler would consume it."""

    node: str
    nprocesses: int
    cpus_owned: int
    utilisation: float
    parallel_efficiency: float
    total_mask_changes: int


class StatsModule:
    """Accumulates and serves run-time statistics for one node.

    The module piggybacks on the node's :class:`NodeSharedMemory`: only pids
    registered there may report statistics, and entries are dropped when the
    process unregisters (mirroring how the stats live in the same shared
    memory segment).
    """

    def __init__(self, shmem: NodeSharedMemory) -> None:
        self._shmem = shmem
        self._stats: dict[int, ProcessStats] = {}
        self._lock = threading.RLock()

    # -- process side -------------------------------------------------------------

    def record_compute_batch(
        self, pid: int, intervals: "list[tuple[float, float, int, float, int]]"
    ) -> ProcessStats:
        """Account execution intervals for ``pid``: the only compute write.

        Each entry is ``(useful_time, idle_time, ncpus, seconds, count)``:
        ``count`` identical steps' useful and idle seconds plus their
        CPU-ownership integral (``ncpus * seconds`` per step).  Each
        accumulator ends where ``count`` in-order per-step additions would
        leave it (float addition is order-sensitive, and ``count * x`` can
        differ in the last bits), so one count-``k`` entry accumulates
        exactly as ``k`` count-1 entries do; :func:`repeat_add` gets there
        in O(binades crossed), not O(count).  One lock acquire and one
        registry lookup serve the whole list.  A negative or non-finite
        field, or a count below 1, raises ``ValueError`` and leaves the
        record untouched.
        """
        with self._lock:
            stats = self._require(pid)
            useful = stats.useful_time
            idle = stats.idle_time
            owned = stats.cpu_seconds_owned
            for useful_time, idle_time, ncpus, seconds, count in intervals:
                if not (0.0 <= useful_time < inf and 0.0 <= idle_time < inf):
                    raise ValueError("times must be finite and non-negative")
                if not (0 <= ncpus < inf and 0.0 <= seconds < inf):
                    raise ValueError("ncpus and seconds must be finite and non-negative")
                if count == 1:
                    useful += useful_time
                    idle += idle_time
                    owned += ncpus * seconds
                elif count > 1:
                    # The left fold of ``count`` additions, one per step.
                    useful = repeat_add(useful, useful_time, count)
                    idle = repeat_add(idle, idle_time, count)
                    owned = repeat_add(owned, ncpus * seconds, count)
                else:
                    raise ValueError("count must be at least 1")
            stats.useful_time = useful
            stats.idle_time = idle
            stats.cpu_seconds_owned = owned
            return stats

    def record_mpi(self, pid: int, mpi_time: float) -> ProcessStats:
        """Add time spent inside MPI calls (finite and non-negative)."""
        if not 0.0 <= mpi_time < inf:
            raise ValueError("mpi_time must be finite and non-negative")
        with self._lock:
            stats = self._require(pid)
            stats.mpi_time += mpi_time
            return stats

    def record_mask_change(self, pid: int) -> ProcessStats:
        with self._lock:
            stats = self._require(pid)
            stats.mask_changes += 1
            return stats

    def drop(self, pid: int) -> None:
        """Remove a finished process's record (``DROM_PostFinalize`` path)."""
        with self._lock:
            self._stats.pop(pid, None)

    # -- administrator side ------------------------------------------------------------

    def process_stats(self, pid: int) -> ProcessStats:
        """Counters of one registered process (raises if unknown)."""
        with self._lock:
            if pid not in self._stats and not self._shmem.has(pid):
                raise ProcessNotRegisteredError(pid)
            return self._require(pid)

    def pids(self) -> list[int]:
        with self._lock:
            return list(self._stats.keys())

    def node_summary(self) -> NodeStatsSummary:
        """Aggregate the node's statistics for the scheduler.

        The records are added up in the shared memory's registration
        order, as an administrator walks the segment's process table, so a
        summary depends only on what was recorded, not on which process
        reported first.
        """
        with self._lock:
            records = [self._stats[pid] for pid in self._shmem.pids() if pid in self._stats]
            cpus_owned = self._shmem.busy_mask().count()
            if not records:
                return NodeStatsSummary(
                    node=self._shmem.name,
                    nprocesses=0,
                    cpus_owned=cpus_owned,
                    utilisation=0.0,
                    parallel_efficiency=0.0,
                    total_mask_changes=0,
                )
            owned = left_sum(r.cpu_seconds_owned for r in records)
            useful = left_sum(r.useful_time for r in records)
            busy = left_sum(r.useful_time + r.idle_time + r.mpi_time for r in records)
            return NodeStatsSummary(
                node=self._shmem.name,
                nprocesses=len(records),
                cpus_owned=cpus_owned,
                utilisation=min(1.0, useful / owned) if owned > 0 else 0.0,
                parallel_efficiency=useful / busy if busy > 0 else 0.0,
                total_mask_changes=sum(r.mask_changes for r in records),
            )

    # -- internals ----------------------------------------------------------------------

    def _require(self, pid: int) -> ProcessStats:
        if pid not in self._stats:
            if not self._shmem.has(pid):
                raise ProcessNotRegisteredError(pid)
            self._stats[pid] = ProcessStats(pid=pid)
        return self._stats[pid]
