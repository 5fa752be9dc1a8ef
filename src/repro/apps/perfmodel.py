"""Analytic performance models for the evaluation applications.

The paper measures real applications (NEST, CoreNeuron, Pils, STREAM) on real
MareNostrum III nodes.  This reproduction replaces the silicon with analytic
models whose *qualitative* properties drive every figure:

* **Thread efficiency** — hybrid MPI+OpenMP ranks lose efficiency as the
  thread team grows, and lose extra efficiency when the team spans both
  sockets (NUMA).  This is what the paper observes as "increasing IPC
  switching from Conf. 1 to Conf. 2 … better data locality" and "higher
  parallel efficiency when running on less OpenMP threads per MPI rank".
* **Static data partition** — NEST and CoreNeuron split their data into a
  fixed number of chunks when they initialise.  When DROM later removes
  threads, the orphaned chunks are executed as extra rounds by the remaining
  threads, creating the imbalance of Figure 5.  The penalty is a ceiling
  effect: ``ceil(chunks / threads)`` rounds instead of ``chunks / threads``.
* **Memory-bound saturation** — STREAM's throughput is capped by memory
  bandwidth; beyond a couple of cores per node more CPUs do not help (the
  paper: "over two CPUs per node performance keeps constant").
* **Communication overhead** — more MPI ranks exchange more messages; this is
  why NEST Conf. 2 (4×8) is not simply faster than Conf. 1 (2×16) despite the
  better thread efficiency.

All model parameters live in :class:`PerformanceProfile`; the per-application
calibrations are documented in :mod:`repro.apps` and EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.floats import left_sum
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology

#: Nominal MN3 SandyBridge clock in cycles per microsecond (2.6 GHz).
NOMINAL_CYCLES_PER_US = 2600.0


@dataclass(frozen=True)
class ThreadEfficiency:
    """Per-thread efficiency of a shared-memory team.

    ``eff(n) = 1 / (1 + alpha * (n - 1))`` with an extra multiplicative
    penalty when the team's CPU mask spans more than one socket.
    """

    #: Linear overhead per extra thread (synchronisation, scheduling).
    alpha: float = 0.01
    #: Multiplicative efficiency loss when threads span >1 socket (NUMA).
    numa_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= self.numa_penalty < 1.0:
            raise ValueError("numa_penalty must be in [0, 1)")

    def efficiency(self, nthreads: int, sockets_spanned: int = 1) -> float:
        """Per-thread efficiency in (0, 1]."""
        if nthreads <= 0:
            raise ValueError("nthreads must be positive")
        eff = 1.0 / (1.0 + self.alpha * (nthreads - 1))
        if sockets_spanned > 1:
            eff *= 1.0 - self.numa_penalty
        return eff

    def throughput(self, nthreads: int, sockets_spanned: int = 1) -> float:
        """Aggregate team throughput in CPU-equivalents."""
        return nthreads * self.efficiency(nthreads, sockets_spanned)


@dataclass(frozen=True)
class StaticPartition:
    """Static data decomposition fixed at application initialisation.

    ``chunks_per_thread`` sub-domains are created per *initial* thread.  With
    the initial team every iteration needs exactly ``chunks_per_thread``
    rounds; with a smaller team the orphaned chunks add extra rounds
    (Figure 5's imbalance).  ``chunks_per_thread=0`` means the application is
    fully malleable (no static partition).
    """

    chunks_per_thread: int = 4

    def __post_init__(self) -> None:
        if self.chunks_per_thread < 0:
            raise ValueError("chunks_per_thread must be non-negative")

    @property
    def is_static(self) -> bool:
        return self.chunks_per_thread > 0

    def total_chunks(self, initial_threads: int) -> int:
        return self.chunks_per_thread * initial_threads

    def rounds(self, initial_threads: int, current_threads: int) -> int:
        """Number of chunk rounds one iteration needs with the current team."""
        if current_threads <= 0:
            raise ValueError("current_threads must be positive")
        if not self.is_static:
            return 1
        return math.ceil(self.total_chunks(initial_threads) / current_threads)

    def imbalance_factor(self, initial_threads: int, current_threads: int) -> float:
        """Iteration-time inflation caused purely by the static partition.

        1.0 when the partition divides evenly; e.g. removing one thread from a
        16-thread team with 4 chunks/thread gives 5 rounds instead of 4.06
        ideal rounds → ≈1.23.
        """
        if not self.is_static:
            return 1.0
        ideal = self.total_chunks(initial_threads) / current_threads
        return self.rounds(initial_threads, current_threads) / ideal

    def thread_utilisation(
        self, initial_threads: int, current_threads: int
    ) -> list[float]:
        """Per-thread busy fraction within one iteration (Figure 5's view).

        Chunks are dealt round-robin to the current threads; threads that
        receive fewer chunks than the busiest one idle for the difference.
        """
        if current_threads <= 0:
            raise ValueError("current_threads must be positive")
        chunks = self.total_chunks(initial_threads) if self.is_static else current_threads
        per_thread = [
            chunks // current_threads + (1 if i < chunks % current_threads else 0)
            for i in range(current_threads)
        ]
        busiest = max(per_thread)
        return [count / busiest for count in per_thread]


@dataclass(frozen=True)
class MemoryBandwidthModel:
    """Saturating memory-bandwidth model (STREAM-like behaviour).

    ``bytes_per_unit_work`` converts a unit of application work into memory
    traffic; the achievable bandwidth is the minimum of what the used cores
    can generate and what the sockets the mask touches can sustain.
    """

    #: GB/s a single core can draw (SandyBridge ≈ half a socket with 2 cores).
    per_core_gbs: float = 20.0
    #: GB of traffic per unit of work (1.0 work unit = 1 CPU-second nominal).
    traffic_gb_per_work_unit: float = 0.0

    @property
    def is_memory_bound(self) -> bool:
        return self.traffic_gb_per_work_unit > 0.0

    def achievable_bandwidth(self, shape: MaskShape, topology: NodeTopology) -> float:
        """GB/s a mask of this shape can sustain on the node."""
        if not shape.ncpus:
            return 0.0
        socket_cap = left_sum(
            topology.sockets[index].memory_bandwidth_gbs for index in shape.sockets
        )
        return min(shape.ncpus * self.per_core_gbs, socket_cap)

    def memory_time(
        self, work_units: float, shape: MaskShape, topology: NodeTopology
    ) -> float:
        """Seconds needed to move the traffic of ``work_units`` of work."""
        if not self.is_memory_bound or work_units <= 0:
            return 0.0
        bandwidth = self.achievable_bandwidth(shape, topology)
        if bandwidth <= 0:
            return math.inf
        return work_units * self.traffic_gb_per_work_unit / bandwidth


@dataclass(frozen=True)
class PhaseProfile:
    """One execution phase of an application (e.g. init vs. solve).

    ``work_fraction`` of the application's total work belongs to this phase;
    the phase's own efficiency/memory parameters override the application
    defaults, which is how CoreNeuron's memory-bound initialisation phase is
    modelled.
    """

    name: str
    work_fraction: float
    efficiency: ThreadEfficiency
    memory: MemoryBandwidthModel = MemoryBandwidthModel()
    #: Base instructions-per-cycle of one thread during this phase.
    base_ipc: float = 1.2
    #: Iteration-time multiplier for communication (grows with rank count).
    comm_overhead_per_rank: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.work_fraction <= 1.0:
            raise ValueError("work_fraction must be in (0, 1]")

    def comm_factor(self, total_ranks: int) -> float:
        """Iteration-time inflation from MPI communication."""
        return 1.0 + self.comm_overhead_per_rank * max(total_ranks - 2, 0)


class MaskShape(NamedTuple):
    """What pricing reads of a CPU mask on one node: how many CPUs it holds
    and which sockets it touches (positions in ``topology.sockets``).

    :meth:`PerformanceProfile.iteration_time`, :meth:`PerformanceProfile.ipc`
    and :meth:`MemoryBandwidthModel.achievable_bandwidth` take a shape, not
    a mask, so masks of one shape price alike, bit for bit: the batched
    runner keys its cached fold on its ranks' shapes.
    """

    ncpus: int
    sockets: tuple[int, ...]

    @classmethod
    def of(cls, mask: CpuSet, topology: NodeTopology) -> "MaskShape":
        bits = mask.bits
        return cls(
            bits.bit_count(),
            tuple(i for i, socket in enumerate(topology.sockets) if socket.cpus.bits & bits),
        )


@dataclass(frozen=True)
class PerformanceProfile:
    """Complete analytic model of one application."""

    name: str
    phases: tuple[PhaseProfile, ...]
    partition: StaticPartition = StaticPartition(chunks_per_thread=0)

    def __post_init__(self) -> None:
        total = left_sum(phase.work_fraction for phase in self.phases)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"phase work fractions of {self.name!r} must sum to 1, got {total}"
            )

    def phase(self, name: str) -> PhaseProfile:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(f"no phase named {name!r} in profile {self.name!r}")

    # -- core timing law -----------------------------------------------------------

    def iteration_time(
        self,
        phase: PhaseProfile,
        work_units: float,
        shape: MaskShape,
        topology: NodeTopology,
        initial_threads: int,
        total_ranks: int,
        interference: float = 1.0,
    ) -> float:
        """Wall-clock seconds one rank needs for ``work_units`` of phase work.

        The compute time follows the static-partition/efficiency law; the
        memory time follows the bandwidth model; the rank is limited by the
        slower of the two (roofline-style), then inflated by the MPI
        communication factor and by any co-location interference.
        """
        if work_units <= 0:
            return 0.0
        nthreads = shape.ncpus
        if nthreads == 0:
            return math.inf
        eff = phase.efficiency.efficiency(nthreads, len(shape.sockets))
        imbalance = self.partition.imbalance_factor(initial_threads, nthreads)
        compute = work_units / (nthreads * eff) * imbalance
        memory = phase.memory.memory_time(work_units, shape, topology)
        base = max(compute, memory)
        return base * phase.comm_factor(total_ranks) * max(interference, 1.0)

    #: How strongly thread efficiency shows up in the measured IPC.  Most of a
    #: team's efficiency loss is spin/idle time (visible as utilisation, not
    #: IPC), so only a fraction of it lowers the per-instruction rate — this
    #: is why the paper's Figure 14 histograms look "comparable" between the
    #: Serial and DROM scenarios while the run times still differ.
    IPC_EFFICIENCY_WEIGHT = 0.3

    def ipc(self, phase: PhaseProfile, shape: MaskShape, initial_threads: int) -> float:
        """Average per-thread IPC during the phase on a mask of this shape."""
        nthreads = shape.ncpus
        if nthreads == 0:
            return 0.0
        eff = phase.efficiency.efficiency(nthreads, len(shape.sockets))
        imbalance = self.partition.imbalance_factor(initial_threads, nthreads)
        w = self.IPC_EFFICIENCY_WEIGHT
        damped_eff = (1.0 - w) + w * eff
        damped_imbalance = (1.0 - w) + w * imbalance
        # Imbalance shows up mostly as idle cycles on the under-loaded
        # threads; only a weighted part of it (and of the efficiency loss)
        # lowers the *average* per-instruction rate.
        return phase.base_ipc * damped_eff / damped_imbalance

    def cycles_per_us(self, busy_fraction: float = 1.0) -> float:
        """Cycles per microsecond dedicated to a thread (Figure 13's metric)."""
        return NOMINAL_CYCLES_PER_US * min(max(busy_fraction, 0.0), 1.0)
