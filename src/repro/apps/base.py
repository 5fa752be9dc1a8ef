"""Application model base: configurations and work plans.

An :class:`ApplicationModel` couples a :class:`PerformanceProfile` with a
work volume and an iteration structure.  The workload runner instantiates one
:class:`WorkPlan` per job, which all its MPI ranks share: they run the same
iteration loop in lockstep.  A plan is a run-length sequence of *steps*, each a
quantum of work ending at a malleability point (an MPI call, an OMPT
parallel-begin, or a manual ``DLB_PollDROM``), exactly the points at which the
real integrations let DROM change the thread team.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from repro.apps.perfmodel import MaskShape, PerformanceProfile, PhaseProfile
from repro.core.floats import repeat_add
from repro.cpuset.mask import CpuSet
from repro.cpuset.topology import NodeTopology


@dataclass(frozen=True)
class AppConfig:
    """One MPI×OpenMP configuration of an application (a Table 1 entry)."""

    label: str
    mpi_ranks: int
    threads_per_rank: int

    def __post_init__(self) -> None:
        if self.mpi_ranks <= 0 or self.threads_per_rank <= 0:
            raise ValueError("ranks and threads must be positive")

    @property
    def total_cpus(self) -> int:
        return self.mpi_ranks * self.threads_per_rank

    def __str__(self) -> str:
        return f"{self.label} ({self.mpi_ranks} x {self.threads_per_rank})"


@dataclass(frozen=True)
class WorkStep:
    """One quantum of work of one rank, ending at a malleability point."""

    phase: PhaseProfile
    work_units: float


@dataclass
class WorkPlan:
    """Mutable execution state of a job's ranks: the run-length plan of one
    rank's steps and a cursor that all ranks share.

    ``segments`` holds ``(step, count)`` runs of identical steps in
    execution order, so pricing, advancing and emitting a stretch of steps
    costs O(segments) lookups instead of O(steps).
    """

    segments: list[tuple[WorkStep, int]]
    #: Thread-team size the application initialised with (fixes the static
    #: data partition; never changes even when the mask shrinks/expands).
    initial_threads: int
    next_step: int = 0
    #: Cumulative step count at the end of each segment.
    _ends: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._ends = list(accumulate(count for _, count in self.segments))

    @property
    def total_steps(self) -> int:
        return self._ends[-1] if self._ends else 0

    @property
    def finished(self) -> bool:
        return self.next_step >= self.total_steps

    @property
    def remaining_steps(self) -> int:
        return self.total_steps - self.next_step

    def current_step(self) -> WorkStep:
        if self.finished:
            raise IndexError("the plan has no remaining steps")
        return self.segments[bisect_right(self._ends, self.next_step)][0]

    def runs(self, count: int) -> list[tuple[WorkStep, int]]:
        """``(step, n)`` runs covering the next ``count`` steps, in order."""
        self._check_count(count)
        out: list[tuple[WorkStep, int]] = []
        position = self.next_step
        index = bisect_right(self._ends, position)
        while count:
            n = min(self._ends[index] - position, count)
            out.append((self.segments[index][0], n))
            position += n
            count -= n
            index += 1
        return out

    def advance_many(self, count: int) -> None:
        """Move past the next ``count`` steps."""
        self._check_count(count)
        self.next_step += count

    def _check_count(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self.remaining_steps:
            raise IndexError(
                f"the plan has {self.remaining_steps} steps left, "
                f"cannot take {count}"
            )


class StepTimes(Sequence):
    """Per-step durations of a window of a plan, held run-length.

    ``segments`` lists ``(duration, n)`` per plan segment the window
    overlaps: ``n`` consecutive steps that all take ``duration``.  Indexing
    and iteration read it as one float per step without building a
    per-step list.
    """

    __slots__ = ("segments", "_len")

    def __init__(self, segments: list[tuple[float, int]]) -> None:
        self.segments = segments
        self._len = sum(n for _, n in segments)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> float:
        if index < 0:
            index += self._len
        if 0 <= index < self._len:
            for duration, n in self.segments:
                if index < n:
                    return duration
                index -= n
        raise IndexError("step index out of range")

    def __iter__(self) -> Iterator[float]:
        for duration, n in self.segments:
            yield from repeat(duration, n)


@dataclass(frozen=True)
class ApplicationModel:
    """A runnable application: performance profile + work volume + structure.

    Parameters
    ----------
    profile:
        The analytic performance model.
    total_work:
        Work of the whole application in nominal CPU-seconds, summed over all
        ranks (i.e. ``total_work / total_cpus`` seconds on perfectly scaling
        hardware).
    iterations:
        Number of main-loop iterations (= malleability points per rank).
        Earlier phases get a proportional number of steps, at least one.
    malleable:
        Whether the application polls DROM and adapts (the paper's patched
        NEST/CoreNeuron and the DLB-enabled Pils/STREAM are malleable; the
        ablation benchmarks also build non-malleable variants).
    """

    profile: PerformanceProfile
    total_work: float
    iterations: int = 200
    malleable: bool = True

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise ValueError("total_work must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")

    @property
    def name(self) -> str:
        return self.profile.name

    # -- plan construction ----------------------------------------------------------

    def steps_for_phase(self, phase: PhaseProfile) -> int:
        return max(1, round(self.iterations * phase.work_fraction))

    def build_plan(self, config: AppConfig) -> WorkPlan:
        """Build the run-length plan each rank of one configuration runs
        (ranks are balanced: each gets ``1 / mpi_ranks`` of the work)."""
        work_per_rank = self.total_work / config.mpi_ranks
        segments: list[tuple[WorkStep, int]] = []
        for phase in self.profile.phases:
            nsteps = self.steps_for_phase(phase)
            phase_work = work_per_rank * phase.work_fraction
            # Every step of a phase is identical: one run-length segment.
            segments.append((WorkStep(phase=phase, work_units=phase_work / nsteps), nsteps))
        return WorkPlan(segments=segments, initial_threads=config.threads_per_rank)

    # -- timing ------------------------------------------------------------------------

    def step_times(
        self,
        plan: WorkPlan,
        count: int,
        shape: MaskShape,
        topology: NodeTopology,
        total_ranks: int,
        interference: float = 1.0,
    ) -> StepTimes:
        """Durations of the plan's next ``count`` steps on a fixed mask of
        this shape.

        One :meth:`PerformanceProfile.iteration_time` evaluation per plan
        segment, kept run-length: the batched runner reads
        :attr:`StepTimes.segments`, in O(segments); the single-step reference
        loop asks for ``count = 1`` and reads ``[0]``.
        """
        return StepTimes(
            [
                (
                    self.profile.iteration_time(
                        phase=step.phase,
                        work_units=step.work_units,
                        shape=shape,
                        topology=topology,
                        initial_threads=plan.initial_threads,
                        total_ranks=total_ranks,
                        interference=interference,
                    ),
                    n,
                )
                for step, n in plan.runs(count)
            ]
        )

    def step_ipc_for_phase(
        self, phase: PhaseProfile, shape: MaskShape, initial_threads: int
    ) -> float:
        """IPC of any step of ``phase`` on a mask of this shape
        (phase-constant, so a batch prices it once per phase instead of once
        per step)."""
        return self.profile.ipc(phase=phase, shape=shape, initial_threads=initial_threads)

    # -- reference timings ------------------------------------------------------------------

    def standalone_runtime(self, config: AppConfig, topology: NodeTopology) -> float:
        """Estimated runtime when the application owns its full request.

        Computed by walking the plan with a rank's nominal mask (ranks are
        balanced, so one rank is representative).  Used for calibration and
        by the benchmarks to report per-application reference times.
        """
        plan = self.build_plan(config)
        # Nominal mask: the first threads_per_rank CPUs of the node, i.e. the
        # placement the task/affinity plugin gives an uncontended rank.
        mask = CpuSet.from_range(0, min(config.threads_per_rank, topology.ncpus))
        shape = MaskShape.of(mask, topology)
        # The left fold of the per-step durations, one segment at a time.
        runtime = 0.0
        for duration, n in self.step_times(
            plan, plan.total_steps, shape, topology, config.mpi_ranks
        ).segments:
            runtime = repeat_add(runtime, duration, n)
        return runtime
