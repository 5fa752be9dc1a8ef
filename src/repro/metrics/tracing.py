"""Extrae-like execution tracing.

The paper obtains application metrics "by tracing the use cases using Extrae
and visualizing traces with Paraver".  The tracer below records each rank's
execution steps (the malleability-point granularity of the simulation) as
runs of steps alike but for their start (:class:`StepRun`), plus mask-change
events.  No per-step copy is kept: a view that renders steps walks
:func:`step_index` over just the runs it reads (the ``.prv`` export, Figure
13's binned timelines), a view that returns records expands them through
:func:`ordered_steps`, and a view of one rank folds that rank's runs
(:func:`busy_fractions`, Figure 5's utilisation).
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.core.floats import repeat_add


class StepRecord(NamedTuple):
    """One execution step of one rank.

    A ``NamedTuple`` rather than a dataclass: :func:`ordered_steps` expands
    one of these per rank per step, and tuple construction is several times
    cheaper than a frozen dataclass ``__init__`` while keeping the record
    immutable, hashable and field-comparable.
    """

    job: str
    rank: int
    node: str
    start: float
    duration: float
    phase: str
    nthreads: int
    #: Per-thread busy fraction during the step (length == nthreads).
    thread_utilisation: tuple[float, ...]
    ipc: float
    work_units: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_record(self) -> dict:
        """JSON-able representation (the JSONL export / trace-store schema).

        Floats serialise via ``repr`` (shortest-round-trip exact), so a step
        survives the JSON round trip with exact float equality.
        """
        return {
            "record": "step",
            "job": self.job,
            "rank": self.rank,
            "node": self.node,
            "start": self.start,
            "duration": self.duration,
            "phase": self.phase,
            "nthreads": self.nthreads,
            "thread_utilisation": list(self.thread_utilisation),
            "ipc": self.ipc,
            "work_units": self.work_units,
        }


class StepRun(NamedTuple):
    """``count`` consecutive steps of one rank, alike but for their start.

    The fields are :class:`StepRecord`'s (``start`` the first step's, floats
    ``start`` and non-negative ``duration``) plus ``count``, which is at
    least 1: the runner records a run per stretch its steps overlap, and a
    stored run of count 0 reads as a corrupt artifact.  Step ``i + 1``
    starts at ``start + duration`` of step ``i``, the very addition the
    engine clock performs, so a run expands to exactly its records.
    """

    job: str
    rank: int
    node: str
    start: float
    duration: float
    phase: str
    nthreads: int
    thread_utilisation: tuple[float, ...]
    ipc: float
    work_units: float
    count: int

    @property
    def end(self) -> float:
        """The last step's end: the chain of ``count`` additions of
        ``duration`` to ``start``, evaluated by :func:`repeat_add` in
        O(binades crossed) with the chain's exact result."""
        return repeat_add(self.start, self.duration, self.count)


#: A step record's ``(start, job, rank)``: the canonical step order.
_step_order = itemgetter(3, 0, 1)


def step_index(runs: Sequence[StepRun]) -> list[tuple[float, str, int, int]]:
    """``(start, job, rank, i)`` of every step of ``runs``, ``i`` the index
    of the step's run in ``runs``, in :func:`ordered_steps`' order.

    The tuples are built from C-level columns and sorted whole: ``i`` grows
    in expansion order, and the steps of one run that tie on ``start`` are
    alike, so the plain sort is the stable sort by ``(start, job, rank)``.
    A renderer walks this and looks each step's other fields up in its
    run, once per run, instead of building a :class:`StepRecord` per step.
    """
    index: list[tuple[float, str, int, int]] = []
    for i, run in enumerate(runs):
        starts = accumulate(repeat(run.duration, run.count - 1), initial=run.start)
        index.extend(zip(starts, repeat(run.job), repeat(run.rank), repeat(i)))
    index.sort()
    return index


def ordered_steps(runs: Iterable[StepRun]) -> list[StepRecord]:
    """The step records of ``runs`` in canonical ``(start, job, rank)``
    order: expanded run by run, then stable-sorted, so tied steps keep the
    order of their runs.  Recording order is an artifact of event
    interleaving, so every per-step view reads in this order, and batched
    and reference runs of a scenario read alike.  The views that return
    records expand through here, each handing it only the runs it reads;
    the renderers walk :func:`step_index` instead."""
    steps: list[StepRecord] = []
    for run in runs:
        columns = [repeat(value, run.count) for value in run[:10]]
        columns[3] = accumulate(repeat(run.duration, run.count - 1), initial=run.start)
        steps.extend(map(StepRecord._make, zip(*columns)))
    steps.sort(key=_step_order)
    return steps


def busy_fractions(runs: Iterable[StepRun]) -> dict[int, float]:
    """Time-weighted busy fraction per thread over the steps of ``runs``,
    runs of one rank (empty for no runs).

    The runs are folded in start order, each run's ``count`` equal addends
    by :func:`repeat_add`: the very additions, in the very order, of a walk
    over the rank's steps, since one rank records its runs in time order,
    one after another.
    """
    busy: dict[int, float] = {}
    total: dict[int, float] = {}
    for run in sorted(runs, key=attrgetter("start")):
        for thread, util in enumerate(run.thread_utilisation):
            busy[thread] = repeat_add(busy.get(thread, 0.0), util * run.duration, run.count)
            total[thread] = repeat_add(total.get(thread, 0.0), run.duration, run.count)
    return {t: busy[t] / total[t] for t in sorted(busy)}


class MaskChangeRecord(NamedTuple):
    """A DROM mask change observed by a rank."""

    job: str
    rank: int
    time: float
    old_threads: int
    new_threads: int

    def to_record(self) -> dict:
        """JSON-able representation (the JSONL export / trace-store schema)."""
        return {
            "record": "mask_change",
            "job": self.job,
            "rank": self.rank,
            "time": self.time,
            "old_threads": self.old_threads,
            "new_threads": self.new_threads,
        }

    @classmethod
    def from_record(cls, record: dict) -> "MaskChangeRecord":
        return cls(**{k: v for k, v in record.items() if k != "record"})


class Tracer:
    """Collects step runs and mask-change records for a whole scenario run.

    Steps are written and kept only as :class:`StepRun`\\ s
    (:meth:`record_steps`); a per-step view passes :meth:`runs` through
    :func:`ordered_steps` on each read.
    """

    def __init__(self) -> None:
        self._runs: list[StepRun] = []
        self._nsteps = 0
        self._mask_changes: list[MaskChangeRecord] = []

    # -- recording -------------------------------------------------------------

    def record_steps(self, runs: list[StepRun]) -> None:
        """Append a list of step runs: the runner's per-wake list of one
        rank, runs of one in its reference loop.  How steps are chunked
        into runs never shows in a view."""
        self._runs.extend(runs)
        self._nsteps += sum(run.count for run in runs)

    def record_mask_change(self, record: MaskChangeRecord) -> None:
        self._mask_changes.append(record)

    # -- queries ------------------------------------------------------------------

    def runs(self, job: str | None = None, rank: int | None = None) -> list[StepRun]:
        """The recorded step runs, in recording order, optionally of one job
        and rank."""
        return [
            run
            for run in self._runs
            if job in (None, run.job) and rank in (None, run.rank)
        ]

    def mask_changes(self, job: str | None = None) -> list[MaskChangeRecord]:
        if job is None:
            return list(self._mask_changes)
        return [m for m in self._mask_changes if m.job == job]

    def jobs(self) -> list[str]:
        """Job labels in order of first appearance in the canonical order."""
        return list(dict.fromkeys(job for _, job in sorted((r.start, r.job) for r in self._runs)))

    def span(self, job: str) -> tuple[float, float]:
        """First start and last end of a job's steps."""
        runs = self.runs(job)
        if not runs:
            raise ValueError(f"no steps recorded for job {job!r}")
        return min(run.start for run in runs), max(run.end for run in runs)

    def __len__(self) -> int:
        """The number of step records (not runs)."""
        return self._nsteps

    def __iter__(self) -> Iterator[StepRecord]:
        """Every step record in canonical order, expanded afresh by
        :func:`ordered_steps`; the package's own views read :meth:`runs`."""
        return iter(ordered_steps(self._runs))

    # -- derived views ----------------------------------------------------------------

    def thread_utilisation(self, job: str, rank: int) -> dict[int, float]:
        """Time-weighted busy fraction per thread over the rank's whole run.

        This is the quantity Figure 5 visualises: after shrinking, the threads
        that pick up the orphaned chunks stay at 1.0 while the others show
        idle gaps.  The rank's runs fold through :func:`busy_fractions`.
        """
        runs = self.runs(job, rank)
        if not runs:
            raise ValueError(f"no steps recorded for job {job!r} rank {rank}")
        return busy_fractions(runs)
