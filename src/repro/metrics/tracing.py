"""Extrae-like execution tracing.

The paper obtains application metrics "by tracing the use cases using Extrae
and visualizing traces with Paraver".  The tracer below records each rank's
execution steps (the malleability-point granularity of the simulation) as
runs of steps alike but for their start (:class:`StepRun`), plus mask-change
events; Figure 5's utilisation view and Figure 13's timelines derive from its
per-step :class:`StepRecord` views, Figure 14's IPC histograms from the runs.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import Iterable, Iterator, NamedTuple


class StepRecord(NamedTuple):
    """One execution step of one rank.

    A ``NamedTuple`` rather than a dataclass: the per-step views expand one
    of these per rank per step, and tuple construction is several times
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

    @classmethod
    def from_record(cls, record: dict) -> "StepRecord":
        payload = {k: v for k, v in record.items() if k != "record"}
        payload["thread_utilisation"] = tuple(payload["thread_utilisation"])
        return cls(**payload)


class StepRun(NamedTuple):
    """``count`` consecutive steps of one rank, alike but for their start.

    The fields are :class:`StepRecord`'s (``start`` the first step's, floats
    ``start`` and non-negative ``duration``) plus ``count``.  Step ``i + 1``
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
        """The last step's end (the chain of ``count`` additions)."""
        return reduce(add, repeat(self.duration, self.count), self.start)


def expand_runs(runs: Iterable[StepRun]) -> list[StepRecord]:
    """The step records of ``runs``, run by run, in recorded order."""
    steps: list[StepRecord] = []
    for run in runs:
        columns = [repeat(value, run.count) for value in run[:10]]
        columns[3] = accumulate(repeat(run.duration, run.count - 1), initial=run.start)
        steps.extend(map(StepRecord._make, zip(*columns)))
    return steps


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


#: Canonical presentation order of step records: by start instant, then job
#: label, then rank.  Recording order is an artifact of event interleaving —
#: a job that batches k steps appends them at its wake, a single-stepping job
#: appends one record per wake — so every view (queries, figure renderings,
#: exports and store serialisations) reads through this order instead, making
#: batched and unbatched executions of the same scenario indistinguishable.
def _step_order(step: StepRecord) -> tuple[float, str, int]:
    return (step.start, step.job, step.rank)


class Tracer:
    """Collects step runs and mask-change records for a whole scenario run.

    The per-step views (iteration, :meth:`steps`, :meth:`thread_utilisation`)
    expand and sort the runs on first use.
    """

    def __init__(self) -> None:
        self._runs: list[StepRun] = []
        self._nsteps = 0
        #: Lazily expanded canonical view of ``_runs`` (None = stale).
        self._ordered_steps: list[StepRecord] | None = []
        self._mask_changes: list[MaskChangeRecord] = []

    # -- recording -------------------------------------------------------------

    def record_step(self, record: StepRecord) -> None:
        """Append one step (a run of one)."""
        self._runs.append(StepRun(*record, 1))
        self._nsteps += 1
        self._ordered_steps = None

    def record_steps(self, runs: list[StepRun]) -> None:
        """Append a list of step runs (the batched runner's per-wake list of
        one rank); how steps are chunked into runs never shows in a view."""
        self._runs.extend(runs)
        self._nsteps += sum(run.count for run in runs)
        self._ordered_steps = None

    def record_mask_change(self, record: MaskChangeRecord) -> None:
        self._mask_changes.append(record)

    # -- queries ------------------------------------------------------------------

    def runs(self) -> list[StepRun]:
        """The recorded step runs, in recording order."""
        return list(self._runs)

    def _ordered(self) -> list[StepRecord]:
        if self._ordered_steps is None:
            self._ordered_steps = expand_runs(self._runs)
            self._ordered_steps.sort(key=_step_order)
        return self._ordered_steps

    def steps(self, job: str | None = None, rank: int | None = None) -> list[StepRecord]:
        out = self._ordered()
        if job is not None:
            out = [s for s in out if s.job == job]
        if rank is not None:
            out = [s for s in out if s.rank == rank]
        return list(out)

    def mask_changes(self, job: str | None = None) -> list[MaskChangeRecord]:
        if job is None:
            return list(self._mask_changes)
        return [m for m in self._mask_changes if m.job == job]

    def jobs(self) -> list[str]:
        """Job labels in order of first appearance in the canonical order."""
        return list(dict.fromkeys(job for _, job in sorted((r.start, r.job) for r in self._runs)))

    def span(self, job: str) -> tuple[float, float]:
        """First start and last end of a job's steps."""
        runs = [run for run in self._runs if run.job == job]
        if not runs:
            raise ValueError(f"no steps recorded for job {job!r}")
        return min(run.start for run in runs), max(run.end for run in runs)

    def __len__(self) -> int:
        """The number of step records (not runs)."""
        return self._nsteps

    def __iter__(self) -> Iterator[StepRecord]:
        return iter(self._ordered())

    # -- derived views ----------------------------------------------------------------

    def thread_utilisation(self, job: str, rank: int) -> dict[int, float]:
        """Time-weighted busy fraction per thread over the rank's whole run.

        This is the quantity Figure 5 visualises: after shrinking, the threads
        that pick up the orphaned chunks stay at 1.0 while the others show
        idle gaps.
        """
        steps = self.steps(job, rank)
        if not steps:
            raise ValueError(f"no steps recorded for job {job!r} rank {rank}")
        busy: dict[int, float] = {}
        total: dict[int, float] = {}
        for step in steps:
            for thread, util in enumerate(step.thread_utilisation):
                busy[thread] = busy.get(thread, 0.0) + util * step.duration
                total[thread] = total.get(thread, 0.0) + step.duration
        return {t: busy[t] / total[t] for t in sorted(busy)}
