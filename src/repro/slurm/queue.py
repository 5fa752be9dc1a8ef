"""The pending-job priority queue used by slurmctld.

SLURM keeps submitted jobs in a priority-ordered queue; within the same
priority FIFO order applies (the submission order).  The paper uses plain
FCFS for the Serial baseline and the same FCFS plus co-allocation for the
DROM scenario, with use case 2 adding a high-priority job.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

from repro.slurm.jobs import Job, JobState


class JobQueue:
    """Priority queue of pending jobs (higher priority first, then FIFO)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Job]] = []
        self._counter = itertools.count()

    def push(self, job: Job) -> None:
        """Enqueue a pending job."""
        if job.state is not JobState.PENDING:
            raise ValueError(f"only pending jobs can be queued, got {job.state.name}")
        heapq.heappush(self._heap, (-job.spec.priority, next(self._counter), job))

    def pop(self) -> Job:
        """Remove and return the highest-priority pending job."""
        if not self._heap:
            raise IndexError("pop from an empty job queue")
        return heapq.heappop(self._heap)[2]

    def remove(self, job_id: int) -> Job | None:
        """Remove a specific job (e.g. scancel); returns it or ``None``."""
        for i, (_prio, _seq, job) in enumerate(self._heap):
            if job.job_id == job_id:
                removed = self._heap.pop(i)[2]
                heapq.heapify(self._heap)
                return removed
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Job]:
        """Iterate jobs in scheduling order (non-destructive)."""
        return iter(job for _prio, _seq, job in sorted(self._heap))

    def jobs(self) -> list[Job]:
        return list(self)
