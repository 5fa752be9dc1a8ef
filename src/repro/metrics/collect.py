"""System-level metrics (Section 6's measurement definitions).

The paper evaluates workloads with:

* **Total run time** — last job end time minus first job submission time.
* **Response time** — per job, wait time in the queue plus execution time.
* **Average response time** — arithmetic mean of the response times of all
  jobs in the workload.

These are computed from the :class:`~repro.slurm.jobs.Job` records the
workload runner produces (the equivalent of reading them from SLURM logs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.floats import left_sum
from repro.slurm.jobs import Job, JobState


@dataclass(frozen=True)
class JobMetrics:
    """Per-job timing summary."""

    job_id: int
    name: str
    submit_time: float
    start_time: float
    end_time: float

    @property
    def wait_time(self) -> float:
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> float:
        return self.end_time - self.start_time

    @property
    def response_time(self) -> float:
        return self.end_time - self.submit_time


@dataclass(frozen=True)
class WorkloadMetrics:
    """Workload-level summary computed from the finished jobs."""

    jobs: tuple[JobMetrics, ...]

    @classmethod
    def from_jobs(cls, jobs: Iterable[Job]) -> "WorkloadMetrics":
        records = []
        for job in jobs:
            if job.state is not JobState.COMPLETED:
                raise ValueError(
                    f"job {job.job_id} ({job.spec.name!r}) has not completed; "
                    "metrics are only defined for finished workloads"
                )
            records.append(
                JobMetrics(
                    job_id=job.job_id,
                    name=job.spec.name,
                    submit_time=job.submit_time,
                    start_time=job.start_time if job.start_time is not None else 0.0,
                    end_time=job.end_time if job.end_time is not None else 0.0,
                )
            )
        if not records:
            raise ValueError("cannot compute metrics of an empty workload")
        return cls(jobs=tuple(records))

    # -- the paper's metrics ------------------------------------------------------

    @property
    def total_run_time(self) -> float:
        """Last job end time minus first job submission time."""
        return max(j.end_time for j in self.jobs) - min(j.submit_time for j in self.jobs)

    @property
    def average_response_time(self) -> float:
        return left_sum(j.response_time for j in self.jobs) / len(self.jobs)

    @property
    def makespan_end(self) -> float:
        return max(j.end_time for j in self.jobs)

    def response_times(self) -> Mapping[str, float]:
        """Per-job response time keyed by job name."""
        return {j.name: j.response_time for j in self.jobs}

    def run_times(self) -> Mapping[str, float]:
        return {j.name: j.run_time for j in self.jobs}

    def wait_times(self) -> Mapping[str, float]:
        return {j.name: j.wait_time for j in self.jobs}

    def job(self, name: str) -> JobMetrics:
        for record in self.jobs:
            if record.name == name:
                return record
        raise KeyError(f"no job named {name!r} in the workload")


def relative_improvement(baseline: float, improved: float) -> float:
    """Relative gain of ``improved`` over ``baseline`` (positive = better).

    The paper reports gains as "(Serial - DROM) / Serial": e.g. a DROM total
    run time 8 % lower than the Serial one is a 0.08 improvement.
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - improved) / baseline
