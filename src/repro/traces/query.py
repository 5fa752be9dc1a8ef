"""Query engine over stored traces, and scenario replay.

Two layers:

* :class:`TraceReader` — the figure-level queries over one trace (live or
  stored): per-job timelines, DROM mask-change sequences, windowed step
  records, Figure 14's IPC histograms (from the step runs) and mean IPC,
  and :class:`~repro.metrics.paraver.ParaverView` renderings.  It is
  deliberately lazy-friendly: constructed from a
  :class:`~repro.traces.store.TraceEntry` it only inflates the artifact when
  a query first needs the records.
* :func:`replay_scenario` — rebuilds a :class:`ScenarioReplay` from the two
  store tiers (metrics row + trace artifact).  A replay mirrors the slice of
  :class:`~repro.workload.runner.ScenarioResult` the reporting surface
  consumes (``metrics``, ``tracer``, ``workload``, ``end_time``,
  ``job_utilisation``), so the trace figures regenerate from a warm store
  without simulating — and byte-identically, because both the metrics row
  and the trace records survive their JSON round trips exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Union

from repro.campaign.spec import RunSpec
from repro.core.floats import left_sum
from repro.metrics.paraver import ParaverView
from repro.metrics.tracing import MaskChangeRecord, StepRecord, Tracer, ordered_steps
from repro.obs.sched import FairnessSummary, JobLifecycleRecord, NodeSample, SchedTimeline
from repro.traces.store import TraceEntry

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    import numpy as np

    from repro.campaign.runner import RunMetrics
    from repro.workload.workloads import Workload


class TraceReader:
    """Figure-level queries over one run's trace.

    Accepts either a live :class:`~repro.metrics.tracing.Tracer` or a stored
    :class:`~repro.traces.store.TraceEntry`; in the latter case the artifact
    is inflated on first query, not at construction.
    """

    def __init__(
        self,
        source: Union[Tracer, TraceEntry],
        header: dict | None = None,
        sched: SchedTimeline | None = None,
    ):
        self._source = source
        self._header = dict(header) if header is not None else (
            dict(source.header) if isinstance(source, TraceEntry) else {}
        )
        #: Scheduler timeline for live tracers (stored entries carry their
        #: own ``sched`` member; sched-less runs read as an empty timeline).
        self._sched = sched

    @cached_property
    def tracer(self) -> Tracer:
        if isinstance(self._source, TraceEntry):
            return self._source.tracer
        return self._source

    @property
    def header(self) -> dict:
        """The stored run header (empty for live tracers)."""
        return self._header

    # -- timelines (Figures 3/13) ------------------------------------------------

    def jobs(self) -> list[str]:
        return self.tracer.jobs()

    def job_intervals(self) -> dict[str, tuple[float, float]]:
        """Job label -> (first step start, last step end)."""
        return {job: self.tracer.span(job) for job in self.tracer.jobs()}

    def view(self, bin_seconds: float = 50.0) -> ParaverView:
        return ParaverView(self.tracer, bin_seconds=bin_seconds)

    def render_job_widths(
        self, jobs: list[str] | None = None, bin_seconds: float = 50.0
    ) -> str:
        """ASCII per-job thread-count timeline (the Figure 3/13 shape)."""
        return self.view(bin_seconds).render_job_widths(jobs or self.jobs())

    def render_thread_activity(self, job: str, bin_seconds: float = 50.0) -> str:
        """ASCII per-thread utilisation timeline (the Figure 5 view)."""
        return self.view(bin_seconds).render_thread_activity(job)

    # -- mask changes (Figure 5 / use case 2 expansion) ---------------------------

    def mask_change_sequence(self, job: str | None = None) -> list[MaskChangeRecord]:
        return self.tracer.mask_changes(job)

    # -- windowed interval queries (lazy on stored traces) ------------------------

    def steps_between(
        self,
        lo: float,
        hi: float,
        job: str | None = None,
        rank: int | None = None,
    ) -> list[StepRecord]:
        """Every step record overlapping the ``[lo, hi]`` time interval
        (``start <= hi and end >= lo``), in canonical ``(start, job, rank)``
        order, optionally restricted to one job/rank.

        Served from the step runs (a stored entry's :attr:`~repro.traces.
        store.TraceEntry.runs`, never its assembled tracer): each run's own
        left fold of step boundaries is bisected to the overlapping slice,
        and only the slices expand to records.
        """
        source = self._source
        runs = source.runs if isinstance(source, TraceEntry) else source.runs()
        slices = []
        for run in runs:
            if run.start > hi or job not in (None, run.job) or rank not in (None, run.rank):
                continue
            # starts[i] is step i's start and starts[i + 1] its end.
            starts = list(accumulate(repeat(run.duration, run.count), initial=run.start))
            first = bisect_left(starts, lo, 1) - 1
            last = bisect_right(starts, hi, 0, run.count)
            if first < last:
                slices.append(run._replace(start=starts[first], count=last - first))
        return ordered_steps(slices)

    # -- scheduler timeline (fairness / utilization; ROADMAP item 4) ---------------

    @cached_property
    def sched(self) -> SchedTimeline:
        """The run's scheduler timeline.  Warm path: the stored entry's
        ``sched`` member inflates on first touch, with zero simulation."""
        if self._sched is not None:
            return self._sched
        if isinstance(self._source, TraceEntry):
            return self._source.sched
        return SchedTimeline()

    def queue_depth_series(self) -> list[tuple[float, int]]:
        """(time, pending-queue depth) at every scheduler event."""
        return self.sched.queue_depth_series()

    def utilization_series(self, node: str | None = None) -> list[NodeSample]:
        """Per-node busy-CPU/allocation samples, optionally for one node."""
        return self.sched.utilization_series(node)

    def job_lifecycle(self) -> list[JobLifecycleRecord]:
        """The per-job submit → start → end table, in submit order."""
        return self.sched.job_lifecycle()

    def fairness_summary(self) -> FairnessSummary:
        """p50/p95/max wait and bounded-slowdown percentiles of the run."""
        return self.sched.fairness_summary()

    # -- IPC (Figure 14) ----------------------------------------------------------

    def ipc_histogram(
        self, job: str, bins: int = 20, range_: tuple[float, float] = (0.0, 2.0)
    ) -> np.ndarray:
        """IPC histogram aggregated over all the job's threads (float64
        counts of ``ipc * utilisation``, one per thread per step).  Each run's
        values weigh ``count``, so any chunking of steps into runs agrees."""
        import numpy as np

        runs = self.tracer.runs(job)
        values = [run.ipc * util for run in runs for util in run.thread_utilisation]
        weights = [run.count for run in runs for _util in run.thread_utilisation]
        counts, _edges = np.histogram(
            np.array(values, float), bins=bins, range=range_, weights=np.array(weights, np.int64)
        )
        return counts.astype(np.float64)

    def mean_ipc(self, job: str) -> float:
        """Duration-weighted mean of the per-thread IPC ``ipc * utilisation``
        over every step of a job (the plain mean if no step takes time)."""
        samples = [
            (step.ipc * util, step.duration)
            for step in ordered_steps(self.tracer.runs(job))
            for util in step.thread_utilisation
        ]
        if not samples:
            raise ValueError(f"no IPC samples for job {job!r}")
        total_time = left_sum(duration for _ipc, duration in samples)
        if total_time == 0:
            import numpy as np

            return float(np.mean([ipc for ipc, _duration in samples]))
        return left_sum(ipc * duration for ipc, duration in samples) / total_time


# -- scenario replay -----------------------------------------------------------------


@dataclass(frozen=True)
class ReplayedMetrics:
    """The :class:`~repro.metrics.collect.WorkloadMetrics` interface served
    from a stored :class:`~repro.campaign.runner.RunMetrics` row."""

    row: "RunMetrics"

    @property
    def total_run_time(self) -> float:
        return self.row.total_run_time

    @property
    def average_response_time(self) -> float:
        return self.row.average_response_time

    @property
    def makespan_end(self) -> float:
        return self.row.makespan_end

    def response_times(self) -> dict[str, float]:
        return dict(self.row.response_times)

    def run_times(self) -> dict[str, float]:
        return dict(self.row.run_times)

    def wait_times(self) -> dict[str, float]:
        return dict(self.row.wait_times)


@dataclass(frozen=True)
class ScenarioReplay:
    """A run reconstructed from the two store tiers instead of simulated.

    Mirrors the reporting slice of
    :class:`~repro.workload.runner.ScenarioResult`; the ``replayed`` marker
    lets callers count how many scenarios actually executed.
    """

    scenario: str
    run: RunSpec
    metrics: ReplayedMetrics
    entry: TraceEntry
    #: Replays never execute; the live result's marker is ``False``.
    replayed = True

    @cached_property
    def workload(self) -> "Workload":
        """The declarative workload, rebuilt from the run's reference
        (deterministic and cheap — no simulation involved)."""
        return self.run.workload.build()

    @cached_property
    def tracer(self) -> Tracer:
        return self.entry.tracer

    @property
    def sched(self) -> SchedTimeline:
        """The stored scheduler timeline (empty for sched-less runs)."""
        return self.entry.sched

    @property
    def end_time(self) -> float:
        return self.entry.header["end_time"]

    @property
    def reader(self) -> TraceReader:
        return TraceReader(self.entry)

    def job_utilisation(self, label: str) -> float:
        """Aggregate CPU utilisation of one job, from the metrics row."""
        return dict(self.metrics.row.job_utilisation)[label]


def replay_scenario(
    run: RunSpec, row: "RunMetrics", entry: TraceEntry
) -> ScenarioReplay:
    """Assemble a replay from a metrics row and its trace artifact."""
    return ScenarioReplay(
        scenario=run.scenario, run=run, metrics=ReplayedMetrics(row), entry=entry
    )
