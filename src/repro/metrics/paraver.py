"""Paraver-like trace analysis and ASCII rendering.

Paraver displays one row per thread with time on the X axis and a colour per
metric value.  The functions here produce the same views as text: per-thread
busy fractions or per-job thread counts, binned over time, rendered with a
small character ramp.  They back the Figure 5 and Figure 13 benchmark
output and the `examples/insitu_analytics.py` visualisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.metrics.tracing import Tracer

#: Character ramp from idle to fully busy.
_RAMP = " .:-=+*#%@"


def _ramp_char(value: float, maximum: float) -> str:
    if maximum <= 0:
        return _RAMP[0]
    idx = int(round((len(_RAMP) - 1) * max(0.0, min(1.0, value / maximum))))
    return _RAMP[idx]


@dataclass(frozen=True)
class TimelineRow:
    """One rendered row of a timeline."""

    label: str
    values: np.ndarray

    def render(self, maximum: float) -> str:
        return "".join(_ramp_char(v, maximum) for v in self.values)


class ParaverView:
    """Builds binned per-thread timelines from a :class:`Tracer`."""

    def __init__(self, tracer: Tracer, bin_seconds: float = 50.0) -> None:
        if not (math.isfinite(bin_seconds) and bin_seconds > 0):
            raise ValueError("bin_seconds must be positive and finite")
        self.tracer = tracer
        self.bin_seconds = bin_seconds

    # -- timelines -------------------------------------------------------------------

    def horizon(self) -> float:
        """The last step end of the whole trace (0 for an empty one)."""
        return max((run.end for run in self.tracer.runs()), default=0.0)

    def _nbins(self) -> int:
        return int(np.ceil(self.horizon() / self.bin_seconds)) + 1

    def _binned(self, samples) -> dict:
        """key -> time-binned, time-weighted average of ``value`` over the
        ``(key, start, end, value)`` samples (0 in bins none overlaps)."""
        nbins = self._nbins()
        width = self.bin_seconds
        sums, weights = {}, {}
        for key, start, end, value in samples:
            if key not in sums:
                sums[key], weights[key] = np.zeros(nbins), np.zeros(nbins)
            acc, weight = sums[key], weights[key]
            for b in range(int(start // width), int(end // width) + 1):
                lo = max(start, b * width)
                hi = min(end, (b + 1) * width)
                if hi <= lo:
                    continue
                acc[b] += value * (hi - lo)
                weight[b] += hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            return {
                key: np.where(weights[key] > 0, sums[key] / np.maximum(weights[key], 1e-12), 0.0)
                for key in sums
            }

    def thread_activity(self, job: str) -> list[TimelineRow]:
        """One row per (rank, thread): time-binned busy fraction."""
        rows = self._binned(
            ((step.rank, thread), step.start, step.end, util)
            for step in self.tracer.steps(job)
            for thread, util in enumerate(step.thread_utilisation)
        )
        return [
            TimelineRow(label=f"{job} r{rank} t{thread}", values=rows[rank, thread])
            for rank, thread in sorted(rows)
        ]

    def job_thread_count(self, job: str) -> TimelineRow:
        """Aggregate thread count of a job over time (the Figure 3/13 shape)."""
        rows = self._binned(
            (job, step.start, step.end, step.nthreads) for step in self.tracer.steps(job)
        )
        return TimelineRow(label=job, values=rows.get(job, np.zeros(self._nbins())))

    # -- rendering ----------------------------------------------------------------------

    def render_thread_activity(self, job: str) -> str:
        """ASCII rendering of per-thread utilisation (the Figure 5 view)."""
        rows = self.thread_activity(job)
        if not rows:
            return f"(no trace data for {job})"
        width = max(len(row.label) for row in rows)
        lines = [f"{row.label:<{width}} |{row.render(1.0)}|" for row in rows]
        return "\n".join(lines)

    def render_job_widths(self, jobs: list[str]) -> str:
        """ASCII rendering of per-job thread counts over time (Figure 13 shape)."""
        rows = [self.job_thread_count(job) for job in jobs]
        maximum = max((row.values.max() for row in rows if row.values.size), default=1.0)
        width = max(len(row.label) for row in rows)
        lines = [f"{row.label:<{width}} |{row.render(maximum)}|" for row in rows]
        header = f"{'':<{width}}  one column = {self.bin_seconds:.0f}s"
        return "\n".join([header, *lines])
