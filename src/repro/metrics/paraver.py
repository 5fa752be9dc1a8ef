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
from typing import TYPE_CHECKING, Callable

from repro.metrics.tracing import StepRun, Tracer, step_index

if TYPE_CHECKING:
    import numpy as np

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
        return int(math.ceil(self.horizon() / self.bin_seconds)) + 1

    def _binned(self, runs: list[StepRun], samples: Callable[[StepRun], list]) -> dict:
        """key -> time-binned, time-weighted average of ``value`` over the
        steps of ``runs`` (0 in bins no step overlaps), where
        ``samples(run)`` lists the ``(key, value)`` pairs of each step of
        ``run``.

        The steps are walked in :func:`step_index` order and each adds
        ``value * (hi - lo)`` to its bins one step after another, so any
        chunking of the steps into runs gives the same bits.  A step inside
        one bin skips the bin loop only when the bin's edges are the very
        ``lo``/``hi`` floats the loop's ``max``/``min`` would pick.
        """
        import numpy as np

        nbins = self._nbins()
        width = self.bin_seconds
        sums: dict = {}
        weights: dict = {}
        # Per run: (sum list, weight list, value) per sample, step duration.
        walks = []
        for run in runs:
            pairs = []
            for key, value in samples(run):
                if key not in sums:
                    sums[key], weights[key] = [0.0] * nbins, [0.0] * nbins
                pairs.append((sums[key], weights[key], value))
            walks.append((pairs, run.duration))
        for start, _job, _rank, i in step_index(runs):
            pairs, duration = walks[i]
            end = start + duration
            b = int(start // width)
            if b * width <= start and end <= (b + 1) * width:
                if end > start:
                    span = end - start
                    for acc, weight, value in pairs:
                        acc[b] += value * span
                        weight[b] += span
                continue
            for b in range(b, int(end // width) + 1):
                lo = max(start, b * width)
                hi = min(end, (b + 1) * width)
                if hi <= lo:
                    continue
                for acc, weight, value in pairs:
                    acc[b] += value * (hi - lo)
                    weight[b] += hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            out = {}
            for key, acc in sums.items():
                weight = np.array(weights[key])
                out[key] = np.where(weight > 0, np.array(acc) / np.maximum(weight, 1e-12), 0.0)
            return out

    def thread_activity(self, job: str) -> list[TimelineRow]:
        """One row per (rank, thread): time-binned busy fraction."""
        rows = self._binned(
            self.tracer.runs(job),
            lambda run: [
                ((run.rank, thread), util) for thread, util in enumerate(run.thread_utilisation)
            ],
        )
        return [
            TimelineRow(label=f"{job} r{rank} t{thread}", values=rows[rank, thread])
            for rank, thread in sorted(rows)
        ]

    def job_thread_count(self, job: str) -> TimelineRow:
        """Aggregate thread count of a job over time (the Figure 3/13 shape)."""
        import numpy as np

        rows = self._binned(self.tracer.runs(job), lambda run: [(job, run.nthreads)])
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
