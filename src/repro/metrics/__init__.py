"""Metrics: system-level timings, step tracing and Paraver views.

The per-thread counter proxies the paper reads from Extrae (IPC, cycles/µs)
are not logged separately: they derive from the tracer's step runs, and
:class:`~repro.traces.query.TraceReader` answers Figure 14's IPC queries.
"""

from repro.metrics.collect import JobMetrics, WorkloadMetrics, relative_improvement
from repro.metrics.paraver import ParaverView, TimelineRow
from repro.metrics.tracing import MaskChangeRecord, StepRecord, StepRun, Tracer

__all__ = [
    "JobMetrics",
    "WorkloadMetrics",
    "relative_improvement",
    "Tracer",
    "StepRecord",
    "StepRun",
    "MaskChangeRecord",
    "ParaverView",
    "TimelineRow",
]
