"""Metrics: system-level timings, hardware-counter proxies, tracing, Paraver views."""

from repro.metrics.collect import JobMetrics, WorkloadMetrics, relative_improvement
from repro.metrics.counters import CounterLog, CounterSample
from repro.metrics.paraver import ParaverView, TimelineRow
from repro.metrics.tracing import MaskChangeRecord, StepRecord, StepRun, Tracer

__all__ = [
    "JobMetrics",
    "WorkloadMetrics",
    "relative_improvement",
    "CounterLog",
    "CounterSample",
    "Tracer",
    "StepRecord",
    "StepRun",
    "MaskChangeRecord",
    "ParaverView",
    "TimelineRow",
]
