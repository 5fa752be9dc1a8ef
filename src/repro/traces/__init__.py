"""Trace tier — content-addressed persistence of full execution traces.

The metrics tier (:mod:`repro.results`) made the campaign grid's compact
rows persistent; this package does the same for the *traces* the paper's
evaluation is actually read through (Paraver timelines, IPC histograms —
Figures 3, 5, 13, 14):

* :mod:`repro.traces.store` — :class:`~repro.traces.store.TraceStore`, a
  second content-addressed store keyed by the **same**
  :func:`~repro.results.store.content_key` as the metrics tier; each cell
  is one gzip-compressed JSONL artifact holding the run's full
  :class:`~repro.metrics.tracing.Tracer`.
* :mod:`repro.traces.query` — the lazy
  :class:`~repro.traces.query.TraceReader` query engine (job timelines,
  mask-change sequences, IPC series, Figure 14's IPC histograms and mean
  IPC, ParaverView renderings) and
  :func:`~repro.traces.query.replay_scenario`, which rebuilds a
  scenario-result replay from the two tiers so trace figures regenerate
  without simulating.
* ``python -m repro.traces ls|show|export|gc`` — inspect, re-export
  (``.prv``/JSONL) and collect stored traces.

Capture is threaded through the stack: ``run_campaign(...,
trace_store=...)`` and ``run_scenario_pair(..., trace_store=...)`` record
traces on cache misses and skip execution when both tiers hit.
"""

from repro.traces.query import (
    ReplayedMetrics,
    ScenarioReplay,
    TraceReader,
    replay_scenario,
)
from repro.traces.store import (
    DEFAULT_TRACE_ROOT,
    TRACE_FORMAT_VERSION,
    TraceEntry,
    TraceStore,
)

__all__ = [
    "TraceStore",
    "TraceEntry",
    "DEFAULT_TRACE_ROOT",
    "TRACE_FORMAT_VERSION",
    "TraceReader",
    "ReplayedMetrics",
    "ScenarioReplay",
    "replay_scenario",
]
