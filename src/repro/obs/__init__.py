"""Observability for the campaign → runner → store stack.

The platform memoises, shards and batch-executes thousands-of-cell
campaigns; this package makes those pipelines watchable, profilable and
post-mortemable without perturbing a single artifact byte:

* :mod:`repro.obs.telemetry` — hierarchical :class:`Span` trees
  (``campaign -> cell -> {build, simulate, summarise, store_write,
  trace_write}``) with per-span counters and an injectable clock factory;
  pooled workers ship their span trees back through the pool and the
  campaign runner stitches them in run-index order, so serial and pooled
  executions produce structurally identical telemetry.
* :mod:`repro.obs.export` — a Chrome-trace-event (Perfetto-loadable) JSON
  writer and the machine-readable ``telemetry.json`` summary (cells/sec,
  hit rates, p50/p95 cell wall-clock, events/sec).
* :mod:`repro.obs.sched` — the event-driven scheduler probe: queue-depth,
  per-node allocation and job-lifecycle series per run, with fairness
  metrics (wait/bounded-slowdown percentiles) and windowed utilization
  queries; persisted in the trace artifact (since format v4) and answerable warm
  through :class:`~repro.traces.query.TraceReader`.
* :mod:`repro.obs.progress` — the live stderr progress line behind
  ``python -m repro.campaign --progress``.
* :mod:`repro.obs.log` — structured stdlib logging (``REPRO_LOG`` /
  ``--log-level``) for the previously silent campaign, store and gc paths.
* :mod:`repro.obs.bench` — the schema-versioned benchmark trajectory behind
  ``benchmarks/history.py`` and ``python -m repro.obs bench report``.

Hard contract: telemetry is observational only.  Content keys, stored rows
and trace artifacts are byte-identical with telemetry on or off, and the
default-off overhead is a handful of no-op calls per run.
"""

from repro.obs.export import (
    chrome_trace_events,
    summarise,
    validate_chrome_trace,
    write_chrome_trace,
    write_summary,
)
from repro.obs.log import configure, get_logger
from repro.obs.progress import ProgressLine
from repro.obs.sched import (
    ClusterProbe,
    FairnessSummary,
    JobLifecycleRecord,
    NodeSample,
    QueueSample,
    SchedTimeline,
)
from repro.obs.telemetry import (
    DISABLED,
    Span,
    Telemetry,
    TickingClock,
    TickingClockFactory,
    perf_counter_factory,
)

__all__ = [
    "DISABLED",
    "ClusterProbe",
    "FairnessSummary",
    "JobLifecycleRecord",
    "NodeSample",
    "ProgressLine",
    "QueueSample",
    "SchedTimeline",
    "Span",
    "Telemetry",
    "TickingClock",
    "TickingClockFactory",
    "chrome_trace_events",
    "configure",
    "get_logger",
    "perf_counter_factory",
    "summarise",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_summary",
]
