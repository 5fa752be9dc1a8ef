"""Telemetry exporters: ``telemetry.json`` summaries and Chrome traces.

Two machine-readable views of one :class:`~repro.obs.telemetry.Telemetry`
tree:

* :func:`write_summary` — a deterministic JSON document with an aggregate
  ``summary`` block (cells executed/cached, per-tier hit counters, cells/sec
  and events/sec, p50/p95 cell wall-clock) plus the full span tree.  Sorted
  keys, children in stitch order: two telemetries with equal trees serialise
  byte-identically, which is what the serial-vs-pooled determinism tests
  compare.
* :func:`write_chrome_trace` — the `Trace Event Format
  <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
  JSON that ``chrome://tracing`` and Perfetto load directly.  Every campaign
  cell is measured on its own fresh clock (possibly in another process), so
  each cell tree is rebased to zero on its own track (``tid`` = grid index +
  1) with a thread-name metadata record carrying the run id; campaign-level
  spans live on track 0.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.floats import left_sum

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Span, Telemetry

__all__ = [
    "chrome_trace_events",
    "summarise",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_summary",
]

#: Bumped whenever the summary document layout changes.
#:
#: * 1 — initial layout.
#: * 2 — adds the ``scheduler`` block (fairness / cluster-utilization
#:   aggregates from the simulate spans' sched counters) and emits the
#:   recorded queue-depth series as Chrome counter (``C``) tracks.
SUMMARY_VERSION = 2

#: Span attributes that hold whole time series.  They are exported as
#: Chrome counter tracks and excluded from the complete-event ``args`` (a
#: thousand-point series inside a tooltip helps no one).
_SERIES_ATTRS = ("queue_series", "sched_queue_series")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _counter_total(spans: list["Span"], counter: str) -> int | float:
    return sum(span.counters.get(counter, 0) for span in spans)


def summarise(telemetry: "Telemetry") -> dict:
    """Aggregate a telemetry tree into the ``telemetry.json`` summary block.

    Works off the span tree alone (no live campaign state), so it can
    summarise a tree deserialised from an earlier export just as well.
    """
    roots = telemetry.roots
    all_spans = [span for root in roots for span in root.walk()]
    campaign = next((r for r in roots if r.name == "campaign"), None)
    cells = campaign.find("cell") if campaign is not None else [
        s for s in all_spans if s.name == "cell"
    ]
    executed = [c for c in cells if not c.attrs.get("cached")]
    cached = [c for c in cells if c.attrs.get("cached")]
    durations = sorted(c.duration for c in executed)
    wall_clock = campaign.duration if campaign is not None else left_sum(durations)

    simulate = [s for s in all_spans if s.name == "simulate"]
    events = _counter_total(simulate, "events")
    per_name_seconds: dict[str, float] = {}
    per_name_count: dict[str, int] = {}
    for span in all_spans:
        per_name_seconds[span.name] = per_name_seconds.get(span.name, 0.0) + span.duration
        per_name_count[span.name] = per_name_count.get(span.name, 0) + 1

    metrics_hits = _counter_total(cells, "metrics_hit")
    trace_hits = _counter_total(cells, "trace_hit")
    backfilled = sum(1 for c in executed if c.attrs.get("backfilled"))

    # Scheduler-level aggregates (see repro.obs.sched): waits and CPU-second
    # integrals sum across runs; max_wait is a campaign-wide maximum.
    sched_jobs = _counter_total(simulate, "sched_jobs")
    sched_started = _counter_total(simulate, "sched_started")
    sched_wait = _counter_total(simulate, "sched_wait_seconds")
    busy = _counter_total(simulate, "sched_busy_cpu_seconds")
    capacity = _counter_total(simulate, "sched_capacity_cpu_seconds")
    max_wait = max(
        (s.attrs.get("sched_max_wait", 0.0) for s in simulate), default=0.0
    )
    return {
        "campaign": campaign.attrs.get("name") if campaign is not None else None,
        "wall_clock_seconds": wall_clock,
        "cells": {
            "total": len(cells),
            "executed": len(executed),
            "cached": len(cached),
            "metrics_hits": metrics_hits,
            "trace_hits": trace_hits,
            "backfilled": backfilled,
        },
        "counters": {
            "events": events,
            "steps": _counter_total(simulate, "steps"),
            "batches": _counter_total(simulate, "batches"),
            "priced": _counter_total(simulate, "priced"),
            "pulled_back": _counter_total(simulate, "pulled_back"),
            "masks_written": _counter_total(simulate, "masks_written"),
            "store_write_bytes": _counter_total(
                [s for s in all_spans if s.name == "store_write"], "bytes"
            ),
            "trace_write_bytes": _counter_total(
                [s for s in all_spans if s.name == "trace_write"], "bytes"
            ),
        },
        "rates": {
            "cells_per_sec": _rate(len(executed), wall_clock),
            "events_per_sec": _rate(events, wall_clock),
            "hit_rate": (metrics_hits / len(cells)) if cells else 0.0,
        },
        "cell_wall_clock": {
            "p50": _percentile(durations, 0.50),
            "p95": _percentile(durations, 0.95),
            "mean": (left_sum(durations) / len(durations)) if durations else 0.0,
            "max": durations[-1] if durations else 0.0,
        },
        "scheduler": {
            "jobs": sched_jobs,
            "started": sched_started,
            "mean_wait": (sched_wait / sched_started) if sched_started else 0.0,
            "max_wait": max_wait,
            "busy_cpu_seconds": busy,
            "capacity_cpu_seconds": capacity,
            "utilization": (busy / capacity) if capacity > 0 else 0.0,
        },
        "span_seconds": {name: per_name_seconds[name] for name in sorted(per_name_seconds)},
        "span_counts": {name: per_name_count[name] for name in sorted(per_name_count)},
    }


def write_summary(telemetry: "Telemetry", path: str | Path) -> dict:
    """Write the machine-readable ``telemetry.json`` document.

    Returns the document.  Serialisation is deterministic (sorted keys,
    floats via ``repr``): equal span trees produce byte-identical files.
    """
    document = {
        "version": SUMMARY_VERSION,
        "summary": summarise(telemetry),
        "spans": [root.to_payload() for root in telemetry.roots],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n")
    return document


# -- Chrome trace-event export ---------------------------------------------------------


def _span_args(span: "Span") -> dict:
    args = {
        key: span.attrs[key]
        for key in sorted(span.attrs)
        if key not in _SERIES_ATTRS
    }
    args.update((key, span.counters[key]) for key in sorted(span.counters))
    return args


def _emit_counters(span: "Span", base: float, tid: int, events: list[dict]) -> None:
    """Counter (``C``) tracks from a span's recorded series attributes.

    Two series shapes exist: the executor's wall-clock ``queue_series``
    (``[t, depth, in_flight]`` on its own fresh clock, rebased to the span's
    position) and the scheduler's ``sched_queue_series`` (``[t, depth]`` in
    *simulated* seconds — its own time axis, deliberately not mixed into the
    wall-clock rebasing; Perfetto keys counters by name, so per-track names
    keep cells apart).
    """
    queue_series = span.attrs.get("queue_series") or []
    if queue_series:
        origin = queue_series[0][0]
        label = span.attrs.get("name", span.name)
        span_ts = (span.start - base) * 1e6
        for sample in queue_series:
            time, depth, in_flight = sample
            events.append(
                {
                    "name": f"queue {label}",
                    "cat": "repro",
                    "ph": "C",
                    "ts": span_ts + (time - origin) * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": {"queued": depth, "in_flight": in_flight},
                }
            )
    sched_series = span.attrs.get("sched_queue_series") or []
    if sched_series:
        for sample in sched_series:
            time, depth = sample
            events.append(
                {
                    "name": f"sched queue (tid {tid})",
                    "cat": "repro",
                    "ph": "C",
                    "ts": time * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": {"pending": depth},
                }
            )


def _emit(span: "Span", base: float, tid: int, events: list[dict]) -> None:
    events.append(
        {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": (span.start - base) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 0,
            "tid": tid,
            "args": _span_args(span),
        }
    )
    _emit_counters(span, base, tid, events)
    for child in span.children:
        if child.name == "cell" and "index" in child.attrs:
            # A cell tree lives in its own clock domain (a fresh per-cell
            # clock, possibly in another process): rebase it to zero on its
            # own track instead of pretending it shares this span's clock.
            cell_tid = int(child.attrs["index"]) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": cell_tid,
                    "args": {
                        "name": f"cell {child.attrs['index']:04d} "
                        f"{child.attrs.get('run_id', '')}".rstrip()
                    },
                }
            )
            _emit(child, child.start, cell_tid, events)
        else:
            _emit(child, base, tid, events)


def chrome_trace_events(telemetry: "Telemetry") -> list[dict]:
    """The trace-event list: one complete (``X``) event per span plus
    thread-name metadata (``M``) records naming each cell's track."""
    events: list[dict] = [
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "campaign"}}
    ]
    for root in telemetry.roots:
        _emit(root, root.start, 0, events)
    return events


def write_chrome_trace(telemetry: "Telemetry", path: str | Path) -> dict:
    """Write a Perfetto/``chrome://tracing``-loadable trace-event JSON file."""
    document = {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n")
    return document


def validate_chrome_trace(document: dict) -> int:
    """Check a trace document against the trace-event schema essentials.

    Returns the number of events; raises ``ValueError`` on the first
    violation.  Used by the CI telemetry smoke job and the test suite to
    prove exported traces really load as trace-event JSON.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("trace document must be an object with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} is missing {key!r}")
        phase = event["ph"]
        if phase not in ("X", "M", "C"):
            raise ValueError(f"event {i} has unsupported phase {phase!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(f"event {i} has invalid {key!r}: {value!r}")
        elif phase == "C":
            value = event.get("ts")
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"event {i} has invalid 'ts': {value!r}")
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ValueError(
                    f"event {i} counter args must be a non-empty numeric object"
                )
    return len(events)
