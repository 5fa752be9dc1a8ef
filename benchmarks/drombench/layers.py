"""Per-layer timing of the traced drombench run.

:class:`LayerTrace` wraps public functions of the program inside the
benchmark process and records them with :class:`repro.obs.telemetry.Telemetry`
on the real clock.  Cell-level calls (``execute_run``, ``WorkloadRef.build``,
``ScenarioRunner.run``, ``Srun.launch``, ``summarise_run``, the store tiers'
``put``/``get``/``scan``, the first ``TraceEntry.tracer`` access, the
``TraceReader`` queries and ``prv_text``) open one span per call.  Hot inner
calls (``step_times``, ``record_steps``, ``record_compute_batch``,
``schedule``) add their time and call count as counters of the enclosing span
instead.  Leaving the ``with`` block restores every wrapped function.

Layer metrics are reported as shares of the timed phase's wall clock, so a
layer a workload never exercises reads 0 without posing as a measured time;
the absolute seconds go to the self-time table.
"""

from __future__ import annotations

import functools
import time
from functools import cached_property

from repro.apps.base import ApplicationModel
from repro.campaign import runner as campaign_runner
from repro.campaign.spec import (
    HighPriorityWorkloadRef,
    InSituWorkloadRef,
    SyntheticWorkloadRef,
)
from repro.core.stats import StatsModule
from repro.metrics.tracing import Tracer
from repro.obs.telemetry import Span, Telemetry
from repro.results import sinks
from repro.results.store import ResultStore
from repro.slurm.launcher import Srun
from repro.slurm.slurmctld import Slurmctld
from repro.traces.query import TraceReader
from repro.traces.store import TraceEntry, TraceStore
from repro.workload.runner import DROM, SERIAL, ScenarioRunner

RUNNER = "workload.runner.run"

#: Hot inner calls, recorded as ``<layer>_s`` / ``<layer>_calls`` counters.
HOT = {
    "apps.step_times": (ApplicationModel, "step_times"),
    "metrics.tracing.record_steps": (Tracer, "record_steps"),
    "core.stats.record_compute_batch": (StatsModule, "record_compute_batch"),
    "slurm.schedule": (Slurmctld, "schedule"),
}

QUERIES = (
    "job_intervals",
    "ipc_histogram",
    "steps_between",
    "fairness_summary",
    "render_job_widths",
)

#: Synthetic sweep cells reported one by one (``n<njobs>.<scenario>``).
SIZES = tuple(f"n{njobs}.{scenario}" for njobs in (6, 24, 96) for scenario in (SERIAL, DROM))


def _spanned(fn, layer: str, telemetry: Telemetry, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with telemetry.span(layer) as span:
            if before is not None:
                before(span, args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

    return wrapper


def _hot(fn, layer: str, telemetry: Telemetry, tally=None):
    clock = time.perf_counter
    seconds, calls = f"{layer}_s", f"{layer}_calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        span = telemetry.current
        if span is not None:
            span.count(seconds, clock() - start)
            span.count(calls, 1)
            if tally is not None:
                tally(span, args, result)
        return result

    return wrapper


def _runner_before(span: Span, args) -> None:
    runner, workload = args[0], args[1]
    span.attrs["njobs"] = len(workload.jobs)
    span.attrs["scenario"] = runner.scenario


def _runner_after(span: Span, args, result) -> None:
    span.count("steps", result.steps_advanced)
    span.count("batches", result.batches_executed)
    span.count("events", result.events_executed)


def _put_after(span: Span, args, path) -> None:
    span.count("bytes", path.stat().st_size)
    span.count("records", len(args[2].tracer))


#: (owner, attribute, layer) of every call timed as one span.
SPANNED = [
    (campaign_runner, "execute_run", "campaign.execute_run"),
    (campaign_runner, "summarise_run", "campaign.summarise"),
    (ScenarioRunner, "run", RUNNER),
    (Srun, "launch", "slurm.launch"),
    (sinks, "prv_text", "results.sinks.prv_text"),
    *(
        (ref, "build", "workload.build")
        for ref in (SyntheticWorkloadRef, InSituWorkloadRef, HighPriorityWorkloadRef)
    ),
    *(
        (store, method, f"{layer}.{method}")
        for store, layer in ((ResultStore, "results.store"), (TraceStore, "traces.store"))
        for method in ("put", "get", "scan")
    ),
    *((TraceReader, query, f"traces.query.{query}") for query in QUERIES),
]

#: Layer -> (before, after) hooks annotating its spans.
HOOKS = {RUNNER: (_runner_before, _runner_after), "traces.store.put": (None, _put_after)}

#: Hot layer -> extra counter taken from its arguments or result.
TALLIES = {
    "apps.step_times": lambda span, args, out: span.count("apps.steps_priced", len(out)),
    "metrics.tracing.record_steps": lambda span, args, out: span.count(
        "metrics.tracing.records", len(args[1])
    ),
}


class LayerTrace:
    """Context manager installing the layer wrappers on one telemetry."""

    def __init__(self) -> None:
        self.telemetry = Telemetry()
        self._saved: list[tuple[object, str, object]] = []

    def wrappers(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every function this trace wraps."""
        t = self.telemetry
        out = [
            (owner, name, _spanned(getattr(owner, name), layer, t, *HOOKS.get(layer, ())))
            for owner, name, layer in SPANNED
        ]
        out += [
            (owner, name, _hot(getattr(owner, name), layer, t, TALLIES.get(layer)))
            for layer, (owner, name) in HOT.items()
        ]
        inflate = cached_property(
            _spanned(vars(TraceEntry)["tracer"].func, "traces.store.inflate", t)
        )
        inflate.__set_name__(TraceEntry, "tracer")
        out.append((TraceEntry, "tracer", inflate))
        return out

    def __enter__(self) -> "LayerTrace":
        for owner, name, wrapper in self.wrappers():
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _hot_seconds(span: Span) -> float:
    return sum(span.counters.get(f"{layer}_s", 0.0) for layer in HOT)


def _self_seconds(span: Span) -> float:
    """Duration minus what child spans and hot inner calls cover."""
    return span.duration - sum(child.duration for child in span.children) - _hot_seconds(span)


def layer_metrics(root: Span) -> dict[str, float]:
    """Every per-layer metric of one traced timed phase (``root``)."""
    spans = list(root.walk())
    wall = root.duration

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def total(name: str) -> float:
        return sum(span.duration for span in named(name))

    def counter(key: str, among: list[Span] = spans) -> float:
        return sum(span.counters.get(key, 0) for span in among)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runners = named(RUNNER)
    by_size = {
        size: [s for s in runners if f"n{s.attrs['njobs']}.{s.attrs['scenario']}" == size]
        for size in SIZES
    }
    out = {
        "apps.priced_per_advanced": ratio(
            counter("apps.steps_priced", runners), counter("steps", runners)
        ),
        "apps.step_times_share": share(counter("apps.step_times_s", runners)),
        "apps.step_times_calls": counter("apps.step_times_calls", runners),
        "workload.runner.self_share": share(sum(_self_seconds(s) for s in runners)),
        "workload.runner.steps": counter("steps", runners),
        "workload.runner.batches": counter("batches", runners),
        "sim.events": counter("events", runners),
        "metrics.tracing.record_steps_share": share(
            counter("metrics.tracing.record_steps_s", runners)
        ),
        "metrics.tracing.records": counter("metrics.tracing.records", runners),
        "traces.store.put_share": share(total("traces.store.put")),
        "traces.store.bytes_per_record": ratio(
            counter("bytes", named("traces.store.put")),
            counter("records", named("traces.store.put")),
        ),
        "traces.store.get_share": share(total("traces.store.get")),
        "traces.store.inflate_share": share(total("traces.store.inflate")),
        "traces.store.segments_inflated": counter("segments_inflated", named("query")),
        "results.sinks.prv_text_share": share(total("results.sinks.prv_text")),
        "campaign.executed": counter("executed", named("campaign")),
        "campaign.execute_run_share": share(total("campaign.execute_run")),
        "campaign.summarise_share": share(total("campaign.summarise")),
        "campaign.overhead_share": share(sum(_self_seconds(s) for s in named("campaign"))),
        "workload.build_share": share(total("workload.build")),
        "slurm.schedule_share": share(counter("slurm.schedule_s", runners)),
        "slurm.launch_share": share(total("slurm.launch")),
        "core.stats.record_compute_batch_share": share(
            counter("core.stats.record_compute_batch_s", runners)
        ),
    }
    for method in ("put", "get", "scan"):
        out[f"results.store.{method}_share"] = share(total(f"results.store.{method}"))
    for query in QUERIES:
        out[f"traces.query.{query}_share"] = share(total(f"traces.query.{query}"))
    for size, cells in by_size.items():
        out[f"workload.runner.run_share.{size}"] = share(sum(s.duration for s in cells))
        out[f"apps.priced_per_advanced.{size}"] = ratio(
            counter("apps.steps_priced", cells), counter("steps", cells)
        )
    return out


def self_time_table(root: Span) -> list[dict]:
    """Calls, inclusive and self seconds per layer, largest self time first."""
    rows: dict[str, dict] = {}

    def add(layer: str, calls: int, seconds: float, own: float) -> None:
        row = rows.setdefault(layer, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += calls
        row["total_s"] += seconds
        row["self_s"] += own

    for span in root.walk():
        add(span.name, 1, span.duration, _self_seconds(span))
        for layer in HOT:
            if f"{layer}_calls" in span.counters:
                seconds = span.counters[f"{layer}_s"]
                add(layer, span.counters[f"{layer}_calls"], seconds, seconds)
    wall = root.duration
    for row in rows.values():
        row["self_share"] = row["self_s"] / wall if wall > 0 else 0.0
    return sorted(rows.values(), key=lambda row: -row["self_s"])
