"""Campaign execution: expand, run through the orchestrator, aggregate.

The execution contract that everything else leans on:

* :func:`execute_run` is a **pure function** of a :class:`RunSpec` — it
  rebuilds the workload, cluster and policy from their declarative references
  and runs one fresh :class:`~repro.workload.runner.ScenarioRunner` on a fresh
  discrete-event engine.  No state leaks between runs.
* :func:`run_campaign` deals every cell that misses the store tiers to
  executors through one path, :func:`~repro.exec.orchestrator.orchestrate`
  — in-process for ``workers=1``, a local process pool for ``workers=N``,
  or any ``executor=`` fleet — and aggregates the compact per-run metrics
  in **run-index order**.  Because each run is pure and the aggregation
  order is fixed, a fixed-seed campaign produces byte-identical aggregated
  metrics no matter how many workers executed it.

Observability rides the same seam: every cell is measured on a *fresh clock*
from the telemetry's clock factory and records a detached
``cell -> {build, simulate, summarise, store_write, trace_write}`` span tree
(:mod:`repro.obs.telemetry`).  Pooled workers ship their trees back through
the pool next to the metrics row, and the parent stitches all cells under
the ``campaign`` span in run-index order — so serial and pooled campaigns
produce structurally identical telemetry (byte-identical with a
deterministic fake clock factory).  Telemetry is observational only: rows,
content keys and stored artifacts are byte-identical with it on or off.

Experiments that need the full :class:`ScenarioResult` (tracers for the
figure reproductions) call :func:`execute_run` / :func:`run_scenario_pair`
directly instead of going through the compact aggregation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, TextIO

from repro.campaign.spec import CampaignSpec, RunSpec, WorkloadRef
from repro.obs.log import get_logger
from repro.obs.progress import ProgressLine
from repro.obs.telemetry import DISABLED, Span, Telemetry
from repro.workload.runner import DROM, SERIAL, ScenarioResult, ScenarioRunner

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.results.store import ResultStore
    from repro.traces.query import ScenarioReplay
    from repro.traces.store import TraceStore

_log = get_logger("campaign")


def execute_run(
    run: RunSpec,
    trace: bool = False,
    batching: bool = True,
    telemetry: Telemetry | None = None,
) -> ScenarioResult:
    """Execute one campaign run and return the full scenario result.

    ``batching=False`` runs the single-step reference loop instead of the
    batched fast path; results are byte-identical either way (the
    ``bench_perf_core`` harness gates on it), so the flag is deliberately
    *not* part of :class:`RunSpec` or the content hash.

    ``telemetry`` records ``build`` and ``simulate`` spans under the current
    span; the ``simulate`` span carries the run's engine/step/batch/priced
    counters, its pulled-back wakes and its DROM mask writes.
    """
    obs = telemetry if telemetry is not None else DISABLED
    with obs.span("build"):
        workload = run.workload.build()
        interference = None
        if run.interference_factor is not None:
            factor = run.interference_factor

            def interference(job: str, node: str, co_runners: list[str]) -> float:
                return factor if co_runners else 1.0

        runner = ScenarioRunner(
            drom_enabled=run.scenario == DROM,
            cluster=run.cluster.build(),
            policy=run.policy.build() if run.policy is not None else None,
            interference=interference,
            backfill=run.scheduler.backfill,
            node_policy=run.scheduler.node_policy,
            batching=batching,
        )
    with obs.span("simulate") as span:
        result = runner.run(workload, trace=trace)
        span.count("events", result.events_executed)
        span.count("steps", result.steps_advanced)
        span.count("batches", result.batches_executed)
        span.count("priced", result.steps_priced)
        span.count("pulled_back", result.pulled_back)
        span.count("masks_written", result.masks_written)
        _annotate_sched(span, result)
    return result


def _annotate_sched(span: Span, result: ScenarioResult) -> None:
    """Attach the run's scheduler-level observables to its ``simulate`` span.

    Everything here is a pure function of the (deterministic) simulation
    outcome — never of wall clock — so serial and pooled campaigns record
    identical values.  The queue-depth series rides as a span attribute
    (excluded from Chrome-trace ``args``; exported as a counter track).
    """
    timeline = result.sched
    # The disabled telemetry hands out a shared null span whose ``attrs``
    # dict is class-level; never write into it.
    if not len(timeline) or not isinstance(span, Span):
        return
    fairness = timeline.fairness_summary()
    span.count("sched_jobs", fairness.njobs)
    span.count("sched_started", fairness.started)
    span.count("sched_wait_seconds", fairness.mean_wait * fairness.started)
    span.count("sched_busy_cpu_seconds", timeline.busy_cpu_seconds(result.end_time))
    span.count(
        "sched_capacity_cpu_seconds", timeline.capacity_cpu_seconds(result.end_time)
    )
    span.attrs["sched_max_wait"] = fairness.max_wait
    span.attrs["sched_queue_series"] = [
        list(point) for point in timeline.queue_depth_series()
    ]


def run_scenario_pair(
    workload: WorkloadRef,
    trace: bool = True,
    store: "ResultStore | None" = None,
    trace_store: "TraceStore | None" = None,
    telemetry: Telemetry | None = None,
    **run_kwargs,
) -> dict[str, "ScenarioResult | ScenarioReplay"]:
    """Serial and DROM full results of one workload (the experiments' idiom).

    ``store``/``trace_store`` are the two content-addressed tiers.  When
    *both* are given and both hit for a scenario, execution is skipped and a
    :class:`~repro.traces.query.ScenarioReplay` (metrics row + stored
    tracer, same reporting interface) is returned instead; on any miss
    (including a trace artifact with a corrupt member) the scenario
    executes with tracing on and both tiers are written back.  This
    is what lets the trace-based figure experiments regenerate from a warm
    store without simulating.

    ``telemetry`` records one ``cell`` span per scenario (with a ``replay``
    child on double hits, the usual execution children otherwise).
    """
    obs = telemetry if telemetry is not None else DISABLED
    results: dict[str, ScenarioResult] = {}
    for i, scenario in enumerate((SERIAL, DROM)):
        run = RunSpec(index=i, scenario=scenario, workload=workload, **run_kwargs)
        with obs.span("cell", index=i, run_id=run.run_id, cached=False) as cell:
            result = None
            if store is not None and trace_store is not None:
                from repro.store.content import READ_ERRORS
                from repro.traces.query import replay_scenario

                row = store.get(run)
                entry = trace_store.get(run) if row is not None else None
                if entry is not None:
                    try:
                        # ``get`` checks only the header and member sizes; a
                        # corrupt steps or mask member must read as a miss,
                        # not a crash.
                        entry.tracer
                    except READ_ERRORS:
                        entry = None
                if entry is not None:
                    with obs.span("replay"):
                        result = replay_scenario(run, row, entry)
                    cell.attrs["cached"] = True
                    cell.count("metrics_hit", 1)
                    cell.count("trace_hit", 1)
                    _log.debug("cell %s: replayed from both tiers", run.cell_id)
            if result is None:
                capture = trace or trace_store is not None
                result = execute_run(run, trace=capture, telemetry=obs)
                if store is not None:
                    with obs.span("store_write") as span:
                        path = store.put(summarise_run(run, result))
                        span.count("bytes", path.stat().st_size)
                if trace_store is not None:
                    with obs.span("trace_write") as span:
                        path = trace_store.put(run, result)
                        span.count("bytes", path.stat().st_size)
        results[scenario] = result
    return results


@dataclass(frozen=True)
class RunMetrics:
    """Compact, picklable summary of one run (what the pool ships back)."""

    run: RunSpec
    workload_name: str
    total_run_time: float
    average_response_time: float
    makespan_end: float
    #: Per-job (label, value) pairs, in job order — tuples keep the record
    #: hashable and deterministic to serialise.
    response_times: tuple[tuple[str, float], ...]
    wait_times: tuple[tuple[str, float], ...]
    run_times: tuple[tuple[str, float], ...]
    job_utilisation: tuple[tuple[str, float], ...]

    @property
    def run_id(self) -> str:
        return self.run.run_id

    @property
    def scenario(self) -> str:
        return self.run.scenario

    def response_time(self, job: str) -> float:
        return dict(self.response_times)[job]


def summarise_run(run: RunSpec, result: ScenarioResult) -> RunMetrics:
    """Compact a full scenario result into its campaign row."""
    metrics = result.metrics
    labels = [j.name for j in metrics.jobs]
    return RunMetrics(
        run=run,
        workload_name=result.workload.name,
        total_run_time=metrics.total_run_time,
        average_response_time=metrics.average_response_time,
        makespan_end=metrics.makespan_end,
        response_times=tuple((l, metrics.job(l).response_time) for l in labels),
        wait_times=tuple((l, metrics.job(l).wait_time) for l in labels),
        run_times=tuple((l, metrics.job(l).run_time) for l in labels),
        job_utilisation=tuple((l, result.job_utilisation(l)) for l in labels),
    )


def _execute_and_summarise(
    run: RunSpec,
    trace_store: "TraceStore | None" = None,
    store: "ResultStore | None" = None,
    clock_factory=None,
) -> tuple[RunMetrics, Span | None]:
    """Execute and persist one cell — what every local executor runs
    (module-level so it pickles).

    Tracing is enabled only when the trace tier wants the full trace; each
    worker writes its own runs' store entries and trace artifacts
    (both tiers are keyed per run, so concurrent workers never collide — and
    same-cell collisions write atomically).

    Returns the metrics row plus the cell's detached span tree (``None``
    when telemetry is off).  The tree is measured on a **fresh clock** from
    ``clock_factory`` — the same code path whether this call runs in-process
    or inside a pool worker, which is what makes serial and pooled telemetry
    identical under a deterministic fake factory.
    """
    obs = Telemetry(clock_factory=clock_factory) if clock_factory is not None else DISABLED
    with obs.span("cell", index=run.index, run_id=run.run_id, cached=False) as cell:
        result = execute_run(run, trace=trace_store is not None, telemetry=obs)
        with obs.span("summarise"):
            row = summarise_run(run, result)
        if store is not None:
            with obs.span("store_write") as span:
                path = store.put(row)
                if obs.enabled:
                    span.count("bytes", path.stat().st_size)
        if trace_store is not None:
            with obs.span("trace_write") as span:
                path = trace_store.put(run, result)
                if obs.enabled:
                    span.count("bytes", path.stat().st_size)
        cell.count("events", result.events_executed)
    return row, (obs.roots[0] if obs.enabled else None)


@dataclass(frozen=True)
class CampaignResult:
    """All rows of a finished campaign, in run-index order."""

    name: str
    rows: tuple[RunMetrics, ...]
    #: How many rows were served from the store tiers instead of simulated
    #: (with a trace tier configured, a row counts only when *both* tiers hit).
    cache_hits: int = 0
    #: How many rows were actually simulated (``len(rows) - cache_hits``).
    executed: int = 0
    #: Metrics-tier hits during the cache scan — includes rows that still
    #: re-simulated because the trace tier missed (see :attr:`backfilled`).
    metrics_hits: int = 0
    #: Trace-tier hits during the cache scan (0 when no trace tier was given).
    trace_hits: int = 0
    #: Metrics-tier hits that re-simulated to backfill a missing trace
    #: artifact (metrics hit, trace miss).
    backfilled: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def by_scenario(self) -> dict[str, list[RunMetrics]]:
        out: dict[str, list[RunMetrics]] = {}
        for row in self.rows:
            out.setdefault(row.scenario, []).append(row)
        return out

    def scenario_pairs(self) -> list[dict[str, RunMetrics]]:
        """Group rows by grid cell (the consecutive scenario block).

        Returns one ``{scenario: row}`` dict per cell, in grid order — the
        shape the Serial-vs-DROM comparisons consume.  Grouping follows the
        expansion order (scenarios are innermost, so each cell is one
        consecutive block of rows), which keeps repeated workload references
        in the grid as distinct cells.
        """
        cells: list[dict[str, RunMetrics]] = []
        current: dict[str, RunMetrics] = {}
        for row in self.rows:
            if row.scenario in current:
                cells.append(current)
                current = {}
            current[row.scenario] = row
        if current:
            cells.append(current)
        return cells

    def tier_summary(self) -> str:
        """One line of per-tier cache accounting (metrics vs trace tier)."""
        total = len(self.rows)
        parts = [
            f"metrics tier {self.metrics_hits} hit / "
            f"{total - self.metrics_hits} miss",
            f"trace tier {self.trace_hits} hit / {total - self.trace_hits} miss",
        ]
        return (
            "tiers: " + " | ".join(parts)
            + f" | {self.backfilled} backfill re-simulation(s)"
        )

    def to_table(self, tiers: bool = False) -> str:
        """Render the aggregated metrics as one comparable fixed-width table.

        ``tiers=True`` appends the per-tier cache accounting footer
        (:meth:`tier_summary`); the default rendering stays a pure function
        of the rows, so warm and cold campaigns tabulate byte-identically.
        """
        from repro.experiments.tables import render_table

        rows = [
            (
                f"{m.run.index:04d}",
                m.scenario,
                m.workload_name,
                m.run.cluster.label,
                m.run.policy.name if m.run.policy is not None else "default",
                m.run.scheduler.label,
                f"{m.total_run_time:.3f}",
                f"{m.average_response_time:.3f}",
                f"{m.makespan_end:.3f}",
            )
            for m in self.rows
        ]
        table = render_table(
            [
                "Run",
                "Scenario",
                "Workload",
                "Cluster",
                "Policy",
                "Scheduler",
                "Total run time (s)",
                "Avg response (s)",
                "Makespan end (s)",
            ],
            rows,
        )
        if tiers:
            table += "\n" + self.tier_summary()
        return table


def _as_executors(executor) -> "list | None":
    """Normalise ``run_campaign``'s ``executor=`` argument: ``None``, one
    :class:`~repro.exec.base.Executor`, or a sequence of them."""
    if executor is None:
        return None
    from repro.exec.base import Executor

    if isinstance(executor, Executor):
        return [executor]
    executors = list(executor)
    if not executors:
        return None
    for candidate in executors:
        if not isinstance(candidate, Executor):
            raise TypeError(f"not an Executor: {candidate!r}")
    return executors


def _as_manifest(manifest):
    """Normalise ``manifest=``: ``None``, a path, or a ``CampaignManifest``."""
    if manifest is None:
        return None
    from repro.exec.manifest import CampaignManifest

    if isinstance(manifest, CampaignManifest):
        return manifest
    return CampaignManifest(manifest)


def execute_runs(
    name: str,
    runs: Iterable[RunSpec],
    workers: int = 1,
    store: "ResultStore | None" = None,
    trace_store: "TraceStore | None" = None,
    telemetry: Telemetry | None = None,
    progress: "bool | TextIO" = False,
    executor=None,
    manifest=None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
) -> CampaignResult:
    """Execute an explicit run list and aggregate the metrics — the core
    both :func:`run_campaign` (expanded spec) and :func:`resume_campaign`
    (manifest replay) drive.  See :func:`run_campaign` for the full
    parameter contract."""
    if workers <= 0:
        raise ValueError("workers must be positive")
    from repro.exec.orchestrator import check_retry_policy

    check_retry_policy(timeout, retries, backoff)
    runs = list(runs)
    executors = _as_executors(executor)
    journal = _as_manifest(manifest)
    obs = telemetry if telemetry is not None else DISABLED
    clock_factory = obs.clock_factory if obs.enabled else None
    stream = sys.stderr if progress is True else (progress or None)
    line = ProgressLine(len(runs), stream) if stream is not None else None
    _log.info(
        "campaign %r: %d runs on %s%s%s%s",
        name,
        len(runs),
        f"{len(executors)} executor(s)" if executors else f"{workers} worker(s)",
        f", store={store.root}" if store is not None else "",
        f", trace_store={trace_store.root}" if trace_store is not None else "",
        f", manifest={journal.path}" if journal is not None else "",
    )

    # The warm scan needs every cell's content key; compute each exactly
    # once (they also key the manifest journal and the store writes).
    keys: dict[int, str] = {}
    if store is not None or trace_store is not None or journal is not None:
        from repro.results.store import content_key

        keys = {run.index: content_key(run) for run in runs}
    if journal is not None:
        from repro.exec.manifest import DONE, FAILED

        journal.begin(name, runs)
    # One index read per tier for the whole scan (O(1) on a warm store,
    # one listdir + stat-diff after a write), instead of one filesystem
    # probe per cell per tier; membership is name-level, so hits are still
    # validated by the per-entry read below.  Index stats are snapshotted
    # as deltas around these parent-process scans only, so serial and
    # pooled campaigns count identically.
    def _index_stats(tier) -> dict:
        return dict(tier.index.stats) if tier is not None and tier.root.is_dir() else {}

    store_stats0 = _index_stats(store)
    trace_stats0 = _index_stats(trace_store)
    store_keys = store.scan() if store is not None else frozenset()
    trace_keys = trace_store.scan() if trace_store is not None else frozenset()
    index_counts = {}
    for tier, before, label in (
        (store, store_stats0, "store"),
        (trace_store, trace_stats0, "trace"),
    ):
        after = _index_stats(tier)
        # A "hit" is any scan the journal served (fresh or stat-diff
        # reconciled); only a missing/invalid journal counts as a rebuild.
        index_counts[f"{label}_index_hits"] = (
            after.get("hits", 0)
            + after.get("reconciles", 0)
            - before.get("hits", 0)
            - before.get("reconciles", 0)
        )
        index_counts[f"{label}_index_rebuilds"] = (
            after.get("rebuilds", 0) - before.get("rebuilds", 0)
        )

    rows_by_index: dict[int, RunMetrics] = {}
    spans_by_index: dict[int, Span] = {}
    #: index -> (metrics_hit, trace_hit) of the cache scan, annotated onto
    #: the executed cells' spans after stitching.
    tier_state: dict[int, tuple[bool, bool]] = {}
    with obs.span("campaign", name=name, runs=len(runs)) as campaign:
        misses = []
        metrics_hits = trace_hits = backfilled = 0
        for run in runs:
            key = keys.get(run.index)
            cached = (
                store.get(run, key)
                if store is not None and key in store_keys
                else None
            )
            trace_hit = (
                trace_store is not None
                and key in trace_keys
                and trace_store.get(run, key) is not None
            )
            metrics_hits += cached is not None
            trace_hits += trace_hit
            tier_state[run.index] = (cached is not None, trace_hit)
            if cached is not None and (trace_store is None or trace_hit):
                rows_by_index[run.index] = cached
                if journal is not None:
                    journal.record(key, DONE, index=run.index, cached=True)
                if obs.enabled:
                    span = obs.record(
                        "cell", index=run.index, run_id=run.run_id, cached=True
                    )
                    span.count("metrics_hit", 1)
                    if trace_hit:
                        span.count("trace_hit", 1)
                    spans_by_index[run.index] = span
                _log.debug("cell %04d: served from store", run.index)
                if line is not None:
                    line.advance(cached=True)
            else:
                if cached is not None:
                    backfilled += 1
                    _log.debug(
                        "cell %04d: metrics hit but trace miss, re-simulating "
                        "to backfill the trace tier", run.index,
                    )
                misses.append(run)

        try:
            if misses:
                from repro.exec.base import WorkerContext
                from repro.exec.local import InProcessExecutor, LocalPoolExecutor
                from repro.exec.orchestrator import orchestrate

                orchestrated = executors is not None
                if not orchestrated and workers == 1:
                    # An in-process cell cannot be pre-empted mid-run.
                    executors, timeout = [InProcessExecutor()], None
                elif not orchestrated:
                    slots = min(workers, len(misses))
                    executors = [LocalPoolExecutor(slots=slots, name=f"pool[{slots}]")]
                context = WorkerContext(
                    store=store,
                    trace_store=trace_store,
                    clock_factory=clock_factory,
                )

                def on_done(run, row, executor_name) -> None:
                    _log.debug("cell %04d: simulated", run.index)
                    if journal is not None:
                        journal.record(
                            keys[run.index],
                            DONE,
                            index=run.index,
                            executor=executor_name,
                        )
                    if line is not None:
                        line.advance()

                def on_failed(run, reason, executor_name) -> None:
                    if journal is not None:
                        journal.record(
                            keys[run.index],
                            FAILED,
                            index=run.index,
                            executor=executor_name,
                            error=reason,
                        )

                def on_status(in_flight, queue_depth) -> None:
                    if line is not None:
                        busy = " ".join(
                            f"{name}:{n}" for name, n in in_flight.items()
                        )
                        line.set_status(
                            f"in flight {busy or '-'} | queued {queue_depth}"
                        )

                outcome = orchestrate(
                    misses,
                    executors,
                    context,
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    on_done=on_done,
                    on_failed=on_failed,
                    # The in-flight status segment, the per-executor series
                    # and the executor spans below are ``executor=`` views:
                    # ``workers=`` campaigns repaint once per completed cell
                    # and record only the cell trees.  A fresh clock (None
                    # when telemetry is off) leaves the campaign span's own
                    # clock domain unperturbed.
                    on_status=on_status if orchestrated else None,
                    clock=obs.fresh_clock() if orchestrated else None,
                )
                for row, span in outcome.results:
                    rows_by_index[row.run.index] = row
                    if span is not None:
                        spans_by_index[row.run.index] = span
                if obs.enabled and orchestrated:
                    # One closed span per executor with its dispatch
                    # accounting — pure bookkeeping of the orchestration,
                    # adopted before the cell stitch so the tree layout is
                    # deterministic.
                    for stat in outcome.stats.values():
                        span = obs.record(
                            "executor",
                            name=stat.name,
                            slots=stat.slots,
                            died=stat.died,
                        )
                        span.count("dispatched", stat.dispatched)
                        span.count("completed", stat.completed)
                        span.count("retried", stat.retried)
                        span.count("requeued", stat.requeued)
                        span.count("timeouts", stat.timeouts)
                        span.count("max_in_flight", stat.max_in_flight)
                        if stat.series:
                            # Full queue-depth/in-flight series (not just
                            # the high-water mark); excluded from Chrome
                            # args, exported as a counter track instead.
                            span.attrs["queue_series"] = [
                                list(sample) for sample in stat.series
                            ]
                        obs.adopt(span, parent=campaign)
                    campaign.count("max_queue_depth", outcome.max_queue_depth)
        finally:
            if line is not None:
                line.finish()
        if obs.enabled:
            # Stitch the cell trees under the campaign span in run-index
            # order and annotate executed cells with the cache-scan state —
            # both pure functions of the scan, so serial and pooled
            # campaigns produce identical trees.
            for run in runs:
                span = spans_by_index.get(run.index)
                if span is None:
                    continue
                if not span.attrs.get("cached"):
                    metrics_hit, trace_hit = tier_state[run.index]
                    span.attrs["backfilled"] = metrics_hit
                    if metrics_hit:
                        span.count("metrics_hit", 1)
                    if trace_hit:
                        span.count("trace_hit", 1)
                obs.adopt(span, parent=campaign)
            campaign.count("executed", len(misses))
            campaign.count("cached", len(runs) - len(misses))
            campaign.count("metrics_hits", metrics_hits)
            campaign.count("trace_hits", trace_hits)
            campaign.count("backfilled", backfilled)
            for counter, value in index_counts.items():
                campaign.count(counter, value)
    _log.info(
        "campaign %r done: %d simulated, %d served from store",
        name,
        len(misses),
        len(runs) - len(misses),
    )
    rows = tuple(rows_by_index[run.index] for run in runs)
    return CampaignResult(
        name=name,
        rows=rows,
        cache_hits=len(runs) - len(misses),
        executed=len(misses),
        metrics_hits=metrics_hits,
        trace_hits=trace_hits,
        backfilled=backfilled,
    )


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    store: "ResultStore | None" = None,
    trace_store: "TraceStore | None" = None,
    telemetry: Telemetry | None = None,
    progress: "bool | TextIO" = False,
    executor=None,
    manifest=None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
) -> CampaignResult:
    """Execute every run of ``spec`` and aggregate the metrics.

    Every cell that misses the store tiers is dealt by the asyncio
    orchestrator (:mod:`repro.exec.orchestrator`) to ``executor`` — one
    :class:`~repro.exec.base.Executor` or a list of them (e.g. a local pool
    plus two SSH hosts).  Without one, ``workers`` picks the executor:
    ``1`` runs cells in-process (:class:`~repro.exec.local.InProcessExecutor`;
    a cell's own exception propagates unretried and ``timeout`` does not
    apply), ``N`` runs a :class:`~repro.exec.local.LocalPoolExecutor` whose
    workers receive the invariant campaign context once.  Pools and
    executors get per-cell ``timeout``, bounded ``retries`` with exponential
    ``backoff`` on transient failures, and graceful degradation when a
    backend dies.  Whatever the executor, a ``timeout`` that is not
    ``None`` or a finite number > 0, negative ``retries`` or a negative or
    non-finite ``backoff`` raises :class:`ValueError`.  Every choice returns
    identical results for the same spec: each run is a pure function of its
    :class:`RunSpec` and rows are aggregated in run-index order regardless
    of completion order.

    ``store`` memoises execution on the run's content hash: cells already in
    the :class:`~repro.results.store.ResultStore` are served from it (no
    simulation), only the misses execute, and fresh rows are written back.
    Because stored rows are rebound to the requesting grid index and
    aggregation stays in run-index order, a warm campaign is byte-identical
    to a cold one.

    ``trace_store`` adds the second tier: every run that executes does so
    with tracing on and persists its full tracer under the same content key
    (:class:`~repro.traces.store.TraceStore`).  A run skips execution only
    when **both** tiers hit — a metrics hit whose trace artifact is missing
    (or stale-format) re-simulates to backfill the trace, which re-derives
    the identical row (runs are pure functions of their specs).  The result's
    :attr:`~CampaignResult.metrics_hits` / :attr:`~CampaignResult.trace_hits`
    / :attr:`~CampaignResult.backfilled` break the scan down per tier.

    ``manifest`` (a path or :class:`~repro.exec.manifest.CampaignManifest`)
    journals the campaign as an append-only JSONL record of intent and
    completion — what :func:`resume_campaign` replays after a crash so only
    the cells missing from the store tiers re-execute.

    ``telemetry`` records the campaign's span tree: one ``campaign`` root
    whose children are the per-cell trees in run-index order (cache hits
    appear as closed ``cell`` spans marked ``cached=True``; ``executor=``
    campaigns prepend one ``executor`` accounting span per backend).
    ``progress`` (``True`` for stderr, or any writable stream) repaints a
    live done/total | hits | cells/s | ETA line once per completed cell,
    with per-executor in-flight counts for ``executor=`` campaigns.
    """
    return execute_runs(
        spec.name,
        spec.expand(),
        workers=workers,
        store=store,
        trace_store=trace_store,
        telemetry=telemetry,
        progress=progress,
        executor=executor,
        manifest=manifest,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
    )


def resume_campaign(
    manifest,
    store: "ResultStore",
    workers: int = 1,
    trace_store: "TraceStore | None" = None,
    telemetry: Telemetry | None = None,
    progress: "bool | TextIO" = False,
    executor=None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
) -> CampaignResult:
    """Resume a crashed or partially executed campaign from its manifest.

    The manifest is self-contained (every cell's canonical spec contents are
    journalled with its ``pending`` line), so no campaign grid flags are
    needed: the run list is rebuilt from the journal, and the normal warm
    scan against ``store`` (and ``trace_store`` if given) decides what still
    executes — **only the cells whose content keys are missing from the
    store tiers re-run**, regardless of what states the journal last saw.
    Completions are journalled back into the same manifest, so resuming is
    idempotent and re-entrant.
    """
    journal = _as_manifest(manifest)
    if journal is None:
        raise ValueError("resume requires a manifest path")
    if store is None:
        raise ValueError(
            "resume requires the campaign's result store — without it every "
            "cell would re-execute"
        )
    state = journal.replay()
    if not state.cells:
        raise ValueError(f"manifest {journal.path} records no cells")
    runs = state.runs()
    _log.info(
        "resuming campaign %r from %s: %d journalled cell(s), %d marked done",
        state.name,
        journal.path,
        len(runs),
        len(state.done),
    )
    return execute_runs(
        state.name,
        runs,
        workers=workers,
        store=store,
        trace_store=trace_store,
        telemetry=telemetry,
        progress=progress,
        executor=executor,
        manifest=journal,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
    )
