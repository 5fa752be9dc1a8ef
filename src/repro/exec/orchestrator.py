"""The asyncio campaign orchestrator: deal cells to executor slots.

Given a list of cells and a fleet of :class:`~repro.exec.base.Executor`
backends, :func:`orchestrate` runs one *slot loop* per executor slot, all
pulling from one shared :class:`asyncio.Queue` — a free slot takes the next
cell, so fast backends naturally absorb more of the campaign and one slow
backend never stalls the rest.  The loop enforces three failure policies:

* **Per-cell timeout** (``timeout=``): a cell that overruns is cancelled on
  its executor and treated as a transient failure.
* **Bounded retry with backoff** (``retries=``/``backoff=``): transient
  failures (:class:`~repro.exec.base.ExecutorError`, timeouts) requeue the
  cell after ``backoff * 2**(attempt-1)`` seconds, up to ``retries`` extra
  attempts, possibly landing on a different executor.  Cells are pure and
  store writes are atomic/idempotent, so re-execution is always safe.
* **Graceful degradation** (:class:`~repro.exec.base.ExecutorDied`): a dead
  executor is retired with a logged warning, its in-flight cells requeue
  onto the survivors (no retry charged — the death was not the cell's
  fault), and the campaign only aborts with
  :class:`CampaignExecutionError` when *no* executor remains.

Results are ``(RunMetrics, Span | None)`` pairs in completion order — the
campaign runner re-keys them by grid index, so orchestrated aggregation is
byte-identical to serial.  For executors with ``writes_store=False`` (a
remote host without the campaign's filesystem) the orchestrator persists
each returned row into the local metrics tier itself.

Everything observable streams through callbacks: ``on_done``/``on_failed``
journal the campaign manifest, ``on_status`` repaints the progress line
with per-executor in-flight counts, and the returned per-executor
:class:`ExecutorStats` feed the telemetry ``executor`` spans.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.exec.base import Executor, ExecutorDied, ExecutorError, WorkerContext
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.runner import RunMetrics
    from repro.campaign.spec import RunSpec
    from repro.obs.telemetry import Span

_log = get_logger("exec.orchestrator")

__all__ = [
    "CampaignExecutionError",
    "ExecutorStats",
    "OrchestrationOutcome",
    "orchestrate",
]

#: Queue sentinel that tells a slot loop to exit.
_STOP = object()


class CampaignExecutionError(RuntimeError):
    """The orchestrated campaign could not complete every cell.

    ``failures`` carries ``(RunSpec, reason)`` pairs for cells that
    exhausted their retry budget (empty when the campaign aborted because
    every executor died with cells still queued).
    """

    def __init__(self, message: str, failures: Iterable = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


@dataclass
class ExecutorStats:
    """Per-executor accounting, fed to telemetry and the progress line."""

    name: str
    slots: int = 1
    dispatched: int = 0
    completed: int = 0
    retried: int = 0
    requeued: int = 0
    timeouts: int = 0
    in_flight: int = 0
    max_in_flight: int = 0
    died: bool = False
    #: ``[time, queue_depth, in_flight]`` samples at every dispatch/completion
    #: edge, on the clock :func:`orchestrate` was given (empty without one).
    #: Feeds the ``executor`` telemetry span and its Chrome counter track.
    series: list = field(default_factory=list, repr=False)


@dataclass
class OrchestrationOutcome:
    """What :func:`orchestrate` hands back to the campaign runner."""

    #: ``(row, span)`` pairs in completion order (runner re-keys by index).
    #: Kept out of the repr: ``asyncio.run`` reprs its main task, result
    #: included, while restoring the SIGINT handler — once per campaign,
    #: at a cost linear in the cells.
    results: list = field(default_factory=list, repr=False)
    #: Display name -> stats, one entry per executor (names deduplicated).
    stats: dict = field(default_factory=dict)
    #: High-water mark of cells waiting for a free slot.
    max_queue_depth: int = 0


class _State:
    """Shared mutable orchestration state (single event loop, no locks)."""

    def __init__(self, runs: Sequence["RunSpec"], total_slots: int) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        for run in runs:
            self.queue.put_nowait(run)
        self.outstanding = len(runs)
        self.total_slots = total_slots
        self.attempts: dict[int, int] = {}
        self.results: list = []
        self.failures: list = []
        self.retired: set[int] = set()
        self.live_executors = 0
        self.background: set[asyncio.Task] = set()
        self.abort_reason: str | None = None
        self.max_queue_depth = 0

    def note_queue_depth(self) -> None:
        self.max_queue_depth = max(self.max_queue_depth, self.queue.qsize())

    def stop_all(self) -> None:
        for _ in range(self.total_slots):
            self.queue.put_nowait(_STOP)

    def finish_one(self) -> None:
        self.outstanding -= 1
        if self.outstanding <= 0:
            self.stop_all()


async def _requeue_later(state: _State, run: "RunSpec", delay: float) -> None:
    await asyncio.sleep(delay)
    state.queue.put_nowait(run)
    state.note_queue_depth()


async def _slot_loop(
    executor: Executor,
    stats: ExecutorStats,
    state: _State,
    context: WorkerContext,
    timeout: float | None,
    retries: int,
    backoff: float,
    on_done: Callable | None,
    on_failed: Callable | None,
    notify: Callable[[], None],
) -> None:
    while True:
        item = await state.queue.get()
        if item is _STOP:
            return
        run = item
        if id(executor) in state.retired:
            # A sibling slot saw this executor die; hand the cell back and
            # bow out so only the survivors keep pulling.
            state.queue.put_nowait(run)
            return
        stats.dispatched += 1
        stats.in_flight += 1
        stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
        state.note_queue_depth()
        notify()
        try:
            if timeout is not None:
                row, span = await asyncio.wait_for(executor.run_cell(run), timeout)
            else:
                row, span = await executor.run_cell(run)
        except ExecutorDied as exc:
            stats.in_flight -= 1
            if id(executor) not in state.retired:
                state.retired.add(id(executor))
                state.live_executors -= 1
                stats.died = True
                _log.warning(
                    "executor %s died (%s); redistributing its cells across "
                    "the %d remaining executor(s)",
                    stats.name,
                    exc,
                    state.live_executors,
                )
            stats.requeued += 1
            state.queue.put_nowait(run)  # no retry charged: not the cell's fault
            notify()
            if state.live_executors <= 0:
                state.abort_reason = (
                    f"all executors died; last error from {stats.name}: {exc}"
                )
                state.stop_all()
            return
        except (ExecutorError, asyncio.TimeoutError) as exc:
            stats.in_flight -= 1
            if isinstance(exc, asyncio.TimeoutError):
                stats.timeouts += 1
                reason = f"timed out after {timeout:g}s on {stats.name}"
            else:
                reason = str(exc)
            attempt = state.attempts.get(run.index, 0) + 1
            state.attempts[run.index] = attempt
            if attempt > retries:
                state.failures.append((run, reason))
                _log.error(
                    "cell %04d failed permanently after %d attempt(s): %s",
                    run.index,
                    attempt,
                    reason,
                )
                if on_failed is not None:
                    on_failed(run, reason, stats.name)
                state.finish_one()
            else:
                stats.retried += 1
                delay = backoff * (2 ** (attempt - 1))
                _log.warning(
                    "cell %04d failed on %s (%s); retry %d/%d in %.2gs",
                    run.index,
                    stats.name,
                    reason,
                    attempt,
                    retries,
                    delay,
                )
                task = asyncio.create_task(_requeue_later(state, run, delay))
                state.background.add(task)
                task.add_done_callback(state.background.discard)
            notify()
            continue
        stats.in_flight -= 1
        stats.completed += 1
        if not executor.writes_store and context.store is not None:
            context.store.put(row)
        state.results.append((row, span))
        if on_done is not None:
            on_done(run, row, stats.name)
        notify()
        state.finish_one()


def _named_stats(executors: Sequence[Executor]) -> dict[int, ExecutorStats]:
    """One stats record per executor, display names deduplicated (two
    ``local[1]`` backends become ``local[1]`` and ``local[1]#2``)."""
    stats: dict[int, ExecutorStats] = {}
    seen: dict[str, int] = {}
    for executor in executors:
        count = seen.get(executor.name, 0) + 1
        seen[executor.name] = count
        name = executor.name if count == 1 else f"{executor.name}#{count}"
        stats[id(executor)] = ExecutorStats(name=name, slots=executor.slots)
    return stats


async def _orchestrate(
    runs: Sequence["RunSpec"],
    executors: Sequence[Executor],
    context: WorkerContext,
    timeout: float | None,
    retries: int,
    backoff: float,
    on_done: Callable | None,
    on_failed: Callable | None,
    on_status: Callable | None,
    clock: Callable[[], float] | None,
) -> OrchestrationOutcome:
    stats = _named_stats(executors)
    started: list[Executor] = []
    for executor in executors:
        try:
            await executor.start(context)
        except Exception as exc:
            # Startup death is degradation too: warn and run on the rest.
            stats[id(executor)].died = True
            _log.warning(
                "executor %s failed to start (%s); continuing without it",
                stats[id(executor)].name,
                exc,
            )
        else:
            started.append(executor)
    outcome = OrchestrationOutcome(
        stats={record.name: record for record in stats.values()}
    )
    if not started:
        raise CampaignExecutionError("no executor could be started")
    total_slots = sum(executor.slots for executor in started)
    state = _State(runs, total_slots)
    state.live_executors = len(started)

    def notify() -> None:
        if clock is not None:
            # Full (time, depth, in-flight) series, one sample per executor
            # per edge — not just the high-water mark the outcome keeps.
            now = clock()
            depth = state.queue.qsize()
            for executor in started:
                if id(executor) not in state.retired:
                    record = stats[id(executor)]
                    record.series.append([now, depth, record.in_flight])
        if on_status is not None:
            on_status(
                {
                    stats[id(executor)].name: stats[id(executor)].in_flight
                    for executor in started
                    if id(executor) not in state.retired
                },
                state.queue.qsize(),
            )

    try:
        loops = [
            asyncio.create_task(
                _slot_loop(
                    executor,
                    stats[id(executor)],
                    state,
                    context,
                    timeout,
                    retries,
                    backoff,
                    on_done,
                    on_failed,
                    notify,
                )
            )
            for executor in started
            for _ in range(executor.slots)
        ]
        await asyncio.gather(*loops)
    finally:
        for task in list(state.background):
            task.cancel()
        if state.background:
            await asyncio.gather(*state.background, return_exceptions=True)
        for executor in started:
            try:
                await executor.close()
            except Exception:  # pragma: no cover - best-effort teardown
                _log.debug("close failed for %s", stats[id(executor)].name)
    outcome.results = state.results
    outcome.max_queue_depth = state.max_queue_depth
    if state.abort_reason is not None:
        raise CampaignExecutionError(state.abort_reason)
    if state.failures:
        raise CampaignExecutionError(
            f"{len(state.failures)} cell(s) exhausted their retry budget "
            f"(first: cell {state.failures[0][0].index:04d}: "
            f"{state.failures[0][1]})",
            failures=state.failures,
        )
    return outcome


def check_retry_policy(timeout: float | None, retries: int, backoff: float) -> None:
    """Raise :class:`ValueError` unless ``timeout`` is ``None`` or a finite
    number > 0, ``retries`` is >= 0 and ``backoff`` is a finite number >= 0."""
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if not (math.isfinite(backoff) and backoff >= 0):
        raise ValueError(f"backoff must be a finite number >= 0, got {backoff!r}")


def orchestrate(
    runs: Sequence["RunSpec"],
    executors: Sequence[Executor],
    context: WorkerContext | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
    on_done: Callable | None = None,
    on_failed: Callable | None = None,
    on_status: Callable | None = None,
    clock: Callable[[], float] | None = None,
) -> OrchestrationOutcome:
    """Run ``runs`` across ``executors`` and return the outcome.

    Synchronous wrapper over the asyncio core (the campaign runner is a
    synchronous API).  ``on_done(run, row, executor_name)`` fires per
    completed cell, ``on_failed(run, reason, executor_name)`` per
    permanently failed cell, ``on_status(in_flight_by_executor,
    queue_depth)`` on every dispatch/completion edge.  ``clock`` (seconds,
    e.g. the telemetry's fresh clock) enables the per-executor
    ``(time, queue_depth, in_flight)`` series on the returned stats.
    """
    check_retry_policy(timeout, retries, backoff)
    if not executors:
        raise ValueError("at least one executor is required")
    return asyncio.run(
        _orchestrate(
            list(runs),
            list(executors),
            context if context is not None else WorkerContext(),
            timeout,
            retries,
            backoff,
            on_done,
            on_failed,
            on_status,
            clock,
        )
    )
