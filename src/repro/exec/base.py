"""The executor abstraction: where a campaign cell physically runs.

A campaign is a list of pure :class:`~repro.campaign.spec.RunSpec` cells; an
:class:`Executor` is a place that can run them — a persistent local process
pool (:class:`~repro.exec.local.LocalPoolExecutor`), a remote host driven
over SSH (:class:`~repro.exec.ssh.SSHExecutor`), or anything a test wants to
script.  The asyncio orchestrator (:mod:`repro.exec.orchestrator`) deals
cells to every executor's slots as they free up, so one slow backend never
idles the others.

The contract is deliberately tiny:

* :meth:`Executor.start` receives the campaign's :class:`WorkerContext`
  (store tiers, telemetry clock factory) **once** — invariant context
  never crosses the wire per cell.
* :meth:`Executor.run_cell` awaits one cell and returns its
  ``(RunMetrics, Span | None)`` pair, exactly what the campaign runner's
  in-process path produces.  Failures are classified by exception type:
  :class:`ExecutorError` is transient (the orchestrator retries the cell
  with backoff), :class:`ExecutorDied` is terminal (the executor is retired
  and its cells requeue onto the survivors).
* Because every cell is a pure function of its spec and both store tiers
  write atomically under content keys, **re-running a cell is always safe**
  — retries, requeues after a death, and double executions after a timeout
  all converge on byte-identical artifacts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.runner import RunMetrics
    from repro.campaign.spec import RunSpec
    from repro.obs.telemetry import Span
    from repro.results.store import ResultStore
    from repro.traces.store import TraceStore

__all__ = [
    "Executor",
    "ExecutorDied",
    "ExecutorError",
    "WorkerContext",
]


class ExecutorError(RuntimeError):
    """A transient cell failure: the orchestrator retries the cell (with
    exponential backoff) up to its retry budget, possibly on another
    executor."""


class ExecutorDied(ExecutorError):
    """A terminal executor failure: the orchestrator retires the executor,
    logs a warning, and requeues its in-flight cell onto the remaining
    executors (graceful degradation).  The campaign only aborts when *no*
    executor survives."""


@dataclass(frozen=True)
class WorkerContext:
    """The invariant per-campaign context an executor's workers need.

    Picklable by construction (the store tiers are path-holding objects, the
    clock factory must be a picklable callable) so a process pool ships it
    **once** through its initializer instead of re-pickling it with every
    cell — only the :class:`~repro.campaign.spec.RunSpec` crosses the wire
    per cell.
    """

    store: "ResultStore | None" = None
    trace_store: "TraceStore | None" = None
    clock_factory: Callable | None = None


class Executor(ABC):
    """One place campaign cells can execute.

    Subclasses set :attr:`slots` (how many cells may be in flight at once)
    and implement :meth:`run_cell`; the orchestrator drives ``slots``
    concurrent :meth:`run_cell` calls per executor.  :attr:`writes_store`
    declares whether the executor's workers write the store tiers themselves
    (local pool workers do); when ``False`` the orchestrator persists the
    returned row into the local metrics tier so remote backends without a
    shared filesystem still populate the cache.
    """

    name: str = "executor"
    slots: int = 1
    writes_store: bool = True

    async def start(self, context: WorkerContext) -> None:
        """Bind the campaign context and bring up any transport/workers."""
        self.context = context

    @abstractmethod
    async def run_cell(self, run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
        """Execute one cell; raise :class:`ExecutorError` (transient) or
        :class:`ExecutorDied` (terminal) on failure."""

    async def close(self) -> None:
        """Tear down workers/transport (idempotent; called even after a
        death)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} slots={self.slots}>"
