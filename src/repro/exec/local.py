"""Local cell execution: in-process, or a process pool with a one-shot
worker initializer.

:class:`InProcessExecutor` runs cells one at a time in the campaign's own
process — the ``workers=1`` backend.  :class:`LocalPoolExecutor` is the
``workers=N`` backend: the invariant :class:`~repro.exec.base.WorkerContext`
ships **once** through the pool initializer into a process-global, and per
cell only the :class:`~repro.campaign.spec.RunSpec` crosses the wire.

Determinism is untouched: both run the same pure ``_execute_and_summarise``
path, rows are keyed by grid index, and both store tiers write atomically
under content keys.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from typing import TYPE_CHECKING

from repro.exec.base import Executor, ExecutorDied, ExecutorError, WorkerContext
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.runner import RunMetrics
    from repro.campaign.spec import RunSpec
    from repro.obs.telemetry import Span

_log = get_logger("exec.local")

__all__ = [
    "InProcessExecutor",
    "LocalPoolExecutor",
    "initialise_worker",
    "pool_worker",
]

#: The per-process campaign context, set once by :func:`initialise_worker`.
_CONTEXT: WorkerContext | None = None


def initialise_worker(context: WorkerContext) -> None:
    """Pool initializer: bind the campaign's invariant context to this
    worker process (runs once per worker, not once per cell)."""
    global _CONTEXT
    _CONTEXT = context


def pool_worker(run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
    """Execute one cell against the process-global context.

    Module-level so it pickles by reference; the only per-cell payload on
    the wire is the :class:`~repro.campaign.spec.RunSpec` itself.
    """
    context = _CONTEXT
    if context is None:
        raise RuntimeError(
            "worker pool was not initialised with a WorkerContext "
            "(use LocalPoolExecutor)"
        )
    return _execute_in(context, run)


def _execute_in(
    context: WorkerContext, run: "RunSpec"
) -> "tuple[RunMetrics, Span | None]":
    from repro.campaign.runner import _execute_and_summarise

    return _execute_and_summarise(
        run,
        trace_store=context.trace_store,
        store=context.store,
        clock_factory=context.clock_factory,
    )


class InProcessExecutor(Executor):
    """One cell at a time in the campaign's own process (``workers=1``).

    Exceptions raised by a cell propagate as themselves — the orchestrator
    retries only :class:`~repro.exec.base.ExecutorError` — so an in-process
    failure is never retried and surfaces with its own type.
    """

    name = "serial"
    slots = 1
    writes_store = True

    async def run_cell(self, run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
        # The cell itself never suspends: yield once so a Ctrl-C cancels
        # the campaign between cells instead of after the last one.
        await asyncio.sleep(0)
        return _execute_in(self.context, run)


class LocalPoolExecutor(Executor):
    """Persistent local worker processes behind the executor interface.

    ``slots`` worker processes start once (context shipped through the
    initializer) and stay resident for the whole campaign; the orchestrator
    keeps up to ``slots`` cells in flight.  Workers write both store tiers
    themselves (same filesystem), so :attr:`writes_store` is ``True``.
    """

    writes_store = True

    def __init__(self, slots: int | None = None, name: str | None = None) -> None:
        if slots is not None and slots <= 0:
            raise ValueError("slots must be positive")
        self.slots = slots if slots is not None else (os.cpu_count() or 1)
        self.name = name if name is not None else f"local[{self.slots}]"
        self._pool: multiprocessing.pool.Pool | None = None

    async def start(self, context: WorkerContext) -> None:
        await super().start(context)
        self._pool = multiprocessing.Pool(
            processes=self.slots,
            initializer=initialise_worker,
            initargs=(context,),
        )
        _log.debug("%s: started %d persistent worker(s)", self.name, self.slots)

    async def run_cell(self, run: "RunSpec") -> "tuple[RunMetrics, Span | None]":
        if self._pool is None:
            raise ExecutorDied(f"{self.name} has no running pool")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _resolve(setter, value) -> None:
            loop.call_soon_threadsafe(
                lambda: None if future.done() else setter(value)
            )

        try:
            self._pool.apply_async(
                pool_worker,
                (run,),
                callback=lambda value: _resolve(future.set_result, value),
                error_callback=lambda exc: _resolve(
                    future.set_exception,
                    ExecutorError(
                        f"cell {run.index:04d} failed in {self.name}: {exc!r}"
                    ),
                ),
            )
        except ValueError as exc:  # the pool was terminated under us
            raise ExecutorDied(f"{self.name} pool is gone: {exc}") from exc
        return await future

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
