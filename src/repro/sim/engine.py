"""Deterministic discrete-event simulation engine.

A virtual clock over a priority queue of ``(time, priority, seq, callback,
args)`` entries.  The one scheduling primitive is
:meth:`SimulationEngine.call_at`, which returns an id that
:meth:`SimulationEngine.cancel` takes back; a sleeping activity is a callback
that schedules its own continuation.  Ties in time break by priority, then by
a monotonically increasing sequence number, so two runs of the same scenario
produce identical event orders.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the engine (e.g. time travel)."""


class SimulationEngine:
    """The event loop."""

    def __init__(self) -> None:
        self._now = 0.0
        # Entries are (time, priority, seq, callback, args): storing the
        # callable and its arguments directly (instead of a per-call lambda
        # closure) keeps the hot path allocation-light.  ``seq`` is unique,
        # so comparisons never reach the callback.
        self._queue: list[tuple[float, int, int, Callable[..., Any], tuple]] = []
        self._seq = 0
        #: Sequence numbers of cancelled calls still in the queue.
        self._cancelled: set[int] = set()
        self._running = False
        self._executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total events dispatched so far (the perf harness's events/sec)."""
        return self._executed

    def call_at(
        self, time: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> int:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        A ``time`` at or after ``now`` is kept as given, so a wake lands on
        exactly the float it names.  Returns the call's id for :meth:`cancel`.
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        seq = self._seq
        heapq.heappush(self._queue, (max(time, self._now), priority, seq, callback, args))
        self._seq += 1
        return seq

    def cancel(self, call: int) -> None:
        """Drop ``call``, an id from :meth:`call_at` that has not run yet.

        A cancelled call never runs, never moves the clock and is not
        counted in :attr:`events_executed`.
        """
        self._cancelled.add(call)

    def run(self) -> float:
        """Process events until the queue drains; returns the final time."""
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        queue = self._queue
        cancelled = self._cancelled
        executed = 0
        try:
            while queue:
                time, _, seq, callback, args = heapq.heappop(queue)
                if seq in cancelled:
                    cancelled.remove(seq)
                    continue
                if time > self._now:
                    self._now = time
                callback(*args)
                executed += 1
        finally:
            self._running = False
            self._executed += executed
        return self._now
