"""Deterministic discrete-event simulation engine.

A virtual clock over a priority queue of ``(time, priority, seq, callback,
args)`` entries.  Callbacks are scheduled with :meth:`SimulationEngine.call_at`;
generator *processes* started with :meth:`SimulationEngine.spawn` sleep by
yielding :class:`Timeout` or :class:`WakeAt`.  Ties in time break by priority,
then by a monotonically increasing sequence number, so two runs of the same
scenario produce identical event orders.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the engine (e.g. time travel)."""


@dataclass(frozen=True, slots=True)
class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("Timeout delay must be non-negative")


@dataclass(frozen=True, slots=True)
class WakeAt:
    """Yielded by a process to sleep until an *absolute* simulated instant.

    Unlike :class:`Timeout` (which wakes at ``now + delay``, a float
    addition), a :class:`WakeAt` wake lands at exactly ``time`` — the batched
    fast path uses it to wake at a left-fold-accumulated step boundary with
    no re-rounding, so batched and single-step runs hit bit-identical
    instants.  A time at or before ``now`` wakes at ``now``.
    """

    time: float


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
    ) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is t={self._now}"
            )
        heapq.heappush(
            self._queue,
            (max(time, self._now), priority, self._seq, callback, args),
        )
        self._seq += 1

    def spawn(self, gen: Iterator, name: str, priority: int = 0) -> None:
        """Start the process ``gen`` as an event at the current time.

        ``priority`` tie-breaks this process's wake events against same-time
        events of other priorities (lower runs first); processes of equal
        priority fall back to scheduling order.
        """
        self.call_at(self._now, self._step, gen, name, priority, priority=priority)

    def _step(self, gen: Iterator, name: str, priority: int) -> None:
        try:
            yielded = next(gen)
        except StopIteration:
            return
        if isinstance(yielded, Timeout):
            time = self._now + yielded.delay
        elif isinstance(yielded, WakeAt):
            time = max(yielded.time, self._now)
        else:
            raise SimulationError(
                f"process {name!r} yielded an unsupported value: {yielded!r}"
            )
        self.call_at(time, self._step, gen, name, priority, priority=priority)

    def run(self) -> float:
        """Process events until the queue drains; returns the final time."""
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        queue = self._queue
        executed = 0
        try:
            while queue:
                time, _, _, callback, args = heapq.heappop(queue)
                if time > self._now:
                    self._now = time
                callback(*args)
                executed += 1
        finally:
            self._running = False
            self._executed += executed
        return self._now
