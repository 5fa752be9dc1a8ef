"""Timestamped event records shared by the simulator, tracer and metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True, order=True)
class Event:
    """A timestamped, named record with free-form payload.

    Events are ordered by ``(time, seq)`` so that two events at the same
    simulated instant keep their emission order.
    """

    time: float
    seq: int
    name: str = field(compare=False)
    payload: dict[str, Any] = field(compare=False, default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.payload.get(key, default)


class EventLog:
    """Append-only list of :class:`Event` with simple query helpers.

    Appends must be non-decreasing in time, which the simulation engine
    guarantees.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._seq = 0

    def append(self, time: float, name: str, **payload: Any) -> Event:
        """Record an event at ``time``; returns the stored event."""
        if self._events and time < self._events[-1].time - 1e-12:
            raise ValueError(
                f"event {name!r} at t={time} is earlier than the last recorded "
                f"event at t={self._events[-1].time}"
            )
        event = Event(time=time, seq=self._seq, name=name, payload=dict(payload))
        self._seq += 1
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def named(self, name: str) -> list[Event]:
        """All events with the given name, in time order."""
        return [e for e in self._events if e.name == name]

    def filter(self, predicate: Callable[[Event], bool]) -> list[Event]:
        return [e for e in self._events if predicate(e)]

    def between(self, start: float, stop: float) -> list[Event]:
        """Events with ``start <= time < stop``."""
        return [e for e in self._events if start <= e.time < stop]

    def last(self, name: str | None = None) -> Event | None:
        """Most recent event, optionally restricted to a name."""
        if name is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.name == name:
                return event
        return None

    def names(self) -> set[str]:
        return {e.name for e in self._events}

    def extend_from(self, other: Iterable[Event]) -> None:
        """Merge events from another log, re-sorting by time."""
        merged = sorted(list(self._events) + list(other))
        self._events = [
            Event(time=e.time, seq=i, name=e.name, payload=e.payload)
            for i, e in enumerate(merged)
        ]
        self._seq = len(self._events)
