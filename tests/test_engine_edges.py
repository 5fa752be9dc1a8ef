"""Engine edge cases: yield validation, the absolute ``WakeAt`` wake the
batched fast path relies on, and per-process wake priorities."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine, SimulationError, Timeout, WakeAt


class TestYieldValidation:
    @pytest.mark.parametrize(
        "value",
        [None, 2.0, -1.0, True, (n for n in ()), []],
        ids=["none", "number", "negative", "bool", "generator", "list"],
    )
    def test_unsupported_yield_is_rejected(self, value):
        engine = SimulationEngine()

        def bad():
            yield value

        engine.spawn(bad(), name="bad")
        with pytest.raises(SimulationError, match="unsupported"):
            engine.run()

    def test_bool_yield_is_not_a_delay(self):
        # bool is an int subclass; yielding one is almost certainly a bug in
        # the process body, so it must not silently sleep for 1 second.
        engine = SimulationEngine()

        def bad():
            yield True

        engine.spawn(bad(), name="bad")
        with pytest.raises(SimulationError, match="unsupported"):
            engine.run()

    def test_timeout_constructor_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Timeout(-0.5)


class TestSkipAheadApi:
    def test_wake_at_lands_on_the_exact_float(self):
        # The point of WakeAt over Timeout: no "now + delay" re-addition, so
        # a left-fold-accumulated boundary is hit bit-for-bit.
        engine = SimulationEngine()
        target = 0.1 + 0.2  # 0.30000000000000004
        seen = []

        def proc():
            yield WakeAt(target)
            seen.append(engine.now)

        engine.spawn(proc(), name="proc")
        engine.run()
        assert seen == [target]

    def test_wake_at_in_the_past_clamps_to_now(self):
        engine = SimulationEngine()
        seen = []

        def proc():
            yield Timeout(2.0)
            yield WakeAt(1.0)  # already in the past: wakes immediately
            seen.append(engine.now)

        engine.spawn(proc(), name="proc")
        engine.run()
        assert seen == [2.0]


class TestSpawnPriorities:
    def test_priority_orders_same_instant_wakes(self):
        engine = SimulationEngine()
        order = []

        def worker(label):
            yield Timeout(1.0)
            order.append(label)

        engine.spawn(worker("second"), name="second", priority=2)
        engine.spawn(worker("first"), name="first", priority=1)
        engine.run()
        assert order == ["first", "second"]

    def test_equal_priorities_fall_back_to_spawn_order(self):
        engine = SimulationEngine()
        order = []

        def worker(label):
            yield Timeout(1.0)
            order.append(label)

        engine.spawn(worker("a"), name="a", priority=1)
        engine.spawn(worker("b"), name="b", priority=1)
        engine.run()
        assert order == ["a", "b"]

    def test_priority_zero_callbacks_beat_executor_wakes(self):
        # The runner relies on this: scheduler events (submits, completions)
        # are plain priority-0 callbacks and must run before any same-instant
        # executor wake, whose spawn priority is always >= 1.
        engine = SimulationEngine()
        order = []

        def worker():
            yield Timeout(1.0)
            order.append("wake")

        engine.spawn(worker(), name="worker", priority=3)
        engine.call_at(1.0, lambda: order.append("event"))
        engine.run()
        assert order == ["event", "wake"]
