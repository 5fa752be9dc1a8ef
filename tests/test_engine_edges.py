"""Engine edge cases: yield validation, the cancellable absolute-time calls
the batched fast path relies on, and per-process wake priorities."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine, SimulationError, Timeout


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


class TestCancel:
    def test_cancelled_call_never_runs(self):
        engine = SimulationEngine()
        seen = []
        call = engine.call_at(1.0, seen.append, "cancelled")
        engine.call_at(2.0, seen.append, "live")
        engine.cancel(call)
        engine.run()
        assert seen == ["live"]

    def test_cancelled_call_does_not_move_the_clock(self):
        # The last live call ends the run: a cancelled later one leaves no
        # trace on ``now``.
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: None)
        engine.cancel(engine.call_at(5.0, lambda: None))
        assert engine.run() == 1.0
        assert engine.now == 1.0

    def test_cancelled_call_is_not_counted(self):
        engine = SimulationEngine()
        engine.call_at(1.0, lambda: None)
        engine.cancel(engine.call_at(0.5, lambda: None))
        engine.cancel(engine.call_at(1.0, lambda: None))
        engine.run()
        assert engine.events_executed == 1

    def test_call_at_lands_on_the_exact_float(self):
        # An absolute call re-adds nothing, so a left-fold-accumulated step
        # boundary is hit bit-for-bit.
        engine = SimulationEngine()
        target = 0.1 + 0.2  # 0.30000000000000004
        seen = []
        engine.call_at(target, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [target]

    def test_a_call_may_cancel_a_later_one_at_the_same_instant(self):
        # The runner's completion wakes a same-instant job itself and
        # cancels its queued wake.
        engine = SimulationEngine()
        seen = []
        later = engine.call_at(1.0, seen.append, "queued", priority=2)
        engine.call_at(1.0, lambda: (engine.cancel(later), seen.append("first")), priority=1)
        engine.run()
        assert seen == ["first"]
        assert engine.events_executed == 1


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
        # The runner relies on this: a submit is a plain priority-0 callback
        # and must run before any same-instant executor wake, whose priority
        # is always >= 1.
        engine = SimulationEngine()
        order = []

        def worker():
            yield Timeout(1.0)
            order.append("wake")

        engine.spawn(worker(), name="worker", priority=3)
        engine.call_at(1.0, lambda: order.append("event"))
        engine.run()
        assert order == ["event", "wake"]
