"""Engine edge cases: the cancellable absolute-time calls the batched fast
path relies on, and the wake priorities of self-rescheduling callbacks."""

from __future__ import annotations

from repro.sim.engine import SimulationEngine


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


def spawn(engine, order, label, priority):
    """Start a process at ``now`` that sleeps one second and then logs
    ``label``: a callback chain whose calls all run at ``priority``, as the
    reference loop's step chain runs at its job's."""

    def wake():
        order.append(label)

    def begin():
        engine.call_at(engine.now + 1.0, wake, priority=priority)

    engine.call_at(engine.now, begin, priority=priority)


class TestSpawnPriorities:
    def test_priority_orders_same_instant_wakes(self):
        engine = SimulationEngine()
        order = []
        spawn(engine, order, "second", 2)
        spawn(engine, order, "first", 1)
        engine.run()
        assert order == ["first", "second"]

    def test_equal_priorities_fall_back_to_spawn_order(self):
        engine = SimulationEngine()
        order = []
        spawn(engine, order, "a", 1)
        spawn(engine, order, "b", 1)
        engine.run()
        assert order == ["a", "b"]

    def test_priority_zero_callbacks_beat_executor_wakes(self):
        # The runner relies on this: a submit is a plain priority-0 callback
        # and must run before any same-instant executor wake, whose priority
        # is always >= 1.
        engine = SimulationEngine()
        order = []
        spawn(engine, order, "wake", 3)
        engine.call_at(1.0, lambda: order.append("event"))
        engine.run()
        assert order == ["event", "wake"]
