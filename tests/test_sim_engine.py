"""Tests of the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine, SimulationError, Timeout


class TestCallbacks:
    def test_call_at_runs_in_time_order(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(5.0, lambda: seen.append(("b", engine.now)))
        engine.call_at(1.0, lambda: seen.append(("a", engine.now)))
        engine.run()
        assert seen == [("a", 1.0), ("b", 5.0)]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        errors = []

        def schedule_earlier():
            with pytest.raises(SimulationError) as info:
                engine.call_at(5.0, lambda: None)
            errors.append(info.value)

        engine.call_at(10.0, schedule_earlier)
        engine.run()
        assert engine.now == 10.0
        assert len(errors) == 1

    def test_run_is_not_reentrant(self):
        engine = SimulationEngine()
        errors = []

        def rerun():
            with pytest.raises(SimulationError, match="already running") as info:
                engine.run()
            errors.append(info.value)

        engine.call_at(1.0, rerun)
        engine.run()
        assert len(errors) == 1

    def test_ties_preserve_submission_order(self):
        engine = SimulationEngine()
        seen = []
        for i in range(5):
            engine.call_at(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, lambda: seen.append("low"), priority=5)
        engine.call_at(1.0, lambda: seen.append("high"), priority=-5)
        engine.run()
        assert seen == ["high", "low"]

    def test_callbacks_receive_args(self):
        engine = SimulationEngine()
        seen = []
        engine.call_at(1.0, seen.append, 42)
        engine.run()
        assert seen == [42]


class TestProcesses:
    def test_process_timeout_advances_clock(self):
        engine = SimulationEngine()

        def proc():
            yield Timeout(3.0)
            yield Timeout(2.0)

        engine.spawn(proc(), name="proc")
        assert engine.run() == 5.0
        assert engine.now == 5.0

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()

        def proc():
            yield -1.0

        engine.spawn(proc(), name="proc")
        with pytest.raises(SimulationError):
            engine.run()

    def test_unsupported_yield_rejected(self):
        engine = SimulationEngine()

        def proc():
            yield "nonsense"

        engine.spawn(proc(), name="proc")
        with pytest.raises(SimulationError):
            engine.run()

    def test_timeout_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Timeout(-0.1)

    def test_determinism(self):
        """Identical inputs produce identical event timelines."""

        def scenario():
            engine = SimulationEngine()
            log = []

            def proc(name, delay):
                for i in range(3):
                    yield Timeout(delay)
                    log.append((engine.now, name, i))

            engine.spawn(proc("x", 1.5), name="x")
            engine.spawn(proc("y", 2.0), name="y")
            engine.run()
            return log

        assert scenario() == scenario()

