"""Tests for the generic discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import SimulationEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(2.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(3.0, lambda: log.append("c"))
        engine.run_until(10.0)
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_priority_then_insertion(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(1.0, lambda: log.append("later"), priority=1)
        engine.schedule(1.0, lambda: log.append("first"), priority=0)
        engine.schedule(1.0, lambda: log.append("second"), priority=0)
        engine.run_until(2.0)
        assert log == ["first", "second", "later"]

    def test_clock_advances_to_event_times(self):
        engine = SimulationEngine()
        times = []
        engine.schedule(1.5, lambda: times.append(engine.now))
        engine.schedule(4.0, lambda: times.append(engine.now))
        engine.run_until(10.0)
        assert times == [1.5, 4.0]
        assert engine.now == 10.0

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        engine = SimulationEngine()
        hits = []
        engine.schedule_at(5.0, lambda: hits.append(engine.now))
        engine.run_until(6.0)
        assert hits == [5.0]

    def test_events_scheduled_during_events(self):
        engine = SimulationEngine()
        log = []

        def chain():
            log.append(engine.now)
            if engine.now < 3.0:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run_until(10.0)
        assert log == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        engine = SimulationEngine()
        log = []
        event = engine.schedule(1.0, lambda: log.append("no"))
        engine.schedule(2.0, lambda: log.append("yes"))
        event.cancel()
        engine.run_until(3.0)
        assert log == ["yes"]

    def test_peek_skips_cancelled(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        assert engine.peek_time() == 2.0


class TestHorizon:
    def test_events_at_horizon_not_executed(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(5.0, lambda: log.append("at"))
        engine.run_until(5.0)
        assert log == []
        # A later run executes it.
        engine.run_until(5.1)
        assert log == ["at"]

    def test_past_horizon_rejected(self):
        engine = SimulationEngine()
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.run_until(1.0)

    def test_events_executed_counter(self):
        engine = SimulationEngine()
        for i in range(4):
            engine.schedule(float(i + 1), lambda: None)
        engine.run_until(10.0)
        assert engine.events_executed == 4


class TestNaNRejected:
    """NaN delays and horizons compare false against everything,
    so the engine must refuse them rather than order or run on them."""

    def test_nan_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="NaN"):
            engine.schedule(float("nan"), lambda: None)
        assert engine.peek_time() is None

    def test_nan_typed_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="NaN"):
            engine.schedule_typed(float("nan"), 0)
        assert engine.pending == 0

    def test_infinite_delay_still_accepted(self):
        engine = SimulationEngine()
        engine.schedule(float("inf"), lambda: None)
        engine.run_until(10.0)
        assert engine.pending == 1
        assert engine.peek_time() == float("inf")

    def test_nan_horizon_rejected(self):
        engine = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            engine.schedule(0.1, tick)

        engine.schedule(0.1, tick)
        with pytest.raises(SimulationError, match="NaN"):
            engine.run_until(float("nan"))
        assert ticks == []
