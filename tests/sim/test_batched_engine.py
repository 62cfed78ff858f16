"""Unit tests for the batched stepping machinery.

Covers the list-heap engine surface (typed events, block channels,
validation, counters), the pre-drawn RNG blocks' bit-identity with the
scalar draws they replace, and the Welford merge used by the throughput
benchmark to reduce per-repeat accumulators.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.rng import DEFAULT_BLOCK, ExponentialBlock, UniformBlock
from repro.sim.stats import WelfordAccumulator


class TestTypedEvents:
    def test_schedule_typed_requires_batched_mode(self):
        engine = SimulationEngine(step_mode="event")
        with pytest.raises(SimulationError, match="batched step_mode"):
            engine.schedule_typed(1.0, 0)

    def test_typed_event_without_dispatch_fails_loudly(self):
        engine = SimulationEngine(step_mode="batched")
        engine.schedule_typed(1.0, 0)
        with pytest.raises(SimulationError, match="typed_dispatch"):
            engine.run_until(10.0)

    def test_typed_dispatch_receives_code_and_payload(self):
        engine = SimulationEngine(step_mode="batched")
        seen = []
        engine.typed_dispatch = lambda code, a, b: seen.append((code, a, b))
        engine.schedule_typed(1.0, 7, 3, 9)
        engine.schedule_typed_at(0.5, 2)
        engine.run_until(10.0)
        assert seen == [(2, 0, 0), (7, 3, 9)]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine(step_mode="batched")
        with pytest.raises(SimulationError, match="past"):
            engine.schedule_typed(-1.0, 0)

    def test_typed_and_callback_events_share_the_total_order(self):
        engine = SimulationEngine(step_mode="batched")
        log = []
        engine.typed_dispatch = lambda code, a, b: log.append(("typed", code))
        engine.schedule(1.0, lambda: log.append(("cb", 0)), priority=1)
        engine.schedule_typed(1.0, 5, priority=0)  # same time, lower priority
        engine.run_until(2.0)
        assert log == [("typed", 5), ("cb", 0)]


class TestScheduleBlock:
    def test_offsets_must_be_one_dimensional(self):
        engine = SimulationEngine(step_mode="batched")
        with pytest.raises(SimulationError, match="one-dimensional"):
            engine.schedule_block(np.zeros((2, 2)), lambda t: None)

    def test_offsets_must_be_sorted_and_non_negative(self):
        engine = SimulationEngine(step_mode="batched")
        with pytest.raises(SimulationError, match="non-decreasing"):
            engine.schedule_block([2.0, 1.0], lambda t: None)
        with pytest.raises(SimulationError, match="non-decreasing"):
            engine.schedule_block([-1.0, 1.0], lambda t: None)

    def test_empty_block_is_a_no_op(self):
        engine = SimulationEngine(step_mode="batched")
        assert engine.schedule_block([], lambda t: None) == 0
        assert engine.pending == 0

    def test_pending_counts_block_remainders(self):
        engine = SimulationEngine(step_mode="batched")
        engine.schedule_block([1.0, 2.0, 3.0], lambda t: None)
        engine.schedule(0.5, lambda: None)
        assert engine.pending == 4
        engine.run_until(2.5)
        assert engine.pending == 1

    def test_event_mode_fallback_matches_batched(self):
        def run(mode):
            engine = SimulationEngine(step_mode=mode)
            log = []
            engine.schedule_block([0.5, 1.5, 2.5], log.append)
            engine.run_until(10.0)
            return log, engine.events_executed

        assert run("event") == run("batched")

    def test_vectorized_handler_gets_the_whole_run(self):
        engine = SimulationEngine(step_mode="batched")
        calls = []
        engine.schedule_block(
            [1.0, 2.0, 3.0], lambda times: calls.append(times.tolist()), vectorized=True
        )
        engine.run_until(10.0)
        assert calls == [[1.0, 2.0, 3.0]]
        assert engine.events_executed == 3
        assert engine.batches_executed == 1

    def test_heap_event_splits_a_vectorized_run(self):
        engine = SimulationEngine(step_mode="batched")
        log = []
        engine.schedule_block(
            [1.0, 2.0, 3.0], lambda times: log.append(tuple(times.tolist())), vectorized=True
        )
        engine.schedule(2.5, lambda: log.append("cb"))
        engine.run_until(10.0)
        assert log == [(1.0, 2.0), "cb", (3.0,)]

    def test_handler_scheduling_work_invalidates_the_run(self):
        """A per-event handler that schedules new work re-enters the merge."""
        engine = SimulationEngine(step_mode="batched")
        log = []

        def handler(t):
            log.append(("blk", t))
            if t == 1.0:
                engine.schedule(0.5, lambda: log.append(("cb", engine.now)))

        engine.schedule_block([1.0, 2.0, 3.0], handler)
        engine.run_until(10.0)
        assert log == [("blk", 1.0), ("cb", 1.5), ("blk", 2.0), ("blk", 3.0)]

    def test_max_events_budget_respected(self):
        engine = SimulationEngine(step_mode="batched")
        count = [0]
        engine.schedule_block(
            [0.5, 1.0, 1.5, 2.0], lambda t: count.__setitem__(0, count[0] + 1)
        )
        engine.run_until(10.0, max_events=2)
        assert count[0] == 2
        assert engine.pending == 2


class TestMergedStepping:
    def test_step_works_in_batched_mode(self):
        engine = SimulationEngine(step_mode="batched")
        log = []
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule_block([0.5], lambda t: log.append("blk"))
        assert engine.step() and engine.step()
        assert not engine.step()
        assert log == ["blk", "a"]

    def test_peek_time_merges_sources(self):
        engine = SimulationEngine(step_mode="batched")
        engine.schedule(2.0, lambda: None)
        engine.schedule_block([1.0], lambda t: None)
        assert engine.peek_time() == 1.0

    def test_cancelled_events_are_skipped(self):
        engine = SimulationEngine(step_mode="batched")
        log = []
        doomed = engine.schedule(1.0, lambda: log.append("doomed"))
        engine.schedule(2.0, lambda: log.append("kept"))
        doomed.cancel()
        engine.run_until(10.0)
        assert log == ["kept"]
        assert engine.events_executed == 1


class TestRngBlocks:
    def test_exponential_block_matches_scalar_draws(self):
        """next(scale) == generator.exponential(scale), same bits."""
        block = ExponentialBlock(np.random.Generator(np.random.PCG64(5)), block=8)
        scalar = np.random.Generator(np.random.PCG64(5))
        for i in range(30):  # crosses three refills
            scale = 0.25 + 0.1 * i
            assert block.next(scale) == scalar.exponential(scale)
        assert block.refills == 4

    def test_uniform_block_matches_scalar_draws(self):
        block = UniformBlock(np.random.Generator(np.random.PCG64(9)), block=8)
        scalar = np.random.Generator(np.random.PCG64(9))
        for _ in range(30):
            assert block.next() == scalar.random()
        assert block.refills == 4

    def test_default_block_size(self):
        block = ExponentialBlock(np.random.Generator(np.random.PCG64(1)))
        assert block._block == DEFAULT_BLOCK


class TestWelfordMerge:
    def test_merge_equals_serial_stream(self):
        values = [0.5, 1.5, -2.0, 3.25, 0.0, 7.5, -1.25]
        serial = WelfordAccumulator()
        for v in values:
            serial.add(v)
        left, right = WelfordAccumulator(), WelfordAccumulator()
        for v in values[:3]:
            left.add(v)
        for v in values[3:]:
            right.add(v)
        left.merge(right)
        assert left.count == serial.count
        assert left.mean() == pytest.approx(serial.mean(), rel=1e-12)
        assert left.variance() == pytest.approx(serial.variance(), rel=1e-12)

    def test_merge_with_empty_sides(self):
        acc = WelfordAccumulator()
        acc.add(2.0)
        acc.merge(WelfordAccumulator())  # empty other: unchanged
        assert acc.count == 1 and acc.mean() == 2.0
        fresh = WelfordAccumulator()
        fresh.merge(acc)  # empty self: copies other
        assert fresh.count == 1 and fresh.mean() == 2.0
