"""Unit tests for the engine's batched stepping machinery.

Covers the list-heap engine surface (typed events, stepping, counters)
and the pre-drawn RNG blocks' bit-identity with the scalar draws they
replace.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.rng import DEFAULT_BLOCK, ExponentialBlock, UniformBlock


class TestTypedEvents:
    def test_typed_event_without_dispatch_fails_loudly(self):
        engine = SimulationEngine()
        engine.schedule_typed(1.0, 0)
        with pytest.raises(SimulationError, match="typed_dispatch"):
            engine.run_until(10.0)

    def test_typed_dispatch_receives_code_and_payload(self):
        engine = SimulationEngine()
        seen = []
        engine.typed_dispatch = lambda code, a, b: seen.append((code, a, b))
        engine.schedule_typed(1.0, 7, 3, 9)
        engine.schedule_typed(0.5, 2)
        engine.run_until(10.0)
        assert seen == [(2, 0, 0), (7, 3, 9)]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule_typed(-1.0, 0)

    def test_typed_and_callback_events_share_the_total_order(self):
        engine = SimulationEngine()
        log = []
        engine.typed_dispatch = lambda code, a, b: log.append(("typed", code))
        engine.schedule(1.0, lambda: log.append(("cb", 0)), priority=1)
        engine.schedule_typed(1.0, 5, priority=0)  # same time, lower priority
        engine.run_until(2.0)
        assert log == [("typed", 5), ("cb", 0)]


class TestScheduleBlock:
    """A block of events scheduled up front, drained to a horizon."""

    def test_pending_counts_block_remainders(self):
        engine = SimulationEngine()
        for delay in (1.0, 2.0, 3.0):
            engine.schedule(delay, lambda: None)
        engine.schedule(0.5, lambda: None)
        assert engine.pending == 4
        engine.run_until(2.5)
        assert engine.pending == 1


class TestMergedStepping:
    def test_step_works_in_batched_mode(self):
        engine = SimulationEngine()
        log = []
        engine.typed_dispatch = lambda code, a, b: log.append("typed")
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule_typed(0.5, 0)
        assert engine.step() and engine.step()
        assert not engine.step()
        assert log == ["typed", "a"]
        assert engine.now == 1.0

    def test_cancelled_events_are_skipped(self):
        engine = SimulationEngine()
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

    @pytest.mark.parametrize("size", [1, 7, 512])
    def test_exponential_block_serves_python_floats_across_refills(self, size):
        block = ExponentialBlock(np.random.Generator(np.random.PCG64(11)), block=size)
        scalar = np.random.Generator(np.random.PCG64(11))
        for i in range(3 * size + 1):  # four blocks, the last one draw long
            scale = 0.5 + 0.01 * i
            value = block.next(scale)
            assert type(value) is float
            assert value == scalar.exponential(scale)
        assert block.refills == 4

    @pytest.mark.parametrize("size", [1, 7, 512])
    def test_uniform_block_serves_python_floats_across_refills(self, size):
        block = UniformBlock(np.random.Generator(np.random.PCG64(13)), block=size)
        scalar = np.random.Generator(np.random.PCG64(13))
        for _ in range(3 * size + 1):
            value = block.next()
            assert type(value) is float
            assert value == scalar.random()
        assert block.refills == 4

    def test_default_block_size(self):
        block = ExponentialBlock(np.random.Generator(np.random.PCG64(1)))
        assert block._block == DEFAULT_BLOCK
