"""Tests for the streaming statistics accumulators."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim.stats import BatchMeans, WelfordAccumulator


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 2.0, size=1000)
        acc = WelfordAccumulator()
        for x in data:
            acc.add(float(x))
        assert acc.mean() == pytest.approx(data.mean())
        assert acc.variance() == pytest.approx(data.var(ddof=1))
        assert acc.std() == pytest.approx(data.std(ddof=1))

    def test_empty_accumulator(self):
        acc = WelfordAccumulator()
        assert acc.mean() == 0.0
        assert acc.variance() == 0.0

    def test_single_observation_has_zero_variance(self):
        acc = WelfordAccumulator()
        acc.add(3.0)
        assert acc.variance() == 0.0

    def test_catastrophic_cancellation_resistance(self):
        # Large offset + small variance: the naive sum-of-squares fails here.
        acc = WelfordAccumulator()
        offset = 1e9
        for x in (offset + 1.0, offset + 2.0, offset + 3.0):
            acc.add(x)
        assert acc.variance() == pytest.approx(1.0)


class TestBatchMeans:
    def test_interval_covers_true_mean(self):
        # Seed chosen so the 95% interval covers (7% of seeds legitimately
        # miss; this is a coverage sanity check, not a statistical test).
        rng = np.random.default_rng(0)
        bm = BatchMeans(min_batches=10)
        for _ in range(30):
            bm.add_batch(float(rng.normal(10.0, 1.0)))
        interval = bm.interval()
        assert interval.contains(10.0)
        assert interval.low < interval.mean < interval.high

    def test_too_few_batches_raises(self):
        bm = BatchMeans(min_batches=10)
        for _ in range(5):
            bm.add_batch(1.0)
        with pytest.raises(SimulationError):
            bm.interval()

    def test_half_width_shrinks_with_batches(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.0, 1.0, size=400)
        few = BatchMeans()
        for v in values[:20]:
            few.add_batch(float(v))
        many = BatchMeans()
        for v in values:
            many.add_batch(float(v))
        assert many.interval().half_width < few.interval().half_width

    def test_batch_counter(self):
        bm = BatchMeans()
        bm.add_batch(1.0)
        bm.add_batch(2.0)
        assert bm.n_batches == 2
