"""Tests for arrival processes."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workload.arrivals import MMPPProcess, PoissonProcess


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPoissonProcess:
    def test_mean_interarrival_matches_rate(self):
        process = PoissonProcess(rate=4.0, rng=rng())
        samples = [process.next_interarrival() for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(0.25, rel=0.05)

    def test_exponential_memoryless_cv(self):
        process = PoissonProcess(rate=2.0, rng=rng(1))
        samples = np.array([process.next_interarrival() for _ in range(20_000)])
        cv2 = samples.var() / samples.mean() ** 2
        assert cv2 == pytest.approx(1.0, abs=0.1)

    def test_mean_rate(self):
        assert PoissonProcess(3.0, rng()).mean_rate() == 3.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonProcess(0.0, rng())


def reference_interarrival(process):
    """The scalar sampling loop, reading the NumPy arrays on every draw."""
    elapsed = 0.0
    while True:
        rate = float(process.rates[process.phase])
        exit_rate = -float(process.generator[process.phase, process.phase])
        if exit_rate <= 0.0:
            if rate <= 0.0:
                raise ConfigurationError("absorbing MMPP phase with zero arrival rate")
            return elapsed + float(process._rng.exponential(1.0 / rate))
        total = rate + exit_rate
        step = float(process._rng.exponential(1.0 / total))
        elapsed += step
        if process._rng.random() < rate / total:
            return elapsed
        process._jump_phase()


class TestMMPPProcess:
    def two_phase(self, seed=0, rates=(1.0, 10.0), switch=1.0):
        generator = [[-switch, switch], [switch, -switch]]
        return MMPPProcess(rates, generator, rng(seed))

    def test_long_run_rate_matches_stationary_mix(self):
        process = self.two_phase(seed=2)
        expected = process.mean_rate()
        n = 30_000
        total_time = sum(process.next_interarrival() for _ in range(n))
        assert n / total_time == pytest.approx(expected, rel=0.05)

    def test_stationary_phases_uniform_for_symmetric_generator(self):
        process = self.two_phase()
        np.testing.assert_allclose(process.stationary_phases(), [0.5, 0.5], atol=1e-10)

    def test_degenerate_single_phase_is_poisson(self):
        process = MMPPProcess([5.0], [[0.0]], rng(3))
        samples = [process.next_interarrival() for _ in range(10_000)]
        assert np.mean(samples) == pytest.approx(0.2, rel=0.05)

    def test_burstier_than_poisson(self):
        # Slow switching between very different rates -> CV^2 > 1.
        process = MMPPProcess(
            [0.5, 20.0], [[-0.05, 0.05], [0.05, -0.05]], rng(4)
        )
        samples = np.array([process.next_interarrival() for _ in range(30_000)])
        cv2 = samples.var() / samples.mean() ** 2
        assert cv2 > 1.5

    def test_generator_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MMPPProcess([1.0, 2.0], [[-1.0, 1.0]], rng())

    def test_bad_row_sums_rejected(self):
        with pytest.raises(ConfigurationError):
            MMPPProcess([1.0, 2.0], [[-1.0, 2.0], [1.0, -1.0]], rng())

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            MMPPProcess([0.0, 0.0], [[-1.0, 1.0], [1.0, -1.0]], rng())

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(ConfigurationError):
            MMPPProcess([1.0, 1.0], [[1.0, -1.0], [1.0, -1.0]], rng())

    def test_draws_equal_the_scalar_reference_loop(self):
        rates = (0.5, 4.0, 12.0)
        generator = [[-0.9, 0.6, 0.3], [0.4, -1.0, 0.6], [1.5, 0.5, -2.0]]
        process = MMPPProcess(rates, generator, rng(21))
        reference = MMPPProcess(rates, generator, rng(21))
        phases = set()
        for _ in range(2_000):
            value = process.next_interarrival()
            assert type(value) is float
            assert value == reference_interarrival(reference)
            assert process.phase == reference.phase
            phases.add(process.phase)
        assert phases == {0, 1, 2}

    def test_absorbing_phase_equals_the_scalar_reference_loop(self):
        # Phase 0 leaves for the absorbing phase 1 and never returns.
        rates = (3.0, 0.7)
        generator = [[-0.8, 0.8], [0.0, 0.0]]
        process = MMPPProcess(rates, generator, rng(22))
        reference = MMPPProcess(rates, generator, rng(22))
        for _ in range(200):
            assert process.next_interarrival() == reference_interarrival(reference)
        assert process.phase == reference.phase == 1

    def test_absorbing_phase_without_arrivals_raises(self):
        process = MMPPProcess([2.0, 0.0], [[-1.0, 1.0], [0.0, 0.0]], rng(23))
        with pytest.raises(ConfigurationError, match="absorbing"):
            for _ in range(100):
                process.next_interarrival()
