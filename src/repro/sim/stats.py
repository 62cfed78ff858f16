"""Streaming statistics for simulation output analysis.

Two accumulators cover the simulator's needs (the federation simulator
integrates its time-weighted signals inline, see
:class:`repro.sim.federation._CloudState`):

- :class:`WelfordAccumulator` — numerically stable mean/variance of i.i.d.
  observations (waiting times).
- :class:`BatchMeans` — the classical batch-means method for confidence
  intervals on steady-state means from a single autocorrelated run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._validation import check_positive_int
from repro.exceptions import SimulationError

# Two-sided 95% normal quantile; batch counts are large enough (>= 10)
# that the normal approximation to the t distribution is adequate and we
# avoid a scipy.stats dependency in the hot path.
_Z_95 = 1.959963984540054


class WelfordAccumulator:
    """Streaming mean and variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance())


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean ± half_width``."""

    mean: float
    half_width: float

    @property
    def low(self) -> float:
        """Lower endpoint."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


class BatchMeans:
    """Batch-means confidence intervals for steady-state simulation output.

    Observations (one per batch, e.g. the time-weighted mean of a signal
    over each batch window) are assumed approximately i.i.d. normal, which
    holds for batch windows much longer than the process correlation time.
    """

    def __init__(self, min_batches: int = 10) -> None:
        self.min_batches = check_positive_int(min_batches, "min_batches")
        self._acc = WelfordAccumulator()

    def add_batch(self, batch_mean: float) -> None:
        """Record the mean of one batch."""
        self._acc.add(batch_mean)

    @property
    def n_batches(self) -> int:
        """Batches recorded so far."""
        return self._acc.count

    def interval(self) -> ConfidenceInterval:
        """95% confidence interval over batch means.

        Raises:
            SimulationError: with fewer than ``min_batches`` batches.
        """
        n = self._acc.count
        if n < self.min_batches:
            raise SimulationError(
                f"need at least {self.min_batches} batches, have {n}"
            )
        half = _Z_95 * self._acc.std() / math.sqrt(n)
        return ConfidenceInterval(mean=self._acc.mean(), half_width=half)
