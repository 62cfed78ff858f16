"""Arrival processes for the federation simulator.

:class:`PoissonProcess` is the paper's base arrival model.
:class:`MMPPProcess` (Markov-modulated Poisson process) implements the
Sect. VII extension: the arrival rate is modulated by a background CTMC,
which lets experiments model diurnal or bursty demand while reusing the
same simulator.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._validation import check_positive, require
from repro.exceptions import ConfigurationError


class PoissonProcess:
    """A homogeneous Poisson process.

    Args:
        rate: arrival rate ``lambda`` (> 0).
        rng: a :class:`numpy.random.Generator`.
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = check_positive(rate, "rate")
        self._rng = rng

    def next_interarrival(self) -> float:
        """Sample the time until the next arrival."""
        return float(self._rng.exponential(1.0 / self.rate))

    def mean_rate(self) -> float:
        """Long-run arrival rate."""
        return self.rate


class MMPPProcess:
    """A Markov-modulated Poisson process.

    A background CTMC over phases ``0..m-1`` (with generator ``q``) selects
    the instantaneous arrival rate ``rates[phase]``.  Sampling uses
    competing exponentials: in each phase the sojourn and the next arrival
    race; phase changes resample the arrival clock (memorylessness makes
    this exact).

    Args:
        rates: per-phase arrival rates (all >= 0, at least one > 0).
        generator: dense ``m x m`` CTMC generator for the phase process.
        rng: a :class:`numpy.random.Generator`.
    """

    def __init__(
        self,
        rates: Sequence[float],
        generator: Sequence[Sequence[float]],
        rng: np.random.Generator,
    ) -> None:
        self.rates = np.asarray(rates, dtype=float)
        self.generator = np.asarray(generator, dtype=float)
        m = len(self.rates)
        require(m >= 1, "MMPP needs at least one phase")
        if self.generator.shape != (m, m):
            raise ConfigurationError(
                f"generator shape {self.generator.shape} does not match {m} phases"
            )
        if self.rates.min() < 0.0 or self.rates.max() <= 0.0:
            raise ConfigurationError("MMPP rates must be >= 0 with at least one > 0")
        off_diag = self.generator - np.diag(np.diag(self.generator))
        if off_diag.min() < 0.0:
            raise ConfigurationError("phase generator has negative off-diagonal rates")
        if np.abs(self.generator.sum(axis=1)).max() > 1e-9:
            raise ConfigurationError("phase generator rows must sum to zero")
        self._rng = rng
        self.phase = 0
        # Per-phase Python floats for the sampling loop: the same values
        # ``float(rates[p])`` and ``-float(generator[p, p])`` would read,
        # without a NumPy scalar conversion per draw.
        self._phase_rates: list[float] = self.rates.tolist()
        self._exit_rates: list[float] = [
            -float(self.generator[p, p]) for p in range(m)
        ]

    def _jump_phase(self) -> None:
        row = self.generator[self.phase].copy()
        row[self.phase] = 0.0
        total = row.sum()
        probs = row / total
        self.phase = int(self._rng.choice(len(row), p=probs))

    def next_interarrival(self) -> float:
        """Sample the time until the next arrival (advancing phases)."""
        rng = self._rng
        elapsed = 0.0
        while True:
            phase = self.phase
            rate = self._phase_rates[phase]
            exit_rate = self._exit_rates[phase]
            if exit_rate <= 0.0:
                if rate <= 0.0:
                    raise ConfigurationError(
                        "absorbing MMPP phase with zero arrival rate"
                    )
                return elapsed + float(rng.exponential(1.0 / rate))
            total = rate + exit_rate
            elapsed += float(rng.exponential(1.0 / total))
            if rng.random() < rate / total:
                return elapsed
            self._jump_phase()

    def stationary_phases(self) -> np.ndarray:
        """Stationary distribution of the phase CTMC."""
        from repro.markov.solvers import steady_state

        import scipy.sparse as sp

        return steady_state(sp.csr_matrix(self.generator))

    def mean_rate(self) -> float:
        """Long-run average arrival rate under the stationary phase mix."""
        return float(np.dot(self.stationary_phases(), self.rates))
