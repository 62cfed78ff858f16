"""Discrete-event simulation substrate.

Rebuilds the paper's C++ validation simulator in Python:

- :mod:`repro.sim.engine` — a generic discrete-event core: one list heap
  of callback and typed events.
- :mod:`repro.sim.rng` — reproducible independent random streams.
- :mod:`repro.sim.stats` — Welford accumulators and batch-means
  confidence intervals.
- :mod:`repro.sim.federation` — the federation simulator implementing the
  exact SC-Share sharing semantics (load-balanced lending, SLA-driven
  forwarding, owner-priority VM returns, no preemption).
- :mod:`repro.sim.failures` — scheduled failure injection (SC outages,
  limplock VMs, flash crowds) and the welfare-under-failure sweep.
- :mod:`repro.sim.trace` — event trace recording for debugging/replay.

The simulator draws its Poisson, exponential-service and SLA randomness
from pre-drawn RNG blocks that are bit-identical to scalar draws; the
test suite checks it event for event against a plain event-heap oracle.
"""

from repro.sim.engine import Event, SimulationEngine
from repro.sim.federation import FederationSimulator, SimulatedMetrics
from repro.sim.replications import ReplicatedMetrics, replicate
from repro.sim.rng import ExponentialBlock, RandomStreams, UniformBlock
from repro.sim.stats import BatchMeans, WelfordAccumulator

# repro.sim.failures exports resolve lazily so `python -m
# repro.sim.failures` does not find its target pre-imported by this
# package init (runpy would warn about unpredictable double execution).
_FAILURE_EXPORTS = ("FAILURE_KINDS", "FailureWindow", "validate_schedule")


def __getattr__(name: str):  # noqa: ANN202 - module-level lazy exports
    if name in _FAILURE_EXPORTS:
        from repro.sim import failures

        return getattr(failures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchMeans",
    "Event",
    "ExponentialBlock",
    "FAILURE_KINDS",
    "FailureWindow",
    "FederationSimulator",
    "RandomStreams",
    "ReplicatedMetrics",
    "replicate",
    "SimulatedMetrics",
    "SimulationEngine",
    "UniformBlock",
    "validate_schedule",
    "WelfordAccumulator",
]
