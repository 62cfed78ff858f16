"""Performance models of the SC federation (Sect. III).

Four interchangeable estimators of the per-SC performance parameters
``(Ibar, Obar, Pbar, rho)`` that feed the cost function (Eq. 1):

- :class:`~repro.perf.detailed.DetailedModel` — the exact CTMC ``M``
  of Sect. III-B (exponential in K; small federations only).
- :class:`~repro.perf.approximate.ApproximateModel` — the hierarchical
  chain ``M^1..M^K`` of Sect. III-C (linear in K).
- :class:`~repro.perf.pooled.PooledModel` — a fast fixed-point overflow
  approximation (this reproduction's addition, used for large market
  sweeps and as an ablation baseline).
- :class:`~repro.perf.simulation.SimulationModel` — an adapter over the
  discrete-event simulator (ground truth, stochastic).
"""

from repro.perf.approximate import ApproximateModel
from repro.perf.base import PerformanceModel
from repro.perf.detailed import DetailedModel
from repro.perf.params import PerformanceParams
from repro.perf.pooled import PooledModel
from repro.perf.simulation import SimulationModel

__all__ = [
    "ApproximateModel",
    "DetailedModel",
    "PerformanceModel",
    "PerformanceParams",
    "PooledModel",
    "SimulationModel",
]
