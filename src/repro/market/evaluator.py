"""Caching bridge between sharing vectors and market quantities.

The game repeatedly asks "what is SC i's cost/utility if the sharing
vector is S?".  Answering requires a performance-model evaluation, which
is the expensive step — and crucially, the *performance* parameters
depend only on the sharing vector (and the SCs' rates), never on prices.
:class:`UtilityEvaluator` therefore caches performance parameters by
sharing vector, so an entire ``C^G/C^P`` sweep (which changes only
prices) reuses one set of model solutions.

Single-SC queries (``utility`` / ``cost``, the best-response objective)
additionally take a *target-indexed* path: they ask the model for SC
``i``'s parameters only (``evaluate_target``), which the hierarchical
approximate model answers with one chain rotation instead of all ``K``.
The contract ``evaluate_target(s, i) == evaluate(s)[i]`` makes the two
paths interchangeable; full-vector queries (``utilities`` / ``welfare``)
keep using ``evaluate`` so they populate the shared params cache.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._validation import check_in_range
from repro import obs
from repro.analysis import sanitize
from repro.core.small_cloud import FederationScenario
from repro.market.cost import BaselineMetrics, baseline_metrics, operating_cost
from repro.market.fairness import welfare
from repro.market.utility import utility as utility_fn
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams

#: Cache type mapping sharing vectors to per-SC performance parameters.
#: It lives in memory only; persistence belongs one layer down, in a
#: :class:`repro.runtime.cache.CachedModel` wrapped around the model, so
#: the evaluator's model calls and counts never depend on what is on disk.
ParamsCache = dict[tuple[int, ...], list[PerformanceParams]]


class UtilityEvaluator:
    """Evaluates costs, utilities, and welfare for sharing vectors.

    Args:
        scenario: the federation with its prices; sharing decisions in it
            are ignored (each query supplies a vector).
        model: any :class:`PerformanceModel`.
        gamma: the Eq. (2) utilization exponent, shared by all SCs (the
            paper fixes one gamma per experiment).
        params_cache: optional externally shared cache.  Pass the same
            mapping to evaluators with different prices to reuse model
            solutions across a price sweep.
    """

    def __init__(
        self,
        scenario: FederationScenario,
        model: PerformanceModel,
        gamma: float = 0.0,
        params_cache: ParamsCache | None = None,
    ) -> None:
        self.scenario = scenario
        self.model = model
        self.gamma = check_in_range(gamma, "gamma", 0.0, 1.0)
        self._cache: ParamsCache = params_cache if params_cache is not None else {}
        self._baselines: list[BaselineMetrics] = [
            baseline_metrics(cloud) for cloud in scenario
        ]
        self.evaluations = 0
        self.target_evaluations = 0
        self._target_cache: dict[tuple[tuple[int, ...], int], PerformanceParams] = {}

    def baseline(self, index: int) -> BaselineMetrics:
        """The no-sharing reference of SC ``index``."""
        return self._baselines[index]

    def params(self, sharing: Sequence[int]) -> list[PerformanceParams]:
        """Performance parameters for every SC under ``sharing`` (cached)."""
        key = tuple(int(s) for s in sharing)
        cached = self._cache.get(key)
        if cached is not None:
            obs.inc("market.params.hit")
            return cached
        params = self.model.evaluate(self.scenario.with_sharing(key))
        if sanitize.sanitize_enabled():
            for i, entry in enumerate(params):
                sanitize.check_params(entry, label=f"params[{key}][{i}]")
        self._cache[key] = params
        self.evaluations += 1
        obs.inc("market.params.solve")
        return params

    def params_target(
        self,
        sharing: Sequence[int],
        index: int,
    ) -> PerformanceParams:
        """Performance parameters of SC ``index`` only (cached).

        Uses :meth:`PerformanceModel.evaluate_target`, whose contract is
        ``evaluate_target(s, i) == evaluate(s)[i]`` — the hierarchical
        approximate model answers it with one chain rotation instead of
        all ``K``, which makes best-response scans (many single-SC
        queries over trial vectors) roughly ``K`` times cheaper.  A full
        cached vector is always preferred; target solves land in a
        separate per-``(vector, index)`` cache and are counted in
        ``target_evaluations``, not ``evaluations``.
        """
        key = tuple(int(s) for s in sharing)
        target = (key, int(index))
        if key in self._cache:
            result = self._cache[key][index]
            obs.inc("market.target.full_hit")
            return result
        if target in self._target_cache:
            result = self._target_cache[target]
            obs.inc("market.target.hit")
            return result
        params = self.model.evaluate_target(
            self.scenario.with_sharing(key),
            target=int(index),
        )
        if sanitize.sanitize_enabled():
            sanitize.check_params(params, label=f"params[{key}][{index}]")
        self._target_cache[target] = params
        self.target_evaluations += 1
        obs.inc("market.target.solve")
        return params

    def seed_target(
        self, sharing: Sequence[int], index: int, params: PerformanceParams
    ) -> bool:
        """Install a target solve computed elsewhere (a process-pool
        worker scoring a best-response candidate) into the target cache.

        The parameters must be exactly what :meth:`params_target` would
        have produced — workers run the same pure model, so this holds by
        construction.  First writer wins: if the entry is already cached
        (the parent solved it, or another worker returned the same
        vector), the seed is dropped and not counted, keeping
        ``target_evaluations`` equal to a serial run's count.

        Returns:
            ``True`` if the entry was inserted, ``False`` on a duplicate.
        """
        key = tuple(int(s) for s in sharing)
        target = (key, int(index))
        if key in self._cache or target in self._target_cache:
            obs.inc("market.target.seed_duplicate")
            return False
        self._target_cache[target] = params
        self.target_evaluations += 1
        obs.inc("market.target.seeded")
        return True

    def cost(self, sharing: Sequence[int], index: int) -> float:
        """``C_i^{S_i}`` (Eq. 1) for SC ``index`` under ``sharing``."""
        cloud = self.scenario[index].with_shared(int(sharing[index]))
        return operating_cost(cloud, self.params_target(sharing, index))

    def utility(self, sharing: Sequence[int], index: int) -> float:
        """``U_i^{S_i}`` (Eq. 2) for SC ``index`` under ``sharing``."""
        if sharing[index] == 0:
            return 0.0
        return self._utility_from(sharing, index, self.params_target(sharing, index))

    def _utility_from(
        self, sharing: Sequence[int], index: int, params: PerformanceParams
    ) -> float:
        base = self._baselines[index]
        cloud = self.scenario[index].with_shared(int(sharing[index]))
        return utility_fn(
            baseline_cost=base.cost,
            cost=operating_cost(cloud, params),
            baseline_utilization=base.utilization,
            utilization=params.utilization,
            gamma=self.gamma,
        )

    def utilities(self, sharing: Sequence[int]) -> list[float]:
        """All SCs' utilities under ``sharing``.

        Solves the full vector once (populating the shared params cache)
        rather than issuing one target query per SC.
        """
        params = self.params(sharing)
        values = [
            0.0 if sharing[i] == 0 else self._utility_from(sharing, i, params[i])
            for i in range(len(self.scenario))
        ]
        sanitize.check_utilities(values, label=f"utilities[{tuple(sharing)}]")
        return values

    def welfare(self, sharing: Sequence[int], alpha: float) -> float:
        """The Eq. (3) welfare of ``sharing`` at fairness level ``alpha``."""
        return welfare(alpha, list(sharing), self.utilities(sharing))

    @property
    def total_evaluations(self) -> int:
        """Full-vector plus single-SC model solves.

        The game layer reports this as its ``model_evaluations`` effort
        metric: a best-response trial costs one solve on either path, so
        the combined count stays comparable across configurations."""
        return self.evaluations + self.target_evaluations

    def cache_size(self) -> int:
        """Number of distinct sharing vectors evaluated so far."""
        return len(self._cache)
