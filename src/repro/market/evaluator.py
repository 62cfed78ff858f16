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

import threading
from collections.abc import MutableMapping, Sequence

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
#: Plain dictionaries work; :class:`repro.runtime.cache.DiskParamsCache`
#: is a persistent drop-in that survives process restarts.  Persistent
#: implementations must key on content fingerprints only — the RPR3xx
#: dataflow lint (:mod:`repro.analysis.dataflow`) enforces that their
#: key-building functions omit no declared input and carry no
#: environment taint.
ParamsCache = MutableMapping[tuple[int, ...], list[PerformanceParams]]


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
        self._cache: ParamsCache = (  # guarded-by: _lock
            params_cache if params_cache is not None else {}
        )
        self._baselines: list[BaselineMetrics] = [
            baseline_metrics(cloud) for cloud in scenario
        ]
        # Concurrent callers (thread executors scoring candidates) must
        # solve each sharing vector exactly once, both to avoid wasted
        # work and to keep `evaluations` equal to a serial run's count.
        # The lock guards the caches and the pending tables; the
        # expensive model solve itself runs outside it.
        self.evaluations = 0  # guarded-by: _lock
        self.target_evaluations = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self._pending: dict[  # guarded-by: _lock
            tuple[int, ...], threading.Event
        ] = {}
        self._target_cache: dict[  # guarded-by: _lock
            tuple[tuple[int, ...], int], PerformanceParams
        ] = {}
        self._target_pending: dict[  # guarded-by: _lock
            tuple[tuple[int, ...], int], threading.Event
        ] = {}

    def baseline(self, index: int) -> BaselineMetrics:
        """The no-sharing reference of SC ``index``."""
        return self._baselines[index]

    def params(self, sharing: Sequence[int]) -> list[PerformanceParams]:
        """Performance parameters for every SC under ``sharing`` (cached).

        Safe to call from multiple threads: the first caller of an
        uncached vector solves it, later callers of the same vector wait
        for that solve instead of duplicating it.
        """
        key = tuple(int(s) for s in sharing)
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is None:
                    event = self._pending.get(key)
                    if event is None:
                        event = threading.Event()
                        self._pending[key] = event
                        owner = True
                    else:
                        owner = False
            if cached is not None:
                obs.inc("market.params.hit")
                return cached
            if not owner:
                obs.inc("market.params.dedup_wait")
                event.wait()
                continue  # the owner has published (or failed); re-check
            try:
                params = self.model.evaluate(self.scenario.with_sharing(key))
                if sanitize.sanitize_enabled():
                    for i, entry in enumerate(params):
                        sanitize.check_params(entry, label=f"params[{key}][{i}]")
                with self._lock:
                    self._cache[key] = params
                    self.evaluations += 1
                obs.inc("market.params.solve")
                return params
            finally:
                with self._lock:
                    self._pending.pop(key, None)
                event.set()

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
        while True:
            hit: str | None = None
            result: PerformanceParams | None = None
            with self._lock:
                if key in self._cache:
                    hit, result = "market.target.full_hit", self._cache[key][index]
                elif target in self._target_cache:
                    hit, result = "market.target.hit", self._target_cache[target]
                else:
                    event = self._target_pending.get(target)
                    if event is None:
                        event = threading.Event()
                        self._target_pending[target] = event
                        owner = True
                    else:
                        owner = False
            if hit is not None:
                obs.inc(hit)
                assert result is not None
                return result
            if not owner:
                obs.inc("market.target.dedup_wait")
                event.wait()
                continue  # the owner has published (or failed); re-check
            try:
                params = self.model.evaluate_target(
                    self.scenario.with_sharing(key),
                    target=int(index),
                )
                if sanitize.sanitize_enabled():
                    sanitize.check_params(params, label=f"params[{key}][{index}]")
                with self._lock:
                    self._target_cache[target] = params
                    self.target_evaluations += 1
                obs.inc("market.target.solve")
                return params
            finally:
                with self._lock:
                    self._target_pending.pop(target, None)
                event.set()

    def seed_target(
        self, sharing: Sequence[int], index: int, params: PerformanceParams
    ) -> bool:
        """Install a target solve computed elsewhere (a process-pool
        worker scoring a best-response candidate) into the target cache.

        The parameters must be exactly what :meth:`params_target` would
        have produced — workers run the same pure model, so this holds by
        construction.  First writer wins: if the entry is already cached
        (a thread worker sharing this evaluator already published it),
        the seed is dropped and not counted, keeping
        ``target_evaluations`` equal to a serial run's count.

        Returns:
            ``True`` if the entry was inserted, ``False`` on a duplicate.
        """
        key = tuple(int(s) for s in sharing)
        target = (key, int(index))
        with self._lock:
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

    # -- pickling: drop the lock and in-flight tables ------------------- #
    #
    # Executors pickle task payloads; a live lock or Event is unpicklable
    # and an in-flight pending table is meaningless in another process.
    # The solved caches *are* shipped (a dict of parameters pickles fine,
    # a DiskParamsCache ships as its root path + namespace), so a worker
    # copy starts warm and stays correct — it just stops sharing
    # single-flight discipline with the parent.

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        del state["_lock"]
        state["_pending"] = {}
        state["_target_pending"] = {}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def cache_info(self) -> dict[str, object]:
        """Cache effectiveness counters for logs and benchmarks.

        Combines this evaluator's params cache with the wrapped model's
        level-prefix cache statistics when the model exposes them (the
        approximate model does via ``level_cache_stats``)."""
        info: dict[str, object] = {
            "params_cache_size": len(self._cache),
            "target_cache_size": len(self._target_cache),
            "model_evaluations": self.evaluations,
            "target_evaluations": self.target_evaluations,
        }
        stats = getattr(self.model, "level_cache_stats", None)
        if callable(stats):
            info["level_cache"] = stats()
        return info
