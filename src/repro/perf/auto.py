"""Budget-driven hybrid model selection (the ``auto`` tier).

Large-K market sweeps should never pay for precision the market loop
does not need: a federation whose no-sharing/full-pooling bracket
(:mod:`repro.perf.bounds`) is already narrower than the caller's error
budget cannot be mispriced by more than that bracket no matter how
crude the estimator, while a 2-SC validation scenario under a tight
budget deserves the exact CTMC.  :class:`AutoModel` encodes exactly
that triage as a deterministic, content-pure function of the scenario:

- **pooled** — when the bracket width relative to the no-sharing
  forwarding level is within the budget, sharing cannot move the
  forwarding observables by more than the tolerated error; the
  fixed-point :class:`~repro.perf.pooled.PooledModel` (whose error is
  bounded by the same bracket) is sufficient.
- **detailed** — when the budget is tighter than the hierarchical
  model's validated accuracy floor (about 1%, the paper's Fig. 6
  comparison against the exact CTMC) *and* the federation is small
  enough for the exponential state space, the exact
  :class:`~repro.perf.detailed.DetailedModel` answers.
- **approximate** — everything else: the linear-in-K hierarchical chain
  (:class:`~repro.perf.approximate.ApproximateModel`), the paper's
  workhorse.

Selection depends only on the scenario's performance-relevant content
(rates, capacities, SLAs, sharing totals) and the declared budget —
never on wall-clock, environment, or evaluation history — so a sweep
re-run anywhere reproduces the same tier per query, and the per-query
choice is observable through the ``perf.auto.*`` counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro._validation import check_positive, check_positive_int, require
from repro.core.small_cloud import FederationScenario
from repro.perf.base import PerformanceModel
from repro.perf.bounds import forwarding_bounds
from repro.perf.params import PerformanceParams

if TYPE_CHECKING:
    from repro.runtime.executor import Executor

#: Validated relative accuracy of the hierarchical approximate model
#: against the exact CTMC (paper Sect. V-A / Fig. 6: within ~1% on the
#: forwarding observables across the validation scenarios).  Budgets
#: tighter than this floor escalate to the detailed model when feasible.
APPROXIMATE_ACCURACY_FLOOR = 0.01

#: Forwarding scale below which the bracket test degenerates (nothing to
#: forward means nothing to misprice); treated as "pooled suffices".
_NEGLIGIBLE_FORWARDING = 1e-12

#: Pre-built per-tier metric names: _pick runs once per model query, and
#: an f-string there formats eagerly even with metrics disabled.
_TIER_METRICS = {
    name: f"perf.auto.{name}" for name in ("pooled", "approximate", "detailed")
}


@dataclass(frozen=True)
class ErrorBudget:
    """A declared error-vs-cost tolerance for model selection.

    Attributes:
        relative_error: tolerated relative error on the forwarding-scale
            observables (the quantities Eq. 1 prices).  The default of
            2% sits between the approximate model's validated ~1% floor
            and the coarse bracket screen, so the default budget selects
            the paper's approximate model except where the bracket test
            proves pooled is enough.
        detailed_max_k: largest federation the exact CTMC may be asked
            to solve (its state space is exponential in K; the paper
            uses it for 2–3 SCs).
        detailed_max_pool: largest federation-wide shared total for the
            exact CTMC (the who-serves-whom matrix blows up with the
            pool, independently of K).
    """

    relative_error: float = 0.02
    detailed_max_k: int = 3
    detailed_max_pool: int = 6

    def __post_init__(self) -> None:
        check_positive(self.relative_error, "relative_error")
        check_positive_int(self.detailed_max_k, "detailed_max_k")
        check_positive_int(self.detailed_max_pool, "detailed_max_pool")


class AutoModel(PerformanceModel):
    """Hybrid performance model: picks a tier per query from the budget.

    Args:
        budget: the declared :class:`ErrorBudget` (defaults are
            calibrated for market sweeps: approximate unless provably
            unnecessary or insufficient).
        executor: optional executor handed to the approximate tier's
            rotation parallelism.
        detailed, approximate, pooled: optional pre-configured tier
            models; defaults are constructed lazily with each tier's
            default configuration.  When this model fronts a persistent
            params cache, keep the defaults — the cache fingerprints
            this model's public scalars (budget terms), not the
            sub-models' internals.
    """

    def __init__(
        self,
        budget: ErrorBudget | None = None,
        executor: "Executor | None" = None,
        detailed: PerformanceModel | None = None,
        approximate: PerformanceModel | None = None,
        pooled: PerformanceModel | None = None,
    ) -> None:
        budget = budget if budget is not None else ErrorBudget()
        require(
            isinstance(budget, ErrorBudget),
            f"budget must be an ErrorBudget, got {type(budget).__name__}",
        )
        self.budget = budget
        # Budget terms mirrored as public scalars: the disk cache's
        # model fingerprint collects exactly these.
        self.relative_error = budget.relative_error  # fingerprint via model_fingerprint
        self.detailed_max_k = budget.detailed_max_k  # fingerprint via model_fingerprint
        self.detailed_max_pool = budget.detailed_max_pool  # fingerprint via model_fingerprint
        self._executor = executor
        self._detailed = detailed
        self._approximate = approximate
        self._pooled = pooled
        self._counts = {"pooled": 0, "approximate": 0, "detailed": 0}  # guarded-by: _counts_lock
        self._counts_lock = threading.Lock()

    # -- pickling: drop the lock (executors ship model copies) ---------- #

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        del state["_counts_lock"]
        state["_counts"] = dict.fromkeys(self._counts, 0)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # tier selection
    # ------------------------------------------------------------------ #

    def select(self, scenario: FederationScenario) -> str:
        """The tier (``"pooled"`` / ``"approximate"`` / ``"detailed"``)
        this budget picks for ``scenario`` — pure and deterministic."""
        bounds = forwarding_bounds(scenario)
        if bounds.upper <= _NEGLIGIBLE_FORWARDING:
            return "pooled"
        if bounds.width / bounds.upper <= self.budget.relative_error:
            return "pooled"
        if (
            self.budget.relative_error < APPROXIMATE_ACCURACY_FLOOR
            and len(scenario) <= self.budget.detailed_max_k
            and scenario.total_shared() <= self.budget.detailed_max_pool
        ):
            return "detailed"
        return "approximate"

    def _tier(self, name: str) -> PerformanceModel:
        if name == "pooled":
            if self._pooled is None:
                from repro.perf.pooled import PooledModel

                self._pooled = PooledModel()
            return self._pooled
        if name == "detailed":
            if self._detailed is None:
                from repro.perf.detailed import DetailedModel

                self._detailed = DetailedModel()
            return self._detailed
        if self._approximate is None:
            from repro.perf.approximate import ApproximateModel

            self._approximate = ApproximateModel(executor=self._executor)
        return self._approximate

    def _pick(self, scenario: FederationScenario) -> tuple[str, PerformanceModel]:
        name = self.select(scenario)
        with self._counts_lock:
            self._counts[name] += 1
        obs.inc(_TIER_METRICS[name])
        return name, self._tier(name)

    def selection_counts(self) -> dict[str, int]:
        """How many queries each tier has answered so far."""
        with self._counts_lock:
            return dict(self._counts)

    # ------------------------------------------------------------------ #
    # PerformanceModel interface
    # ------------------------------------------------------------------ #

    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        name, model = self._pick(scenario)
        with obs.span("perf.auto.evaluate", k=len(scenario), tier=name):
            return model.evaluate(scenario)

    def evaluate_target(
        self,
        scenario: FederationScenario,
        target: int | None = None,
    ) -> PerformanceParams:
        name, model = self._pick(scenario)
        index = len(scenario) - 1 if target is None else int(target)
        with obs.span("perf.auto.solve", k=len(scenario), tier=name):
            return model.evaluate_target(scenario, index)
