"""The SC-Share framework: Fig. 2's feedback loop in one object.

:class:`SCShare` wires a performance model and the market game together:
sharing decisions flow into the performance model, the resulting
``(Ibar, Obar, Pbar, rho)`` feed the cost (Eq. 1) and utility (Eq. 2),
utilities drive the repeated game (Algorithm 1), and the game's new
sharing decisions loop back — iterating to a stable sharing vector.  The
framework also scores the outcome: welfare (Eq. 3) at the chosen fairness
level, the empirical social optimum, and the federation efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro._validation import check_in_range
from repro.analysis import sanitize
from repro.core.results import SharingDecisionResult
from repro.core.small_cloud import FederationScenario
from repro.game.best_response import BestResponder
from repro.game.repeated_game import GameResult, RepeatedGame
from repro.game.strategy import full_strategy_spaces
from repro.game.tabu import TabuSearch
from repro.market.cost import operating_cost
from repro.market.efficiency import federation_efficiency, social_optimum
from repro.market.evaluator import ParamsCache, UtilityEvaluator
from repro.perf.base import PerformanceModel
from repro.perf.pooled import PooledModel

if TYPE_CHECKING:
    from repro.runtime.executor import Executor


@dataclass(frozen=True)
class SCShareOutcome:
    """The full outcome of one SC-Share market run.

    Attributes:
        equilibrium: the converged sharing vector.
        game: the raw Algorithm 1 result.
        details: per-SC costs/utilities/performance at the equilibrium.
        welfare: Eq. (3) welfare of the equilibrium at ``alpha``.
        optimum_profile: the empirically market-efficient sharing vector.
        optimum_welfare: its welfare.
        efficiency: ``welfare / optimum_welfare`` with the degenerate-case
            conventions of :func:`repro.market.efficiency.federation_efficiency`.
        alpha: the fairness level used for scoring.
        gamma: the utility exponent used by all SCs.
    """

    equilibrium: tuple[int, ...]
    game: GameResult
    details: tuple[SharingDecisionResult, ...]
    welfare: float
    optimum_profile: tuple[int, ...]
    optimum_welfare: float
    efficiency: float
    alpha: float
    gamma: float


class SCShare:
    """End-to-end SC-Share runner.

    Args:
        scenario: the federation (prices included; initial sharing values
            are ignored — the game decides them).
        model: a performance model; defaults to the fast pooled model
            (use :class:`~repro.perf.approximate.ApproximateModel` for the
            paper-faithful hierarchy when runtime permits).
        gamma: the Eq. (2) exponent shared by all SCs (0 = UF0, 1 = UF1).
        strategy_step: sharing-grid step (1 = every value in ``[0, N_i]``).
        best_response: ``'exhaustive'`` or ``'tabu'``.
        tabu: optional Tabu-search configuration.
        max_rounds: game round budget.
        params_cache: optional shared performance cache (reused across
            price points of a sweep); wrap ``model`` in a
            :class:`repro.runtime.cache.CachedModel` to persist solves
            across runs.
        executor: optional :class:`repro.runtime.executor.Executor`
            driving the game's one parallel section, per-SC candidate
            scoring.  Process workers score candidates on shipped
            evaluator copies and the parent seeds their solves into its
            cache; the executor also drives an
            :class:`~repro.perf.approximate.ApproximateModel` configured
            with it.
    """

    def __init__(
        self,
        scenario: FederationScenario,
        model: PerformanceModel | None = None,
        gamma: float = 0.0,
        strategy_step: int = 1,
        best_response: str = "exhaustive",
        tabu: TabuSearch | None = None,
        max_rounds: int = 200,
        params_cache: ParamsCache | None = None,
        executor: "Executor | None" = None,
    ) -> None:
        self.scenario = scenario
        self.model = model if model is not None else PooledModel()
        self.gamma = check_in_range(gamma, "gamma", 0.0, 1.0)
        self.evaluator = UtilityEvaluator(
            scenario, self.model, gamma=self.gamma, params_cache=params_cache
        )
        self.strategy_spaces = full_strategy_spaces(scenario, step=strategy_step)
        self.responder = BestResponder(
            self.evaluator,
            self.strategy_spaces,
            method=best_response,
            tabu=tabu,
            executor=executor,
        )
        self.game = RepeatedGame(self.responder, max_rounds=max_rounds)

    def run(
        self,
        alpha: float = 0.0,
        initial: Sequence[int] | None = None,
        restarts: Sequence[Sequence[int]] = (),
        optimum_method: str = "auto",
    ) -> SCShareOutcome:
        """Run the game to equilibrium and score the market.

        Args:
            alpha: fairness level for welfare scoring.
            initial: initial sharing profile (default: no sharing).
            restarts: extra initial profiles; among all converged runs,
                the one with the best welfare at ``alpha`` is reported
                (the paper restarts Tabu search from different points and
                keeps the fairest equilibrium).
            optimum_method: passed to
                :func:`repro.market.efficiency.social_optimum`.
        """
        results = [self.game.run(initial)]
        for restart in restarts:
            results.append(self.game.run(restart))
        converged = [r for r in results if r.converged] or results
        best = max(
            converged, key=lambda r: self.evaluator.welfare(r.equilibrium, alpha)
        )
        achieved = self.evaluator.welfare(best.equilibrium, alpha)
        sanitize.check_finite(achieved, label="equilibrium welfare")
        optimum_profile, optimum_welfare = social_optimum(
            self.evaluator, alpha, self.strategy_spaces, method=optimum_method
        )
        sanitize.check_finite(optimum_welfare, label="optimum welfare")
        details = self._details(best.equilibrium)
        return SCShareOutcome(
            equilibrium=best.equilibrium,
            game=best,
            details=details,
            welfare=achieved,
            optimum_profile=optimum_profile,
            optimum_welfare=optimum_welfare,
            efficiency=federation_efficiency(achieved, optimum_welfare),
            alpha=alpha,
            gamma=self.gamma,
        )

    def _details(self, profile: tuple[int, ...]) -> tuple[SharingDecisionResult, ...]:
        params = self.evaluator.params(profile)
        rows = []
        for i, cloud in enumerate(self.scenario):
            base = self.evaluator.baseline(i)
            shared_cloud = cloud.with_shared(profile[i])
            rows.append(
                SharingDecisionResult(
                    name=cloud.name,
                    shared_vms=profile[i],
                    cost=operating_cost(shared_cloud, params[i]),
                    baseline_cost=base.cost,
                    utility=self.evaluator.utility(profile, i),
                    utilization=params[i].utilization,
                    baseline_utilization=base.utilization,
                    lent_mean=params[i].lent_mean,
                    borrowed_mean=params[i].borrowed_mean,
                    forward_rate=params[i].forward_rate,
                )
            )
        return tuple(rows)
