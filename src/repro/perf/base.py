"""Common interface of all performance models.

A performance model maps a :class:`~repro.core.small_cloud.FederationScenario`
(which fixes the sharing vector ``S``) to per-SC
:class:`~repro.perf.params.PerformanceParams`.  The market game is written
against this interface, so the exact, approximate, pooled, and simulated
estimators are interchangeable.
"""

from __future__ import annotations

import abc

from repro.core.small_cloud import FederationScenario
from repro.perf.params import PerformanceParams


class PerformanceModel(abc.ABC):
    """Abstract estimator of federation performance parameters."""

    @property
    def has_target_path(self) -> bool:
        """Whether :meth:`evaluate_target` answers one SC more cheaply than
        a full :meth:`evaluate`.

        False here, where it projects a full solve.  A caller that caches
        solves (:class:`~repro.market.evaluator.UtilityEvaluator`) asks a
        model without a target path for full vectors only, so each sharing
        vector costs one solve whichever SC is queried first.
        """
        return False

    @abc.abstractmethod
    def evaluate(self, scenario: FederationScenario) -> list[PerformanceParams]:
        """Return one :class:`PerformanceParams` per SC, in scenario order."""

    def evaluate_target(
        self,
        scenario: FederationScenario,
        target: int,
    ) -> PerformanceParams:
        """Return the parameters of SC ``target`` only.

        The default evaluates everything and projects; subclasses that can
        evaluate a single SC more cheaply (the hierarchical approximate
        model) override this.

        Args:
            scenario: the federation (sharing vector included).
            target: index of the SC of interest.
        """
        return self.evaluate(scenario)[target]
