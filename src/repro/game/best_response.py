"""Best responses in the sharing game.

A best response for SC i fixes every other SC's sharing decision and
maximizes SC i's utility (Eq. 2) over its own strategy space.  Two search
strategies are provided:

- ``exhaustive`` — evaluate every candidate (exact; fine for small SCs),
- ``tabu`` — the paper's Tabu-search heuristic (fewer evaluations on
  large strategy spaces; may return a local optimum, which the paper
  mitigates by restarting from different initial points).

Ties are broken toward the *current* decision first (so the dynamics
settle instead of oscillating between equivalent responses) and then
toward sharing less.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro import obs
from repro.exceptions import GameError
from repro.game.tabu import TabuSearch
from repro.market.evaluator import UtilityEvaluator

if TYPE_CHECKING:
    from repro.perf.params import PerformanceParams
    from repro.runtime.executor import Executor

_TIE_TOLERANCE = 1e-12


def _score_trial_task(
    task: "tuple[UtilityEvaluator, tuple[int, ...], int]",
) -> "tuple[float, PerformanceParams | None]":
    """Score one candidate sharing vector for one SC.

    Module-level (not a closure) so process executors can pickle it: the
    evaluator ships with its solved caches but without locks or pending
    tables, and the model solve is a pure function of the trial vector,
    so a worker returns exactly the floats a serial scan would.  The
    solved parameters ride back with the utility so the parent can seed
    its own cache (:meth:`UtilityEvaluator.seed_target`) instead of
    re-solving the winning candidate at move time.
    """
    evaluator, trial, index = task
    value = evaluator.utility(trial, index)
    params = evaluator.params_target(trial, index) if trial[index] != 0 else None
    return value, params


class BestResponder:
    """Computes per-SC best responses through a :class:`UtilityEvaluator`.

    Args:
        evaluator: the caching cost/utility evaluator.
        strategy_spaces: per-SC candidate sharing values.
        method: ``'exhaustive'`` or ``'tabu'``.
        tabu: optional configured :class:`TabuSearch` (defaults match the
            paper's small search distance).
        executor: optional executor used to score candidate sharing
            values concurrently (the exhaustive scan scores its whole
            space at once; Tabu scores each neighborhood).  Scoring is
            process-safe: parallel batches route through a picklable
            module-level task instead of a closure, so process pools
            genuinely fan out (they used to fall back to serial) and
            thread pools share the evaluator's single-flight caches.
            Either way results are identical to a serial scan — the
            model solve is a pure function of the trial vector.
    """

    def __init__(
        self,
        evaluator: UtilityEvaluator,
        strategy_spaces: Sequence[Sequence[int]],
        method: str = "exhaustive",
        tabu: TabuSearch | None = None,
        executor: "Executor | None" = None,
    ) -> None:
        if method not in ("exhaustive", "tabu"):
            raise GameError(f"unknown best-response method {method!r}")
        if len(strategy_spaces) != len(evaluator.scenario):
            raise GameError("one strategy space per SC is required")
        self.evaluator = evaluator
        self.strategy_spaces = [list(space) for space in strategy_spaces]
        self.method = method
        self.tabu = tabu if tabu is not None else TabuSearch()
        self.executor = executor
        # Metric name built once here: respond() is hot, and per-call
        # string concatenation formats eagerly even with metrics off.
        self._respond_metric = "game.best_response." + method

    def respond(self, sharing: Sequence[int], index: int) -> tuple[int, float]:
        """Best sharing value for SC ``index`` given the profile ``sharing``.

        Returns:
            ``(best_share, best_utility)``.
        """
        profile = list(int(s) for s in sharing)
        current = profile[index]

        def objective(candidate: int) -> float:
            trial = list(profile)
            trial[index] = candidate
            return self.evaluator.utility(trial, index)

        with obs.span("game.respond", sc=index, method=self.method):
            obs.inc(self._respond_metric)
            if self.method == "exhaustive":
                return self._exhaustive(objective, index, current, profile)
            best, best_obj, _evals = self.tabu.search(
                self.strategy_spaces[index],
                objective,
                start=current,
                executor=self.executor,
                scorer=self._batch_scorer(profile, index),
            )
            # Tie-break toward the incumbent: keep the current decision
            # if it is as good as the search result.
            if best != current and current in self.strategy_spaces[index]:
                if objective(current) >= best_obj - _TIE_TOLERANCE:
                    return current, objective(current)
            return best, best_obj

    def _batch_scorer(
        self, profile: list[int], index: int
    ) -> Callable[[list[int]], list[float]]:
        """A neighborhood scorer over candidate sharing values for SC
        ``index``, deviating from ``profile``.

        Serial (or single-candidate) batches score inline.  Parallel
        batches go through the picklable :func:`_score_trial_task`, which
        works on *every* executor kind: thread workers share this
        evaluator (single-flight dedup keeps counts serial-equal), while
        process workers solve on a shipped copy and the solved parameters
        are seeded back into the parent cache.  The historical process
        behavior was a silent serial fallback — the closure objective was
        unpicklable — so process-backed neighborhood scoring is where the
        per-Tabu-move parallelism actually comes from.
        """
        executor = self.executor

        def score(values: list[int]) -> list[float]:
            trials = []
            for value in values:
                trial = list(profile)
                trial[index] = int(value)
                trials.append(trial)
            if executor is None or executor.workers <= 1 or len(trials) <= 1:
                return [self.evaluator.utility(trial, index) for trial in trials]
            tasks = [(self.evaluator, tuple(trial), index) for trial in trials]
            results = obs.map_with_metrics(executor, _score_trial_task, tasks)
            scored: list[float] = []
            for trial, (value, params) in zip(trials, results):
                if params is not None:
                    self.evaluator.seed_target(trial, index, params)
                scored.append(value)
            return scored

        return score

    def _exhaustive(
        self,
        objective: Callable[[int], float],
        index: int,
        current: int,
        profile: list[int],
    ) -> tuple[int, float]:
        candidates = self.strategy_spaces[index]
        if self.executor is not None and self.executor.workers > 1 and len(candidates) > 1:
            values = self._batch_scorer(profile, index)([int(c) for c in candidates])
        else:
            values = [objective(candidate) for candidate in candidates]
        best_share: int | None = None
        best_utility = -1.0
        for candidate, value in zip(candidates, values):
            if value > best_utility + _TIE_TOLERANCE:
                best_utility = value
                best_share = candidate
            elif value >= best_utility - _TIE_TOLERANCE and best_share is not None:
                # Tie: prefer the incumbent, else the smaller share.
                if candidate == current and best_share != current:
                    best_share = candidate
        if best_share is None:
            raise GameError(f"SC {index} has an empty strategy space")
        return best_share, best_utility
