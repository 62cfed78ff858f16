"""Fictitious play for the sharing game.

The paper's Algorithm 1 "adapts the concept of fictitious play" by
responding to observed past decisions.  This module implements the
textbook version (Brown 1951) as a comparison dynamic: each SC best
responds to the *empirical average* of every opponent's past sharing
decisions (rounded to the nearest feasible value), rather than only to
the previous round.  Time-averaging damps oscillations, so fictitious
play can settle games where plain best-response dynamics cycle.  No
benchmark runs it; the game tests (``tests/game/test_fictitious.py``)
compare it with Algorithm 1.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._validation import check_positive_int
from repro.exceptions import GameError
from repro.game.best_response import BestResponder
from repro.game.repeated_game import GameResult


class FictitiousPlay:
    """Fictitious-play runner with the same result type as Algorithm 1.

    Args:
        responder: the per-SC best-response engine.
        max_rounds: round budget.
        settle_rounds: the dynamic stops once the played profile has been
            identical for this many consecutive rounds.
    """

    def __init__(
        self,
        responder: BestResponder,
        max_rounds: int = 300,
        settle_rounds: int = 3,
    ) -> None:
        self.responder = responder
        self.max_rounds = check_positive_int(max_rounds, "max_rounds")
        self.settle_rounds = check_positive_int(settle_rounds, "settle_rounds")

    def _nearest(self, index: int, value: float) -> int:
        space = self.responder.strategy_spaces[index]
        return min(space, key=lambda s: (abs(s - value), s))

    def run(self, initial: Sequence[int] | None = None) -> GameResult:
        """Play fictitious play from ``initial`` (default: share nothing)."""
        evaluator = self.responder.evaluator
        k = len(evaluator.scenario)
        if initial is None:
            profile = [0] * k
        else:
            if len(initial) != k:
                raise GameError(f"initial profile must have {k} entries")
            profile = [int(s) for s in initial]
        start_evals = evaluator.total_evaluations
        sums = np.array(profile, dtype=float)
        plays = 1
        history: list[tuple[int, ...]] = [tuple(profile)]
        stable = 0

        for round_number in range(1, self.max_rounds + 1):
            beliefs = sums / plays
            belief_profile = [self._nearest(i, beliefs[i]) for i in range(k)]
            next_profile = []
            for i in range(k):
                view = list(belief_profile)
                view[i] = profile[i]
                next_profile.append(self.responder.respond(view, i)[0])
            next_profile = tuple(next_profile)
            history.append(next_profile)
            sums += np.array(next_profile, dtype=float)
            plays += 1
            if next_profile == tuple(profile):
                stable += 1
                if stable >= self.settle_rounds:
                    return GameResult(
                        equilibrium=next_profile,
                        utilities=tuple(evaluator.utilities(next_profile)),
                        iterations=round_number,
                        converged=True,
                        cycled=False,
                        history=tuple(history),
                        model_evaluations=evaluator.total_evaluations - start_evals,
                    )
            else:
                stable = 0
            profile = list(next_profile)

        final = tuple(profile)
        return GameResult(
            equilibrium=final,
            utilities=tuple(evaluator.utilities(final)),
            iterations=self.max_rounds,
            converged=False,
            cycled=False,
            history=tuple(history),
            model_evaluations=evaluator.total_evaluations - start_evals,
        )
