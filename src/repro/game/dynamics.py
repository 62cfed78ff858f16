"""Sequential (Gauss–Seidel) best-response dynamics.

Algorithm 1 updates all SCs *simultaneously* from the previous round's
profile.  The sequential variant lets each SC respond to the freshest
information — SCs move one at a time, each seeing the decisions already
made this round.  Sequential dynamics cannot cycle between two profiles
the way simultaneous ones can (each move weakly improves the mover's
utility against the current profile), so this is a robustness
fallback for games where Algorithm 1 cycles.  No benchmark runs it; the
game tests (``tests/game/test_dynamics.py``) compare it with Algorithm 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import obs
from repro._validation import check_positive_int
from repro.exceptions import GameError
from repro.game.best_response import BestResponder
from repro.game.repeated_game import GameResult


class SequentialGame:
    """Gauss–Seidel best-response runner with the Algorithm 1 result type.

    Args:
        responder: the per-SC best-response engine.
        max_rounds: full sweeps over all SCs before giving up.
    """

    def __init__(self, responder: BestResponder, max_rounds: int = 200) -> None:
        self.responder = responder
        self.max_rounds = check_positive_int(max_rounds, "max_rounds")

    def run(self, initial: Sequence[int] | None = None) -> GameResult:
        """Sweep SCs in order until a full sweep changes nothing."""
        evaluator = self.responder.evaluator
        k = len(evaluator.scenario)
        if initial is None:
            profile = [0] * k
        else:
            if len(initial) != k:
                raise GameError(f"initial profile must have {k} entries")
            profile = [int(s) for s in initial]
        start_evals = evaluator.total_evaluations
        history: list[tuple[int, ...]] = [tuple(profile)]

        for round_number in range(1, self.max_rounds + 1):
            with obs.span("game.round", round=round_number) as round_span:
                changed = False
                deltas = 0
                for i in range(k):
                    best, _utility = self.responder.respond(profile, i)
                    if best != profile[i]:
                        profile[i] = best
                        changed = True
                        deltas += 1
                round_span.set(changed=deltas)
                obs.inc("game.profile_changes", deltas)
            history.append(tuple(profile))
            if not changed:
                return GameResult(
                    equilibrium=tuple(profile),
                    utilities=tuple(evaluator.utilities(profile)),
                    iterations=round_number,
                    converged=True,
                    cycled=False,
                    history=tuple(history),
                    model_evaluations=evaluator.total_evaluations - start_evals,
                )

        return GameResult(
            equilibrium=tuple(profile),
            utilities=tuple(evaluator.utilities(profile)),
            iterations=self.max_rounds,
            converged=False,
            cycled=False,
            history=tuple(history),
            model_evaluations=evaluator.total_evaluations - start_evals,
        )
