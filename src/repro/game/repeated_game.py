"""Algorithm 1: the repeated non-cooperative sharing game.

Round ``r``: every SC simultaneously computes a best response to the
profile of round ``r-1`` (the fictitious-play-style information structure
of the paper — SCs know the observed decisions, not each other's
utilities).  The game stops when the profile repeats exactly
(``S^(r) == S^(r-1)``), which is an empirical pure-strategy Nash
equilibrium by construction; cycles are detected and reported instead of
looping forever (the paper's settings always converged, but arbitrary
utilities need not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro import obs
from repro._validation import check_positive_int
from repro.exceptions import GameError
from repro.game.best_response import BestResponder


@dataclass(frozen=True)
class GameResult:
    """Outcome of one run of Algorithm 1.

    Attributes:
        equilibrium: the final sharing profile.
        utilities: per-SC utilities at that profile.
        iterations: rounds played until convergence (or cycle/budget stop).
        converged: whether a fixed point was reached.
        cycled: whether the dynamics entered a non-trivial cycle.
        history: profile per round, starting with the initial profile.
        model_evaluations: performance-model evaluations consumed.
    """

    equilibrium: tuple[int, ...]
    utilities: tuple[float, ...]
    iterations: int
    converged: bool
    cycled: bool
    history: tuple[tuple[int, ...], ...] = field(repr=False)
    model_evaluations: int = 0


class RepeatedGame:
    """Runner for Algorithm 1.

    Args:
        responder: the per-SC best-response engine.
        max_rounds: round budget before giving up.

    The round's K best responses run one after another in this process:
    they share the evaluator's in-memory caches, which cannot cross a
    process boundary.  The parallel work of a round is the candidate
    scoring inside each response (the responder's executor).
    """

    def __init__(self, responder: BestResponder, max_rounds: int = 200) -> None:
        self.responder = responder
        self.max_rounds = check_positive_int(max_rounds, "max_rounds")

    def run(self, initial: Sequence[int] | None = None) -> GameResult:
        """Play until convergence from ``initial`` (default: share nothing).

        On a cycle, the returned profile is the best-welfare profile of
        the cycle under the utilitarian metric (a deterministic,
        documented choice; callers that care should restart from other
        initial points, as the paper does).
        """
        evaluator = self.responder.evaluator
        k = len(evaluator.scenario)
        if initial is None:
            profile = tuple([0] * k)
        else:
            if len(initial) != k:
                raise GameError(f"initial profile must have {k} entries")
            profile = tuple(int(s) for s in initial)
        start_evals = evaluator.total_evaluations
        history: list[tuple[int, ...]] = [profile]
        seen: dict[tuple[int, ...], int] = {profile: 0}

        game_span = obs.span("game.run", k=k, max_rounds=self.max_rounds)
        with game_span:
            result = self._play(profile, history, seen, k, start_evals)
        game_span.set(
            rounds=result.iterations,
            converged=result.converged,
            cycled=result.cycled,
        )
        obs.inc("game.runs")
        obs.inc("game.rounds", result.iterations)
        return result

    def _play(
        self,
        profile: tuple[int, ...],
        history: list[tuple[int, ...]],
        seen: dict[tuple[int, ...], int],
        k: int,
        start_evals: int,
    ) -> GameResult:
        """The round loop of :meth:`run` (split out so the ``game.run``
        span can record the outcome after the result is known)."""
        evaluator = self.responder.evaluator
        for round_number in range(1, self.max_rounds + 1):
            with obs.span("game.round", round=round_number) as round_span:
                next_profile = tuple(
                    self.responder.respond(profile, i)[0] for i in range(k)
                )
                changed = sum(
                    1 for a, b in zip(profile, next_profile) if a != b
                )
                round_span.set(changed=changed)
                obs.inc("game.profile_changes", changed)
            history.append(next_profile)
            if next_profile == profile:
                return GameResult(
                    equilibrium=next_profile,
                    utilities=tuple(evaluator.utilities(next_profile)),
                    iterations=round_number,
                    converged=True,
                    cycled=False,
                    history=tuple(history),
                    model_evaluations=evaluator.total_evaluations - start_evals,
                )
            if next_profile in seen:
                cycle = history[seen[next_profile] :]
                best = max(
                    cycle,
                    key=lambda p: sum(
                        s * u for s, u in zip(p, evaluator.utilities(p))
                    ),
                )
                return GameResult(
                    equilibrium=best,
                    utilities=tuple(evaluator.utilities(best)),
                    iterations=round_number,
                    converged=False,
                    cycled=True,
                    history=tuple(history),
                    model_evaluations=evaluator.total_evaluations - start_evals,
                )
            seen[next_profile] = len(history) - 1
            profile = next_profile

        return GameResult(
            equilibrium=profile,
            utilities=tuple(evaluator.utilities(profile)),
            iterations=self.max_rounds,
            converged=False,
            cycled=False,
            history=tuple(history),
            model_evaluations=evaluator.total_evaluations - start_evals,
        )
