"""Tabu search over a discrete one-dimensional strategy set.

The paper (Sect. IV-B) uses Tabu search as its discrete substitute for a
Tâtonnement process: each SC searches its own sharing values for a best
response without gradients.  This implementation is the classic
short-term-memory variant: from the current point, evaluate the
neighborhood (all values within ``distance`` grid steps), move to the
best non-tabu neighbor (aspiration: a tabu move is allowed if it beats
the best value seen), and remember visited points for ``tenure`` moves.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from repro._validation import check_positive_int
from repro import obs
from repro.exceptions import GameError


class TabuSearch:
    """One-dimensional Tabu search.

    Args:
        distance: neighborhood radius in *grid positions* (the paper's
            "search distance").
        tenure: how many moves a visited point stays tabu.
        max_moves: iteration budget per :meth:`search` call.
    """

    def __init__(self, distance: int = 2, tenure: int = 5, max_moves: int = 100) -> None:
        self.distance = check_positive_int(distance, "distance")
        self.tenure = check_positive_int(tenure, "tenure")
        self.max_moves = check_positive_int(max_moves, "max_moves")

    def search(
        self,
        candidates: Sequence[int],
        objective: Callable[[int], float],
        start: int | None = None,
        scorer: "Callable[[list[int]], list[float]] | None" = None,
    ) -> tuple[int, float, int]:
        """Maximize ``objective`` over ``candidates``.

        Args:
            candidates: the (sorted or unsorted) strategy values.
            objective: maps a value to its utility.
            start: starting value (defaults to the first candidate).
            scorer: optional batch twin of ``objective``: maps a list of
                candidate values to their utilities, one call per
                neighborhood, scoring the not-yet-cached part of each
                neighborhood at once.  This is the one batch lane: the
                best responder hands in a scorer that ships picklable
                tasks to its executor.  The serial path scores the whole
                neighborhood anyway, so batch scoring changes neither the
                trajectory nor the evaluation count — the scorer must
                return exactly what ``objective`` would, in order.

        Returns:
            ``(best_value, best_objective, evaluations)``.
        """
        if not candidates:
            raise GameError("tabu search needs a non-empty candidate set")
        ordered = sorted(set(int(c) for c in candidates))
        positions = {value: idx for idx, value in enumerate(ordered)}
        if start is None:
            current_idx = 0
        else:
            if int(start) not in positions:
                # Snap to the nearest candidate.
                current_idx = min(
                    range(len(ordered)), key=lambda i: abs(ordered[i] - int(start))
                )
            else:
                current_idx = positions[int(start)]

        evaluations = 0
        value_cache: dict[int, float] = {}

        def evaluate(idx: int) -> float:
            nonlocal evaluations
            value = ordered[idx]
            if value not in value_cache:
                value_cache[value] = objective(value)
                evaluations += 1
            return value_cache[value]

        def prefetch(indices: list[int]) -> None:
            # Batch-score the uncached slice of a neighborhood; the
            # results land in the cache, so the scoring loop below finds
            # every value already computed.
            nonlocal evaluations
            missing = sorted(
                {ordered[idx] for idx in indices if ordered[idx] not in value_cache}
            )
            if not missing:
                return
            for value, result in zip(missing, scorer(missing)):
                value_cache[value] = result
                evaluations += 1

        best_idx = current_idx
        best_obj = evaluate(current_idx)
        tabu: deque[int] = deque(maxlen=self.tenure)
        tabu.append(current_idx)

        moves = 0
        for _ in range(self.max_moves):
            neighborhood = [
                idx
                for idx in range(
                    max(0, current_idx - self.distance),
                    min(len(ordered), current_idx + self.distance + 1),
                )
                if idx != current_idx
            ]
            if not neighborhood:
                break
            if scorer is not None:
                prefetch(neighborhood)
            scored = [(evaluate(idx), idx) for idx in neighborhood]
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            moved = False
            for obj, idx in scored:
                if idx in tabu and obj <= best_obj:
                    continue  # tabu and fails the aspiration criterion
                current_idx = idx
                tabu.append(idx)
                if obj > best_obj:
                    best_obj = obj
                    best_idx = idx
                moved = True
                moves += 1
                break
            if not moved:
                break  # whole neighborhood tabu and non-improving
            # Termination: if the neighborhood of the best point has been
            # fully explored without improvement, further moves only cycle.
            if len(value_cache) == len(ordered):
                break

        obs.inc("game.tabu.searches")
        obs.inc("game.tabu.moves", moves)
        obs.inc("game.tabu.evaluations", evaluations)
        return ordered[best_idx], best_obj, evaluations
