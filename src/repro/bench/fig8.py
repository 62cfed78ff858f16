"""Fig. 8: computational overhead of the two models.

- 8a: wall-clock time of one approximate-model target evaluation as the
  federation grows from 2 to 10 SCs (each with 10 VMs, sharing 2).  The
  paper's claim is the *growth shape*: the hierarchy scales (roughly
  linearly in K through the pool size) where the exact chain explodes.
- 8b: rounds of Algorithm 1 until equilibrium as the number of SCs grows
  (2–8) and as the Tabu search distance varies.  The paper's claim:
  iterations *decrease* with more SCs (each decision change matters less
  in a bigger federation) and the search distance matters more in small
  federations.

Absolute times are machine-specific (the substitution table in DESIGN.md);
the shapes are what :func:`check_8a` and :func:`check_8b` verify.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.scenarios import fig8_game_scenario, fig8_perf_scenario
from repro.bench.tables import render_table
from repro.core.framework import SCShare
from repro.game.tabu import TabuSearch
from repro.perf.approximate import ApproximateModel
from repro.perf.base import PerformanceModel
from repro.perf.pooled import PooledModel
from repro.runtime.cache import cached_model

if TYPE_CHECKING:
    from repro.runtime.executor import Executor


@dataclass(frozen=True)
class Fig8aRow:
    """Approximate-model cost at one federation size."""

    n_clouds: int
    states: int
    seconds: float


@dataclass(frozen=True)
class Fig8bRow:
    """Game convergence at one federation size / search distance."""

    n_clouds: int
    tabu_distance: int
    iterations: int
    converged: bool
    model_evaluations: int


def run_fig8a(sizes: tuple[int, ...] = (2, 3, 4, 6, 8, 10)) -> list[Fig8aRow]:
    """Time one target evaluation of the approximate model per size."""
    rows = []
    for k in sizes:
        scenario = fig8_perf_scenario(k)
        model = ApproximateModel()
        start = time.perf_counter()
        level = model._build_chain(scenario)  # noqa: SLF001 - measured on purpose
        elapsed = time.perf_counter() - start
        rows.append(
            Fig8aRow(n_clouds=k, states=len(level.space), seconds=elapsed)
        )
    return rows


def run_fig8b(
    sizes: tuple[int, ...] = (2, 3, 4, 6, 8),
    tabu_distances: tuple[int, ...] = (1, 2, 4),
    gamma: float = 0.0,
    price_ratio: float = 0.5,
    vms: int = 20,
    model: PerformanceModel | None = None,
    executor: "Executor | None" = None,
    cache_dir: str | Path | None = None,
) -> list[Fig8bRow]:
    """Measure game rounds to equilibrium per federation size.

    Each search-distance run has its own evaluator and params cache, so
    a row's "model evals" counts every solve its game needs, whichever
    distances ran before it.  With ``cache_dir`` the model sits behind
    the persistent :class:`~repro.runtime.cache.CachedModel`, which
    changes only how fast the rows appear, never their counts.
    """
    model = cached_model(model if model is not None else PooledModel(), cache_dir)
    rows = []
    for k in sizes:
        scenario = fig8_game_scenario(k, vms=vms).with_price_ratio(price_ratio)
        for distance in tabu_distances:
            runner = SCShare(
                scenario,
                model=model,
                gamma=gamma,
                best_response="tabu",
                tabu=TabuSearch(distance=distance),
                executor=executor,
            )
            result = runner.game.run()
            rows.append(
                Fig8bRow(
                    n_clouds=k,
                    tabu_distance=distance,
                    iterations=result.iterations,
                    converged=result.converged,
                    model_evaluations=result.model_evaluations,
                )
            )
    return rows


def render_8a(rows: list[Fig8aRow]) -> str:
    """Render the Fig. 8a timing table."""
    return render_table(
        ["K", "target chain states", "seconds"],
        [(r.n_clouds, r.states, r.seconds) for r in rows],
        title="Fig. 8a — approximate model computation time vs federation size",
    )


def render_8b(rows: list[Fig8bRow]) -> str:
    """Render the Fig. 8b convergence table."""
    return render_table(
        ["K", "tabu distance", "iterations", "converged", "model evals"],
        [
            (r.n_clouds, r.tabu_distance, r.iterations, r.converged, r.model_evaluations)
            for r in rows
        ],
        title="Fig. 8b — game iterations to equilibrium vs federation size",
    )


def check_8a(rows: Sequence[Fig8aRow]) -> list[str]:
    """Fig. 8a violations: the target chain's states grow with K; each size solves in < 300 s."""
    problems = []
    states = [r.states for r in rows]
    if states != sorted(states):
        problems.append("8a: target chain states do not grow with K")
    for r in rows:
        if r.seconds >= 300.0:
            problems.append(f"8a K={r.n_clouds}: {r.seconds:.1f} s >= 300 s")
    return problems


def check_8b(rows: Sequence[Fig8bRow]) -> list[str]:
    """Fig. 8b violations: every game converges, and at each search distance the
    largest K needs at most 2 rounds more than the smallest (the paper: rounds
    shrink as each decision matters less)."""
    problems = []
    by_distance: dict[int, list[Fig8bRow]] = {}
    for r in rows:
        by_distance.setdefault(r.tabu_distance, []).append(r)
        if not r.converged:
            problems.append(f"8b K={r.n_clouds} distance {r.tabu_distance}: not converged")
    for distance, group in by_distance.items():
        group.sort(key=lambda r: r.n_clouds)
        if group[-1].iterations > group[0].iterations + 2:
            problems.append(f"8b distance {distance}: rounds grew with K")
    return problems
