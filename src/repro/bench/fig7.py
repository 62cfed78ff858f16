"""Fig. 7: market outcomes vs the price ratio ``C^G/C^P``.

For each price ratio the harness runs the full SC-Share loop (Algorithm 1
to an equilibrium, then welfare scoring) and reports the federation
efficiency for the three fairness levels the paper plots (utilitarian,
proportional, max-min), for a chosen utility function (UF0 or UF1) and a
chosen load mix (Fig. 7a–7d).

Model note: the default performance model is the fast pooled estimator so
a full sweep finishes in minutes; pass ``model=ApproximateModel()`` for
the paper-faithful hierarchy (hours at strategy_step=1 — use a coarser
``strategy_step``).  Performance parameters are cached across the whole
sweep since they do not depend on prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.scenarios import fig7_scenario
from repro.bench.tables import render_table
from repro.core.framework import SCShare
from repro.market.fairness import ALPHA_MAX_MIN, ALPHA_PROPORTIONAL, ALPHA_UTILITARIAN
from repro.market.pricing import price_ratio_grid
from repro.perf.base import PerformanceModel
from repro.perf.pooled import PooledModel
from repro.runtime.cache import cached_model

if TYPE_CHECKING:
    from repro.runtime.executor import Executor

#: The three fairness curves of each Fig. 7 panel.
ALPHAS = {
    "utilitarian": ALPHA_UTILITARIAN,
    "proportional": ALPHA_PROPORTIONAL,
    "max-min": ALPHA_MAX_MIN,
}


@dataclass(frozen=True)
class Fig7Row:
    """Market outcome at one price ratio."""

    loads: str
    gamma: float
    price_ratio: float
    equilibrium: tuple[int, ...]
    iterations: int
    efficiency: dict[str, float]
    welfare: dict[str, float]

    @property
    def federation_formed(self) -> bool:
        """Whether anybody shares at equilibrium."""
        return any(s > 0 for s in self.equilibrium)


def run_fig7(
    loads: str = "spread",
    gamma: float = 0.0,
    ratios: list[float] | None = None,
    model: PerformanceModel | None = None,
    strategy_step: int = 1,
    restarts: tuple[tuple[int, ...], ...] = (),
    executor: "Executor | None" = None,
    cache_dir: str | Path | None = None,
) -> list[Fig7Row]:
    """Sweep the price ratio for one Fig. 7 panel.

    Args:
        loads: load-mix key (``'spread'``, ``'high'``, ``'medium'``).
        gamma: utility exponent (0 = UF0 as in 7a/7c, 1 = UF1 as in 7b/7d).
        ratios: price grid (default: the paper's (0, 1] spread).
        model: performance model (default: pooled).
        strategy_step: sharing-grid step.
        restarts: extra initial profiles per price point (the paper
            starts "arbitrarily" and restarts the search, keeping the
            fairest equilibrium).  Defaults to half-sharing and
            full-sharing starts — without them, best-response dynamics
            from the no-sharing profile can stall in the coordination
            trap where nobody shares because nobody else does.
        executor: optional executor for the game's parallel sections.
        cache_dir: optional directory for the persistent model cache
            (:class:`~repro.runtime.cache.CachedModel`); performance
            parameters are price-independent, so a populated cache
            serves later re-runs without a single fresh model solve.
    """
    from repro.market.efficiency import federation_efficiency, social_optimum

    base = fig7_scenario(loads)
    if ratios is None:
        ratios = price_ratio_grid(points=11)
    model = cached_model(model if model is not None else PooledModel(), cache_dir)
    params_cache: dict = {}
    rows = []
    for ratio in ratios:
        scenario = base.with_price_ratio(ratio)
        runner = SCShare(
            scenario,
            model=model,
            gamma=gamma,
            strategy_step=strategy_step,
            params_cache=params_cache,
            executor=executor,
        )
        if not restarts:
            restarts = (
                tuple(c.vms // 2 for c in scenario),
                tuple(c.vms for c in scenario),
            )
        # The equilibrium depends only on gamma and prices — not on the
        # welfare's alpha — so the game runs once per price point and the
        # three fairness curves are scored from the same equilibrium.
        results = [runner.game.run()]
        for restart in restarts:
            results.append(runner.game.run(restart))
        converged = [r for r in results if r.converged] or results
        efficiency: dict[str, float] = {}
        welfare: dict[str, float] = {}
        equilibrium: tuple[int, ...] = ()
        iterations = 0
        for name, alpha in ALPHAS.items():
            best = max(
                converged,
                key=lambda r: runner.evaluator.welfare(r.equilibrium, alpha),
            )
            achieved = runner.evaluator.welfare(best.equilibrium, alpha)
            _profile, optimum = social_optimum(
                runner.evaluator, alpha, runner.strategy_spaces, method="ascent"
            )
            efficiency[name] = federation_efficiency(achieved, optimum)
            welfare[name] = achieved
            equilibrium = best.equilibrium
            iterations = best.iterations
        rows.append(
            Fig7Row(
                loads=loads,
                gamma=gamma,
                price_ratio=ratio,
                equilibrium=equilibrium,
                iterations=iterations,
                efficiency=efficiency,
                welfare=welfare,
            )
        )
    return rows


def render(rows: list[Fig7Row]) -> str:
    """Render one Fig. 7 panel as the paper's three efficiency series."""
    return render_table(
        ["C^G/C^P", "equilibrium", "iters"] + list(ALPHAS),
        [
            (
                r.price_ratio,
                str(r.equilibrium),
                r.iterations,
                *(r.efficiency[name] for name in ALPHAS),
            )
            for r in rows
        ],
        title=(
            "Fig. 7 — federation efficiency vs price ratio "
            f"(loads={rows[0].loads}, gamma={rows[0].gamma})"
        ),
    )


def check_shape(rows: list[Fig7Row]) -> list[str]:
    """Check the paper's qualitative Fig. 7 claims; returns violations."""
    problems = []
    formed = [r for r in rows if r.federation_formed]
    if not formed:
        problems.append("the federation never forms at any price ratio")
        return problems
    # Sharing should not collapse in the low/middle price range.
    low_mid = [r for r in rows if 0.1 <= r.price_ratio <= 0.6]
    if low_mid and not any(r.federation_formed for r in low_mid):
        problems.append("no federation in the low/middle price range")
    return problems
