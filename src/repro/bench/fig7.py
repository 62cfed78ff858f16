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

:func:`check_shape` holds the paper's market claims, including a Nash
check of every reported equilibrium through the evaluator that scored it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.scenarios import fig7_scenario
from repro.bench.tables import render_table
from repro.core.framework import SCShare
from repro.game.equilibrium import is_nash_equilibrium
from repro.market.evaluator import UtilityEvaluator
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
    #: The evaluator and strategy spaces the game ran on, kept so that
    #: :func:`check_shape` can verify the equilibrium at this price.
    evaluator: UtilityEvaluator = field(compare=False, repr=False)
    strategy_spaces: Sequence[Sequence[int]] = field(compare=False, repr=False)

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
                evaluator=runner.evaluator,
                strategy_spaces=runner.strategy_spaces,
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
    """Check the paper's qualitative Fig. 7 claims; returns violations.

    Every panel: a federation forms, also at a low/middle price, and each
    equilibrium is a pure-strategy Nash point.  7a (UF0, spread loads):
    some price ratio in 0.2-0.6 sustains 3 shared VMs in total.  7b (UF1,
    spread): no SC shares more than 3 VMs (the paper: "only ~1 VM
    regardless of price").  7d (UF1, medium): a federation at some ratio
    up to 0.5.
    """
    problems = [
        f"C^G/C^P={r.price_ratio:g}: {r.equilibrium} is not a Nash equilibrium"
        for r in rows
        if not is_nash_equilibrium(r.evaluator, r.equilibrium, r.strategy_spaces)
    ]
    formed = [r for r in rows if r.federation_formed]
    if not formed:
        problems.append("the federation never forms at any price ratio")
        return problems
    # Sharing should not collapse in the low/middle price range.
    low_mid = [r for r in rows if 0.1 <= r.price_ratio <= 0.6]
    if low_mid and not any(r.federation_formed for r in low_mid):
        problems.append("no federation in the low/middle price range")
    loads, uf1 = rows[0].loads, rows[0].gamma > 0.0
    if loads == "spread" and not uf1:
        mid = [r for r in rows if 0.2 <= r.price_ratio <= 0.6]
        if mid and not any(sum(r.equilibrium) >= 3 for r in mid):
            problems.append("no mid-range price sustains 3 shared VMs")
    if loads == "spread" and uf1:
        for r in formed:
            if max(r.equilibrium) > 3:
                problems.append(f"C^G/C^P={r.price_ratio:g}: UF1 share {r.equilibrium} above 3")
    if loads == "medium" and uf1:
        low = [r for r in rows if r.price_ratio <= 0.5]
        if low and not any(r.federation_formed for r in low):
            problems.append("no UF1 federation at price ratios up to 0.5")
    return problems
