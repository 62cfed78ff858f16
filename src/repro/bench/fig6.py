"""Fig. 6: approximate-model validation (Ibar, Obar) against ground truth.

Three scenario families, as in the paper:

- 6a/6b: a 2-SC federation (fixed SC: lambda=7, S=5; target SC shares 1
  or 9) swept over the target's load.  Ground truth: the exact detailed
  CTMC (Sect. III-B).
- 6c/6d: a 10-SC federation (nine fixed SCs; target shares 1 or 5).
  Ground truth: the discrete-event simulator (the exact chain is far too
  large, exactly as the paper notes).
- 6e/6f: two 100-VM SCs sharing 10 each, the other SC at utilization 0.8
  or 0.9.  Ground truth: the simulator.

Each row reports the approximate and exact ``Ibar``/``Obar`` of the
target SC and the error of the *difference* ``Obar - Ibar`` (the
quantity the cost function consumes; the paper's headline accuracy claim
is about this difference).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.scenarios import (
    fig6_2sc_scenario,
    fig6_10sc_scenario,
    fig6_100vm_scenario,
)
from repro.bench.tables import render_table
from repro.core.small_cloud import FederationScenario
from repro.perf.approximate import ApproximateModel
from repro.perf.base import PerformanceModel
from repro.perf.detailed import DetailedModel
from repro.perf.params import PerformanceParams
from repro.perf.simulation import SimulationModel
from repro.runtime.cache import cached_model

if TYPE_CHECKING:
    from repro.runtime.executor import Executor


@dataclass(frozen=True)
class Fig6Row:
    """One validation point: the target SC under approx vs exact."""

    panel: str
    target_share: int
    target_rate: float
    approx: PerformanceParams
    exact: PerformanceParams

    @property
    def lent_error(self) -> float:
        """Relative error of ``Ibar``."""
        return _relative_error(self.approx.lent_mean, self.exact.lent_mean)

    @property
    def borrowed_error(self) -> float:
        """Relative error of ``Obar``."""
        return _relative_error(self.approx.borrowed_mean, self.exact.borrowed_mean)

    @property
    def net_error(self) -> float:
        """Error of ``Obar - Ibar``, normalized by the sharing traffic.

        The difference itself can be near zero when lending and borrowing
        balance, which would blow up a plain relative error; normalizing
        by the total exchanged traffic ``Ibar + Obar`` (the natural scale
        of the quantity) keeps the metric meaningful everywhere.
        """
        scale = max(self.exact.lent_mean + self.exact.borrowed_mean, 0.1)
        return abs(self.approx.net_borrowed - self.exact.net_borrowed) / scale


def _relative_error(estimate: float, truth: float) -> float:
    scale = max(abs(truth), 0.05)  # floor avoids exploding on ~zero truths
    return abs(estimate - truth) / scale


@dataclass(frozen=True)
class _RowTask:
    """One validation point as a picklable work unit.

    Rows are independent of each other, so a ``--workers N`` run ships
    them to a process pool; each worker solves its approximate chain and
    its ground-truth model, optionally through a shared on-disk cache.
    """

    panel: str
    target_share: int
    target_rate: float
    scenario: FederationScenario
    approx: PerformanceModel
    exact: PerformanceModel


def _evaluate_row(task: _RowTask) -> Fig6Row:
    return Fig6Row(
        panel=task.panel,
        target_share=task.target_share,
        target_rate=task.target_rate,
        approx=task.approx.evaluate_target(task.scenario),
        exact=task.exact.evaluate(task.scenario)[-1],
    )


def _run_rows(
    tasks: list[_RowTask], executor: "Executor | None"
) -> list[Fig6Row]:
    if executor is not None and executor.workers > 1 and len(tasks) > 1:
        return executor.map(_evaluate_row, tasks)
    return [_evaluate_row(task) for task in tasks]


def run_fig6_2sc(
    target_shares: tuple[int, ...] = (1, 9),
    target_rates: tuple[float, ...] = (5.0, 6.0, 7.0, 8.0),
    executor: "Executor | None" = None,
    cache_dir: str | Path | None = None,
) -> list[Fig6Row]:
    """Panels 6a/6b: 2 SCs, exact CTMC as ground truth."""
    approx = cached_model(ApproximateModel(), cache_dir)
    detailed = cached_model(DetailedModel(), cache_dir)
    tasks = [
        _RowTask(
            panel="2sc",
            target_share=share,
            target_rate=rate,
            scenario=fig6_2sc_scenario(target_share=share, target_rate=rate),
            approx=approx,
            exact=detailed,
        )
        for share in target_shares
        for rate in target_rates
    ]
    return _run_rows(tasks, executor)


def run_fig6_10sc(
    target_shares: tuple[int, ...] = (1, 5),
    target_rates: tuple[float, ...] = (5.0, 6.0, 7.0, 8.0),
    horizon: float = 100_000.0,
    seed: int = 6,
    executor: "Executor | None" = None,
    cache_dir: str | Path | None = None,
) -> list[Fig6Row]:
    """Panels 6c/6d: 10 SCs, simulation as ground truth."""
    simulation = cached_model(
        SimulationModel(horizon=horizon, warmup=horizon * 0.05, seed=seed), cache_dir
    )
    approx = cached_model(ApproximateModel(), cache_dir)
    tasks = [
        _RowTask(
            panel="10sc",
            target_share=share,
            target_rate=rate,
            scenario=fig6_10sc_scenario(target_share=share, target_rate=rate),
            approx=approx,
            exact=simulation,
        )
        for share in target_shares
        for rate in target_rates
    ]
    return _run_rows(tasks, executor)


def run_fig6_100vm(
    other_utilizations: tuple[float, ...] = (0.8, 0.9),
    target_rates: tuple[float, ...] = (60.0, 70.0, 80.0, 90.0),
    horizon: float = 20_000.0,
    seed: int = 66,
    executor: "Executor | None" = None,
    cache_dir: str | Path | None = None,
) -> list[Fig6Row]:
    """Panels 6e/6f: two 100-VM SCs, simulation as ground truth."""
    simulation = cached_model(
        SimulationModel(horizon=horizon, warmup=horizon * 0.05, seed=seed), cache_dir
    )
    approx = cached_model(ApproximateModel(), cache_dir)
    tasks = [
        _RowTask(
            panel=f"100vm(rho={other_util})",
            target_share=10,
            target_rate=rate,
            scenario=fig6_100vm_scenario(
                other_rate=other_util * 100.0, target_rate=rate
            ),
            approx=approx,
            exact=simulation,
        )
        for other_util in other_utilizations
        for rate in target_rates
    ]
    return _run_rows(tasks, executor)


def render(rows: list[Fig6Row]) -> str:
    """Render the Fig. 6 validation table."""
    return render_table(
        [
            "panel",
            "S_tgt",
            "lambda",
            "I approx",
            "I exact",
            "O approx",
            "O exact",
            "err(O-I)",
        ],
        [
            (
                r.panel,
                r.target_share,
                r.target_rate,
                r.approx.lent_mean,
                r.exact.lent_mean,
                r.approx.borrowed_mean,
                r.exact.borrowed_mean,
                r.net_error,
            )
            for r in rows
        ],
        title="Fig. 6 — approximate model vs ground truth (target SC)",
    )
