"""The figure driver: ``python -m repro.bench.runner <figure>``.

Regenerates one figure of the paper's evaluation (``fig5`` … ``fig8``),
the ablation and workload-extension tables (``ablations``), or
everything (``all``), and prints each table.  Under each table it prints
the ``SHAPE VIOLATIONS`` its harness's checks find against the paper's
claims; the exit status stays 0 either way, so a violation is a
verdict to read, not a crash.  ``--quick`` selects smaller figure grids
and shorter simulations for a smoke run; its Fig. 5 simulations still
run 8,000 time units, long enough for the model-vs-simulation band,
which both grids check.  The ablations have one grid.

``--workers N`` fans the independent work units (model rotations,
simulation points, game sections) out over N processes; ``--cache-dir``
persists every model solve so a repeated run (or a CI smoke job with a
warm cache) skips them entirely.  Both knobs change wall-clock only —
tables are byte-identical to a serial, uncached run.  Fig. 8a and the
ablations time or count their own solves, so they always run serial and
uncached.

``--trace`` / ``--metrics`` / ``--profile`` (shared with
``python -m repro``) capture a span tree, a metrics snapshot, or a
cProfile report of the whole benchmark run; they too leave every table
byte-identical.

Scenario-library entries run through ``python -m repro.scenarios run``
(or ``python -m repro solve NAME``), which expose the same flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.__main__ import add_obs_arguments, run_with_obs
from repro.analysis.sanitize import sanitize_enable
from repro.bench import ablations, fig5, fig6, fig7, fig8
from repro.runtime.executor import Executor, make_executor

_QUICK_RATIOS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _checked(table: str, problems: list[str]) -> str:
    """``table`` followed by its shape violations, if any."""
    if problems:
        return table + "\nSHAPE VIOLATIONS: " + "; ".join(problems)
    return table


def _run_fig5(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    rows = fig5.run_fig5(
        utilizations=(0.6, 0.8, 0.9) if quick else (0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
        horizon=8_000.0 if quick else 20_000.0,
        executor=executor,
    )
    # The quick points stay inside the model-vs-simulation band at 8,000
    # units; at 5,000 two N=10 points fell out (see fig5.check_simulation).
    problems = fig5.check_shape(rows) + fig5.check_simulation(rows)
    return _checked(fig5.render(rows), problems)


def _run_fig6(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    rates = (6.0, 8.0) if quick else (5.0, 6.0, 7.0, 8.0)
    panels = [fig6.run_fig6_2sc(target_rates=rates, executor=executor, cache_dir=cache_dir)]
    if not quick:
        panels.append(
            fig6.run_fig6_10sc(target_rates=rates, executor=executor, cache_dir=cache_dir)
        )
        panels.append(fig6.run_fig6_100vm(executor=executor, cache_dir=cache_dir))
    return "\n\n".join(_checked(fig6.render(rows), fig6.check_shape(rows)) for rows in panels)


def _run_fig7(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    parts = []
    panels = [("spread", 0.0)]
    if not quick:
        panels += [("spread", 1.0), ("high", 0.0), ("medium", 1.0)]
    for loads, gamma in panels:
        rows = fig7.run_fig7(
            loads=loads, gamma=gamma, ratios=_QUICK_RATIOS if quick else None,
            strategy_step=2 if quick else 1, executor=executor, cache_dir=cache_dir,
        )
        parts.append(_checked(fig7.render(rows), fig7.check_shape(rows)))
    return "\n\n".join(parts)


def _run_fig8(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    sizes_a = (2, 3, 4) if quick else (2, 3, 4, 6, 8, 10)
    # The pooled model's fixed point grows steeply with K x VMs (one K=4
    # game of 20-VM SCs at search distance 1 takes about 3.5 minutes on
    # 2 cores), so the quick 8b game plays 5-VM SCs at K=2,3 with the two
    # extreme search distances only.
    sizes_b = (2, 3) if quick else (2, 3, 4, 6, 8)
    distances = (1, 4) if quick else (1, 2, 4)
    vms = 5 if quick else 20
    # 8a times chain construction, so it always runs serial and uncached.
    rows_a = fig8.run_fig8a(sizes=sizes_a)
    rows_b = fig8.run_fig8b(
        sizes=sizes_b, tabu_distances=distances, vms=vms, executor=executor, cache_dir=cache_dir
    )
    return "\n\n".join([
        _checked(fig8.render_8a(rows_a), fig8.check_8a(rows_a)),
        _checked(fig8.render_8b(rows_b), fig8.check_8b(rows_b)),
    ])


def _run_ablations(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    # One grid, serial and uncached: the model ablation times its solves
    # and the game ablation counts them.
    parts = []
    for run, render, check in (
        (ablations.run_models, ablations.render_models, ablations.check_models),
        (ablations.run_game, ablations.render_game, ablations.check_game),
        (ablations.run_truncation, ablations.render_truncation, ablations.check_truncation),
        (ablations.run_workloads, ablations.render_workloads, ablations.check_workloads),
    ):
        rows = run()
        parts.append(_checked(render(rows), check(rows)))
    return "\n\n".join(parts)


FIGURES = {
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "ablations": _run_ablations,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate a figure or the ablations of the SC-Share evaluation."
    )
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller figure grids / shorter simulations for a fast smoke run "
        "(the ablations have one grid)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel width for independent work units (1 = serial, >1 = process pool)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent model-solution cache",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="also write each figure's table to DIR/<figure>.txt",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime stochastic sanitizer "
        "(equivalent to REPRO_SANITIZE=1)",
    )
    add_obs_arguments(parser)
    args = parser.parse_args(argv)
    if args.sanitize:
        sanitize_enable()
    executor = make_executor(args.workers)
    names = list(FIGURES) if args.figure == "all" else [args.figure]
    output_dir = Path(args.output) if args.output else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)

    def run_figures() -> int:
        for name in names:
            table = FIGURES[name](args.quick, executor, args.cache_dir)
            print(table)
            print()
            if output_dir is not None:
                (output_dir / f"{name}.txt").write_text(table + "\n")
        return 0

    return run_with_obs(args, run_figures)


if __name__ == "__main__":
    sys.exit(main())
