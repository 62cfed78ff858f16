"""Standalone benchmark runner: ``python -m repro.bench.runner <figure>``.

Runs one figure's harness with its default parameters and prints the
table.  The pytest-benchmark drivers in ``benchmarks/`` use the same
functions; this entry point is for quick interactive regeneration.

``--workers N`` fans the independent work units (model rotations,
simulation points, game sections) out over N processes; ``--cache-dir``
persists every model solve so a repeated run (or a CI smoke job with a
warm cache) skips them entirely.  Both knobs change wall-clock only —
tables are byte-identical to a serial, uncached run.

``--trace`` / ``--metrics`` / ``--profile`` (shared with
``python -m repro``) capture a span tree, a metrics snapshot, or a
cProfile report of the whole benchmark run; they too leave every table
byte-identical.

``scenario --scenario NAME|FILE`` drives a scenario-library entry (or a
scenario JSON file) through the market loop instead of a paper figure —
the same traced/profiled/cached surface, pointed at any of the 100+
generated scenarios (``python -m repro.scenarios list``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.__main__ import add_obs_arguments, run_with_obs
from repro.analysis.sanitize import sanitize_enable
from repro.bench import fig5, fig6, fig7, fig8
from repro.runtime.executor import Executor, make_executor

_QUICK_RATIOS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _run_fig5(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    rows = fig5.run_fig5(
        utilizations=(0.6, 0.8, 0.9) if quick else (0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
        horizon=5_000.0 if quick else 20_000.0,
        executor=executor,
    )
    problems = fig5.check_shape(rows)
    output = fig5.render(rows)
    if problems:
        output += "\nSHAPE VIOLATIONS: " + "; ".join(problems)
    return output


def _run_fig6(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    rates = (6.0, 8.0) if quick else (5.0, 6.0, 7.0, 8.0)
    parts = [
        fig6.render(
            fig6.run_fig6_2sc(target_rates=rates, executor=executor, cache_dir=cache_dir)
        )
    ]
    if not quick:
        parts.append(
            fig6.render(
                fig6.run_fig6_10sc(
                    target_rates=rates, executor=executor, cache_dir=cache_dir
                )
            )
        )
        parts.append(
            fig6.render(fig6.run_fig6_100vm(executor=executor, cache_dir=cache_dir))
        )
    return "\n\n".join(parts)


def _run_fig7(quick: bool, executor: Executor, cache_dir: str | None) -> str:
    parts = []
    panels = [("spread", 0.0)] if quick else [
        ("spread", 0.0),
        ("spread", 1.0),
        ("high", 0.0),
        ("medium", 1.0),
    ]
    for loads, gamma in panels:
        rows = fig7.run_fig7(
            loads=loads,
            gamma=gamma,
            ratios=_QUICK_RATIOS if quick else None,
            strategy_step=2 if quick else 1,
            executor=executor,
            cache_dir=cache_dir,
        )
        parts.append(fig7.render(rows))
        problems = fig7.check_shape(rows)
        if problems:
            parts.append("SHAPE VIOLATIONS: " + "; ".join(problems))
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
    parts = [
        # 8a times chain construction, so it always runs serial and uncached.
        fig8.render_8a(fig8.run_fig8a(sizes=sizes_a)),
        fig8.render_8b(
            fig8.run_fig8b(
                sizes=sizes_b,
                tabu_distances=distances,
                vms=vms,
                executor=executor,
                cache_dir=cache_dir,
            )
        ),
    ]
    return "\n\n".join(parts)


FIGURES = {
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
}


def _run_scenario(reference: str, workers: int, backend: str, cache_dir: str | None) -> str:
    """Run one scenario-library entry (or spec file) through the market loop."""
    import json

    from repro.scenarios.library import resolve
    from repro.scenarios.runner import run_spec

    spec = resolve(reference)
    report = run_spec(
        spec,
        mode="solve",
        workers=workers if workers > 1 else None,
        backend=None if backend == "auto" else backend,
        cache_dir=cache_dir,
    )
    return json.dumps(report, indent=2)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate a figure of the SC-Share evaluation."
    )
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all", "scenario"])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller grids / shorter simulations for a fast smoke run",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME|FILE",
        help="scenario-library entry or spec file (with the 'scenario' figure)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel width for independent work units (1 = serial)",
    )
    parser.add_argument(
        "--parallel-backend",
        choices=["auto", "thread", "process"],
        default="auto",
        help="executor kind behind --workers (auto = process pools)",
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
    if args.figure == "scenario" and args.scenario is None:
        parser.error("the 'scenario' figure needs --scenario NAME|FILE")
    executor = make_executor(args.workers, kind=args.parallel_backend)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    output_dir = Path(args.output) if args.output else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)

    def run_figures() -> int:
        for name in names:
            if name == "scenario":
                table = _run_scenario(
                    args.scenario, args.workers, args.parallel_backend, args.cache_dir
                )
                stem = "scenario"
            else:
                table = FIGURES[name](args.quick, executor, args.cache_dir)
                stem = name
            print(table)
            print()
            if output_dir is not None:
                (output_dir / f"{stem}.txt").write_text(table + "\n")
        return 0

    return run_with_obs(args, run_figures)


if __name__ == "__main__":
    sys.exit(main())
