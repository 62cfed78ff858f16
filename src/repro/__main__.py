"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``solve SCENARIO`` — run the SC-Share market loop on a scenario and
  print the equilibrium, per-SC positions, and federation efficiency as
  JSON.
- ``sweep SCENARIO`` — sweep the price ratio and print the recommended
  price region per fairness objective.
- ``simulate SCENARIO`` — run the discrete-event simulator and print
  per-SC performance metrics.

``SCENARIO`` is either a scenario JSON file (see
:mod:`repro.core.serialization` for the legacy flat format and
:mod:`repro.scenarios.schema` for the versioned one) or the name of a
scenario-library entry (``python -m repro.scenarios list``) — so any
library entry can drive a traced/profiled run directly.

All commands accept ``--model {pooled,approximate}`` where applicable;
``solve`` and ``sweep`` also accept ``--workers N`` (parallel evaluation)
and ``--cache-dir PATH`` (persistent model-solution cache) — neither
changes any printed number, only how fast it appears.

Observability (any command): ``--trace FILE`` exports the span tree
(``.json`` tree, ``.chrome.json`` Chrome trace, ``.folded``
flamegraph), ``--metrics FILE`` exports the metrics snapshot as JSON,
and ``--profile`` prints a cProfile report to stderr.  Like the runtime
flags, none of them changes a printed number (the differential checker
pins the traced run bit-identical to the untraced one).
"""

from __future__ import annotations

import argparse
import json
import sys

from typing import TYPE_CHECKING

from repro.analysis.sanitize import sanitize_enable
from repro.core.serialization import load_scenario, outcome_to_dict

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.core.small_cloud import FederationScenario
    from repro.perf.base import PerformanceModel
    from repro.runtime.executor import Executor
    from repro.scenarios.schema import ScenarioSpec


def _resolve_spec(ref: str) -> "ScenarioSpec | None":
    """A versioned library spec for ``ref``, or ``None`` for legacy files.

    ``ref`` may be a library scenario name, a versioned scenario file
    (:mod:`repro.scenarios.schema`), or a legacy flat scenario file —
    only the last returns ``None`` (callers fall back to
    :func:`~repro.core.serialization.load_scenario`).
    """
    from pathlib import Path

    path = Path(ref)
    if path.exists():
        data = json.loads(path.read_text())
        if isinstance(data, dict) and ("schema_version" in data or "name" in data):
            from repro.scenarios.schema import spec_from_dict

            return spec_from_dict(data)
        return None
    from repro.scenarios.library import resolve

    return resolve(ref)


def _resolve_federation(ref: str) -> "FederationScenario":
    """The federation named by ``ref`` (file or library entry)."""
    spec = _resolve_spec(ref)
    if spec is not None:
        return spec.federation()
    return load_scenario(ref)


def _build_model(args: argparse.Namespace) -> "tuple[PerformanceModel, Executor]":
    """The ``--model`` and the executor of ``--workers`` width it runs
    on; the model sits behind the persistent cache when ``--cache-dir``
    is given."""
    from repro.runtime.cache import cached_model
    from repro.runtime.executor import make_executor
    from repro.scenarios.runner import make_model

    executor = make_executor(args.workers)
    model = make_model(args.model, executor=executor)
    return cached_model(model, args.cache_dir), executor


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.framework import SCShare

    scenario = _resolve_federation(args.scenario)
    if args.price_ratio is not None:
        scenario = scenario.with_price_ratio(args.price_ratio)
    model, executor = _build_model(args)
    runner = SCShare(
        scenario,
        model=model,
        gamma=args.gamma,
        strategy_step=args.strategy_step,
        executor=executor,
    )
    outcome = runner.run(alpha=args.alpha, optimum_method="ascent")
    print(json.dumps(outcome_to_dict(outcome), indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.framework import SCShare
    from repro.market.pricing import price_ratio_grid
    from repro.market.regions import analyze_regions
    from repro.bench.fig7 import ALPHAS, Fig7Row

    scenario = _resolve_federation(args.scenario)
    model, executor = _build_model(args)
    # Performance parameters do not depend on prices: one in-memory
    # cache serves the whole sweep.
    cache: dict = {}
    rows = []
    for ratio in price_ratio_grid(points=args.points):
        runner = SCShare(
            scenario.with_price_ratio(ratio),
            model=model,
            gamma=args.gamma,
            strategy_step=args.strategy_step,
            params_cache=cache,
            executor=executor,
        )
        efficiency = {}
        welfare = {}
        equilibrium: tuple[int, ...] = ()
        iterations = 0
        for name, alpha in ALPHAS.items():
            outcome = runner.run(alpha=alpha, optimum_method="ascent")
            efficiency[name] = outcome.efficiency
            welfare[name] = outcome.welfare
            equilibrium = outcome.equilibrium
            iterations = outcome.game.iterations
        rows.append(
            Fig7Row(
                loads="custom",
                gamma=args.gamma,
                price_ratio=ratio,
                equilibrium=equilibrium,
                iterations=iterations,
                efficiency=efficiency,
                welfare=welfare,
                evaluator=runner.evaluator,
                strategy_spaces=runner.strategy_spaces,
            )
        )
    report = analyze_regions(rows)
    output = {
        "regions": [
            {
                "objective": r.objective,
                "best_ratio": r.best_ratio,
                "range": [r.low, r.high],
                "efficiency": r.efficiency,
            }
            for r in report.regions
        ],
        "collapse_ratios": list(report.collapse_ratios),
    }
    print(json.dumps(output, indent=2))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.scenarios.runner import simulate_spec

    spec = _resolve_spec(args.scenario)
    if spec is None:
        from repro.scenarios.library import spec_from_federation

        spec = spec_from_federation("legacy", load_scenario(args.scenario))
    # The scenario runner wires a versioned spec's demand profiles (MMPP
    # arrivals, phase-type service) into the simulator; a legacy flat
    # file is plain Poisson/exponential.  CLI flags override the run
    # config.
    spec = replace(spec, run=replace(spec.run, seed=args.seed, horizon=args.horizon))
    print(json.dumps(simulate_spec(spec), indent=2))
    return 0


def add_obs_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` / ``--metrics`` / ``--profile`` flags.

    Shared with :mod:`repro.bench.runner`, so every entry point exposes
    the same observability surface.
    """
    command.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="export the span tree (format by extension: .json tree, "
        ".chrome.json Chrome trace_event, .folded flamegraph)",
    )
    command.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="export counters/gauges/histograms as JSON",
    )
    command.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the run and print the top functions to stderr",
    )


def run_with_obs(args: argparse.Namespace, func: "Callable[[], int]") -> int:
    """Run ``func`` under the instrumentation ``args`` requests.

    With no observability flag set this is a plain call — the hooks stay
    compiled to no-ops.  Otherwise the run happens inside one
    :func:`repro.obs.capture` block and the requested artifacts are
    written after it returns (also on error, so a crashed run still
    leaves its trace behind).
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    profile = bool(getattr(args, "profile", False))
    if trace_path is None and metrics_path is None and not profile:
        return func()

    from contextlib import ExitStack

    from repro import obs
    from repro.obs import export, profiling

    with ExitStack() as stack:
        capture = stack.enter_context(
            obs.capture(
                tracing=trace_path is not None,
                metrics=metrics_path is not None,
            )
        )
        if profile:
            stack.enter_context(profiling.profiled(sys.stderr))
        try:
            return func()
        finally:
            if trace_path is not None:
                export.write_trace(capture.tracer, trace_path)
            if metrics_path is not None:
                export.write_metrics(capture.snapshot(), metrics_path)


def _add_runtime_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel width for model/game evaluation (1 = serial, >1 = process pool)",
    )
    command.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent model-solution cache",
    )
    command.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime stochastic sanitizer "
        "(equivalent to REPRO_SANITIZE=1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the market loop to equilibrium")
    solve.add_argument("scenario", help="scenario JSON file or library scenario name")
    solve.add_argument("--model", default="pooled", choices=["pooled", "approximate"])
    solve.add_argument("--gamma", type=float, default=0.0)
    solve.add_argument("--alpha", type=float, default=0.0)
    solve.add_argument("--price-ratio", type=float, default=None)
    solve.add_argument("--strategy-step", type=int, default=1)
    _add_runtime_arguments(solve)
    add_obs_arguments(solve)
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="sweep C^G/C^P and recommend regions")
    sweep.add_argument("scenario", help="scenario JSON file or library scenario name")
    sweep.add_argument("--model", default="pooled", choices=["pooled", "approximate"])
    sweep.add_argument("--gamma", type=float, default=0.0)
    sweep.add_argument("--points", type=int, default=6)
    sweep.add_argument("--strategy-step", type=int, default=2)
    _add_runtime_arguments(sweep)
    add_obs_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    simulate = sub.add_parser("simulate", help="run the discrete-event simulator")
    simulate.add_argument("scenario", help="scenario JSON file or library scenario name")
    simulate.add_argument("--horizon", type=float, default=20_000.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime stochastic sanitizer "
        "(equivalent to REPRO_SANITIZE=1)",
    )
    add_obs_arguments(simulate)
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sanitize", False):
        sanitize_enable()
    return run_with_obs(args, lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
