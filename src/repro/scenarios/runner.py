"""Drive one scenario end to end: market solve or simulation.

This module is the execution half of the scenario subsystem — the schema
says *what*, the runner says *how*: build the model the spec's
:class:`~repro.scenarios.schema.RunConfig` asks for on an executor of the
caller's width (behind the persistent model cache when a directory is
given), wire the demand profiles and failure schedule into the
simulator, and hand back JSON-able results plus a
``float.hex`` digest for bitwise cross-backend comparison (the same
discipline :mod:`repro.analysis.differential` uses).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

from repro.scenarios.schema import ScenarioSpec

if TYPE_CHECKING:
    from repro.core.framework import SCShareOutcome
    from repro.perf.base import PerformanceModel
    from repro.runtime.executor import Executor
    from repro.sim.federation import FederationSimulator


def make_model(name: str, executor: "Executor | None" = None) -> "PerformanceModel":
    """The performance model called ``name`` (a run config's ``model``:
    one of :data:`~repro.scenarios.schema.MODELS`)."""
    if name == "pooled":
        from repro.perf.pooled import PooledModel

        return PooledModel()
    if name == "approximate":
        from repro.perf.approximate import ApproximateModel

        return ApproximateModel(executor=executor)
    raise ValueError(f"unknown model {name!r}")


def solve_spec(
    spec: ScenarioSpec,
    workers: int | None = None,
    cache_dir: str | None = None,
) -> "SCShareOutcome":
    """Run the SC-Share market loop under the spec's run config.

    ``workers`` is the parallel width (``None`` or 1 runs serially, more
    runs a process pool); every width gives the same bits, and so does
    a cold or warm ``cache_dir``.
    """
    from repro.core.framework import SCShare
    from repro.runtime.cache import cached_model
    from repro.runtime.executor import make_executor

    executor = make_executor(workers)
    runner = SCShare(
        spec.federation(),
        model=cached_model(make_model(spec.run.model, executor=executor), cache_dir),
        gamma=spec.run.gamma,
        strategy_step=spec.run.strategy_step,
        executor=executor,
    )
    return runner.run(alpha=spec.run.alpha, optimum_method="ascent")


def build_simulator(spec: ScenarioSpec) -> "FederationSimulator":
    """The discrete-event simulator of ``spec``: its federation, seed,
    demand profiles (non-Poisson arrivals, non-exponential service) and
    failure schedule.  Every call builds fresh arrival processes, so two
    simulators of one spec replay the same random numbers."""
    import numpy as np

    from repro.runtime.seeding import derive_seed
    from repro.sim.federation import FederationSimulator

    scenario = spec.federation()
    service = None
    if any(profile.service.kind != "exponential" for profile in spec.demand):
        service = [
            profile.service.build(cloud.service_rate)
            for cloud, profile in zip(scenario, spec.demand)
        ]
    arrivals = None
    if any(profile.arrival.kind != "poisson" for profile in spec.demand):
        arrivals = [
            profile.arrival.build(
                cloud.arrival_rate,
                np.random.default_rng(
                    np.random.SeedSequence(derive_seed(spec.run.seed, f"demand[{i}]"))
                ),
            )
            for i, (cloud, profile) in enumerate(zip(scenario, spec.demand))
        ]
    return FederationSimulator(
        scenario,
        seed=spec.run.seed,
        service_distributions=service,
        arrival_processes=arrivals,
        failures=spec.failures or None,
    )


def simulate_spec(
    spec: ScenarioSpec, horizon: float | None = None
) -> list[dict[str, Any]]:
    """Run the discrete-event simulator with the spec's demand profiles.

    The spec's failure schedule (if any) is injected.
    """
    scenario = spec.federation()
    span = horizon if horizon is not None else spec.run.horizon
    metrics = build_simulator(spec).run(horizon=span, warmup=span * 0.05)
    return [
        {
            "name": cloud.name,
            "lent_mean": m.lent_mean,
            "borrowed_mean": m.borrowed_mean,
            "forward_rate": m.forward_rate,
            "forward_probability": m.forward_probability,
            "utilization": m.utilization,
            "mean_wait": m.mean_wait,
        }
        for cloud, m in zip(scenario, metrics)
    ]


def outcome_observables(outcome: "SCShareOutcome") -> dict[str, Any]:
    """Bitwise observables of a market outcome (floats as ``float.hex``)."""
    return {
        "equilibrium": list(outcome.equilibrium),
        "converged": outcome.game.converged,
        "iterations": outcome.game.iterations,
        "welfare": float(outcome.welfare).hex(),
        "optimum_welfare": float(outcome.optimum_welfare).hex(),
        "efficiency": float(outcome.efficiency).hex(),
        "utilities": [float(d.utility).hex() for d in outcome.details],
        "costs": [float(d.cost).hex() for d in outcome.details],
    }


def observables_digest(observables: dict[str, Any]) -> str:
    """sha256 of the canonical observables rendering.

    This digest is what the cross-backend sweep asserts bit-identical,
    so its inputs must stay pure functions of the outcome;
    ``tests/runtime/test_fingerprint_soundness.py`` checks that it
    changes with every observable.
    """
    return hashlib.sha256(
        json.dumps(observables, sort_keys=True).encode("utf-8")
    ).hexdigest()


def run_spec(
    spec: ScenarioSpec,
    mode: str = "solve",
    workers: int | None = None,
    cache_dir: str | None = None,
) -> dict[str, Any]:
    """Run a scenario and return a JSON-able report.

    Args:
        spec: the scenario.
        mode: ``"solve"`` (market loop) or ``"simulate"`` (event-driven
            simulator with the spec's demand profiles).
        workers: parallel width of a ``solve`` run (serial by default).
        cache_dir: optional persistent model-solution cache.
    """
    from repro.core.serialization import outcome_to_dict

    report: dict[str, Any] = {
        "scenario": spec.name,
        "hash": spec.content_hash(),
        "mode": mode,
    }
    if mode == "solve":
        outcome = solve_spec(spec, workers=workers, cache_dir=cache_dir)
        observables = outcome_observables(outcome)
        report["outcome"] = outcome_to_dict(outcome)
        report["digest"] = observables_digest(observables)
    elif mode == "simulate":
        report["metrics"] = simulate_spec(spec)
    else:
        raise ValueError(f"unknown run mode {mode!r}")
    return report
