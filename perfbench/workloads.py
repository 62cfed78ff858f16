"""The three benchmark workloads, each driven through public entry points.

A workload is three steps:

- ``setup(seed)`` builds the inputs from the seed, resolves library
  entries and constructs the model (this is what ``setup_s`` times);
- ``ops(state)`` lists the timed operations as ``(label, thunk)`` pairs,
  run in order on one thread with the serial backend;
- ``output(result)`` turns one operation's result into plain JSON values,
  which the run checks against the pinned reference.

Seed 0 is the unperturbed configuration whose outputs are pinned under
``reference/``.  Any other seed scales each model input rate by
``1 + 1e-6 * u`` (``u`` uniform in ``[-1, 1]``) or, for the simulator,
re-derives each scenario's random seed.  Both leave the chain shapes, the
cache key structure and the event volume unchanged, so run time does not
depend on the seed while the outputs do.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

# solve_spec and simulate_spec import these lazily; importing them here
# makes set-up, not the first timed operation, pay for them.
import repro.core.framework  # noqa: F401
import repro.perf.pooled  # noqa: F401
import repro.sim.federation  # noqa: F401
from repro.bench.scenarios import fig7_scenario
from repro.core.small_cloud import FederationScenario
from repro.market.evaluator import UtilityEvaluator
from repro.perf.approximate import ApproximateModel
from repro.runtime.seeding import derive_seed
from repro.scenarios.library import full_library, resolve
from repro.scenarios.runner import outcome_observables, simulate_spec, solve_spec

DEFAULT_SEED = 0

#: Relative size of the per-seed input perturbation of the model workloads.
JITTER = 1e-6

Op = tuple[str, Callable[[], Any]]


def _jitter(scenario: FederationScenario, seed: int) -> FederationScenario:
    """``scenario`` with every arrival rate scaled by a seed-derived factor."""
    if seed == DEFAULT_SEED:
        return scenario
    factors = 1.0 + JITTER * np.random.default_rng(seed).uniform(-1.0, 1.0, len(scenario))
    return FederationScenario(
        tuple(
            dataclasses.replace(cloud, arrival_rate=cloud.arrival_rate * float(f))
            for cloud, f in zip(scenario.clouds, factors)
        )
    )


class TabuFig7:
    """Four Tabu-neighbour sharing vectors of Fig. 7 "spread", one SC each."""

    name = "tabu-fig7"
    kind = "model"
    #: The (5,5,5) neighbourhood ``repro.bench.micro`` scores; SC j % 3.
    VECTORS = ((5, 5, 5), (6, 5, 5), (5, 6, 5), (5, 5, 6))

    def setup(self, seed: int) -> dict[str, Any]:
        model = ApproximateModel()
        scenario = _jitter(fig7_scenario("spread"), seed)
        return {"model": model, "evaluator": UtilityEvaluator(scenario, model, gamma=0.0)}

    def ops(self, state: dict[str, Any]) -> list[Op]:
        evaluator = state["evaluator"]
        return [
            (f"utility{vector}[{j % 3}]", lambda v=vector, i=j % 3: evaluator.utility(v, i))
            for j, vector in enumerate(self.VECTORS)
        ]

    def output(self, result: float) -> Any:
        return float(result)

    def counts(self, state: dict[str, Any]) -> dict[str, int]:
        stats = state["model"].level_cache_stats()
        return {"level_cache.hits": int(stats["hits"]), "level_cache.misses": int(stats["misses"])}


class MarketFig7:
    """The full market loop on ``paper-fig7-spread`` as its RunConfig says."""

    name = "market-fig7"
    kind = "model"
    ENTRY = "paper-fig7-spread"

    def setup(self, seed: int) -> dict[str, Any]:
        spec = resolve(self.ENTRY)
        if seed != DEFAULT_SEED:
            spec = dataclasses.replace(
                spec, clouds=_jitter(spec.federation(), seed).clouds
            )
        return {"spec": spec}

    def ops(self, state: dict[str, Any]) -> list[Op]:
        return [("solve_spec", lambda: solve_spec(state["spec"]))]

    def output(self, outcome: Any) -> Any:
        observed = outcome_observables(outcome)
        return {
            "equilibrium": observed["equilibrium"],
            "optimum_profile": list(outcome.optimum_profile),
            "converged": observed["converged"],
            "welfare": float(outcome.welfare),
            "optimum_welfare": float(outcome.optimum_welfare),
            "efficiency": float(outcome.efficiency),
            "utilities": [float(d.utility) for d in outcome.details],
            "costs": [float(d.cost) for d in outcome.details],
        }

    def counts(self, state: dict[str, Any]) -> dict[str, int]:
        return {}


class SimCorpus:
    """``simulate_spec`` with its defaults over the bursty and failure families.

    All 27 scenarios are one operation: a single scenario takes 0.4-2.3 s
    and a family 5-18 s, short enough that the host's speed drift spread
    a cold first operation by 30% of its median from run to run.
    """

    name = "sim-corpus"
    kind = "sim"
    FAMILIES = ("bursty", "failure")

    def setup(self, seed: int) -> dict[str, Any]:
        specs = [spec for spec in full_library() if spec.family in self.FAMILIES]
        if seed != DEFAULT_SEED:
            specs = [
                dataclasses.replace(
                    spec,
                    run=dataclasses.replace(
                        spec.run, seed=derive_seed(spec.run.seed, f"perfbench-{seed}")
                    ),
                )
                for spec in specs
            ]
        return {"specs": specs}

    def ops(self, state: dict[str, Any]) -> list[Op]:
        return [("corpus", lambda: [simulate_spec(spec) for spec in state["specs"]])]

    def output(self, metrics: list[list[dict[str, Any]]]) -> Any:
        return metrics

    def counts(self, state: dict[str, Any]) -> dict[str, int]:
        return {}


WORKLOADS = {w.name: w for w in (TabuFig7(), MarketFig7(), SimCorpus())}
