"""Parallel execution must be bit-identical to serial execution.

These are the load-bearing guarantees behind ``--workers N``: the
approximate model's target rotation, the Tabu/best-response game loop,
and simulation replications all produce the exact same floats whatever
executor drives them.
"""

import pytest

from repro.core.framework import SCShare
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.approximate import ApproximateModel
from repro.runtime.executor import ProcessExecutor, SerialExecutor
from repro.sim.replications import replicate

pytestmark = pytest.mark.slow


def _scenario(k=3):
    rates = [3.0, 4.0, 5.0][:k]
    clouds = [
        SmallCloud(
            name=f"sc{i}",
            vms=5,
            arrival_rate=rate,
            service_rate=2.0,
            shared_vms=2,
        )
        for i, rate in enumerate(rates)
    ]
    return FederationScenario(clouds)


class TestApproximateModelEquivalence:
    def test_evaluate_identical_across_executors(self):
        scenario = _scenario()
        serial = ApproximateModel().evaluate(scenario)
        processed = ApproximateModel(executor=ProcessExecutor(2)).evaluate(scenario)
        assert processed == serial


class TestGameEquivalence:
    @pytest.mark.parametrize("best_response", ["exhaustive", "tabu"])
    def test_equilibrium_identical_across_executors(self, best_response):
        scenario = _scenario(k=2)
        outcomes = []
        for executor in (SerialExecutor(), ProcessExecutor(2)):
            runner = SCShare(
                scenario,
                strategy_step=1,
                best_response=best_response,
                executor=executor,
            )
            outcomes.append(runner.run(alpha=0.0))
        serial, processed = outcomes
        assert processed.equilibrium == serial.equilibrium
        assert processed.welfare == serial.welfare
        assert processed.efficiency == serial.efficiency
        # The seeding drops worker solves the parent already holds, so the
        # solve count equals a serial run's.
        assert processed.game.model_evaluations == serial.game.model_evaluations


class TestReplicationEquivalence:
    def test_replicate_identical_across_executors(self):
        scenario = _scenario(k=2)
        serial = replicate(scenario, replications=3, horizon=300.0, warmup=30.0, base_seed=7)
        parallel = replicate(
            scenario,
            replications=3,
            horizon=300.0,
            warmup=30.0,
            base_seed=7,
            executor=ProcessExecutor(2),
        )
        assert parallel == serial
