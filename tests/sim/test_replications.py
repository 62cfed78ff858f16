"""Tests for multi-replication experiments."""

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.exceptions import ConfigurationError
from repro.sim import replications
from repro.sim.replications import replicate

pytestmark = pytest.mark.slow


def scenario():
    return FederationScenario((
        SmallCloud(name="a", vms=5, arrival_rate=3.5, shared_vms=2),
        SmallCloud(name="b", vms=5, arrival_rate=4.2, shared_vms=2),
    ))


class TestReplicate:
    @pytest.fixture(scope="class")
    def results(self):
        return replicate(
            scenario(), replications=6, horizon=3_000.0, warmup=200.0, base_seed=3
        )

    def test_one_result_per_sc(self, results):
        assert len(results) == 2

    def test_intervals_are_sane(self, results):
        for r in results:
            assert r.utilization.low <= r.utilization.mean <= r.utilization.high
            assert 0.0 <= r.utilization.mean <= 1.0
            assert r.forward_rate.half_width >= 0.0

    def test_interval_covers_exact_value(self, results):
        from repro.perf.detailed import DetailedModel

        exact = DetailedModel().evaluate(scenario())
        for r, e in zip(results, exact):
            # 95% CI from 6 replications: wide, must cover the exact
            # stationary value (up to a small allowance for short runs).
            assert (
                r.lent_mean.low - 0.05 <= e.lent_mean <= r.lent_mean.high + 0.05
            )

    def test_more_replications_tighten_intervals(self):
        few = replicate(scenario(), replications=3, horizon=1_500.0, base_seed=0)
        many = replicate(scenario(), replications=12, horizon=1_500.0, base_seed=0)
        assert (
            many[0].utilization.half_width <= few[0].utilization.half_width + 1e-6
        )

    def test_deterministic_given_base_seed(self):
        a = replicate(scenario(), replications=3, horizon=800.0, warmup=100.0, base_seed=9)
        b = replicate(scenario(), replications=3, horizon=800.0, warmup=100.0, base_seed=9)
        assert a == b


class TestValidation:
    @pytest.mark.parametrize("count", [1, 0, -3])
    def test_fewer_than_two_replications_rejected_before_running(self, count, monkeypatch):
        def run(task):
            raise AssertionError("a replication ran before validation")

        monkeypatch.setattr(replications, "_run_replication", run)
        with pytest.raises(ConfigurationError, match="at least 2"):
            replicate(scenario(), replications=count)
