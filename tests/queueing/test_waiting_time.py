"""Tests for the waiting-time analysis of the SLA-gated queue."""

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.queueing.forwarding import NoSharingModel
from repro.queueing.waiting_time import (
    WaitingTimeAnalysis,
    wait_cdf_at_admission,
)
from repro.sim.federation import FederationSimulator


class TestWaitCdf:
    def test_erlang_one_is_exponential(self):
        import math

        # Behind nobody with c=1: wait ~ Exp(mu).
        t, mu = 0.7, 1.3
        assert wait_cdf_at_admission(0, 1, mu, t) == pytest.approx(
            1.0 - math.exp(-mu * t)
        )

    def test_monotone_in_t(self):
        values = [wait_cdf_at_admission(3, 5, 1.0, t) for t in (0.1, 0.5, 1.0, 3.0)]
        assert values == sorted(values)

    def test_more_waiting_ahead_waits_longer(self):
        near = wait_cdf_at_admission(1, 5, 1.0, 0.5)
        far = wait_cdf_at_admission(6, 5, 1.0, 0.5)
        assert far < near

    def test_edge_cases(self):
        assert wait_cdf_at_admission(-1, 5, 1.0, 0.5) == 1.0
        assert wait_cdf_at_admission(2, 0, 1.0, 0.5) == 0.0
        assert wait_cdf_at_admission(2, 5, 1.0, 0.0) == 0.0


class TestWaitingTimeAnalysis:
    @pytest.fixture(scope="class")
    def model(self):
        return NoSharingModel(servers=10, arrival_rate=8.5, service_rate=1.0, sla_bound=0.2)

    @pytest.fixture(scope="class")
    def analysis(self, model):
        return WaitingTimeAnalysis(model)

    def test_survival_decreasing(self, analysis):
        values = [analysis.survival(t) for t in (0.0, 0.1, 0.2, 0.5, 1.0)]
        assert values == sorted(values, reverse=True)

    def test_survival_at_zero_is_delay_probability(self, analysis):
        summary = analysis.summary()
        assert analysis.survival(0.0) == pytest.approx(summary.delay_probability)

    def test_residual_violation_is_small(self, analysis, model):
        # The admission gate only accepts requests likely to start within
        # Q, so the leaked violation mass is a minority of served requests.
        summary = analysis.summary()
        assert 0.0 <= summary.residual_violation < 0.5
        assert summary.residual_violation == pytest.approx(
            analysis.survival(model.sla_bound)
        )

    def test_mean_wait_consistency(self, analysis):
        summary = analysis.summary()
        assert summary.mean_wait <= summary.mean_wait_delayed
        if summary.delay_probability > 0:
            assert summary.mean_wait == pytest.approx(
                summary.mean_wait_delayed * summary.delay_probability
            )

    @pytest.mark.slow
    def test_matches_simulator_violation_rate(self, model):
        """The analytic leakage matches the simulator's sla_violations."""
        scenario = FederationScenario((
            SmallCloud(
                name="solo",
                vms=model.servers,
                arrival_rate=model.arrival_rate,
                sla_bound=model.sla_bound,
            ),
        ))
        sim = FederationSimulator(scenario, seed=21)
        metrics = sim.run(horizon=150_000.0, warmup=5_000.0)[0]
        served = metrics.served_locally + metrics.served_borrowed
        # Analytic residual is per served request.
        analytic = WaitingTimeAnalysis(model).summary().residual_violation
        empirical = metrics.sla_violations / served
        assert empirical == pytest.approx(analytic, abs=0.01)

    @pytest.mark.slow
    def test_mean_wait_matches_simulator(self, model):
        scenario = FederationScenario((
            SmallCloud(
                name="solo",
                vms=model.servers,
                arrival_rate=model.arrival_rate,
                sla_bound=model.sla_bound,
            ),
        ))
        sim = FederationSimulator(scenario, seed=22)
        metrics = sim.run(horizon=150_000.0, warmup=5_000.0)[0]
        analysis = WaitingTimeAnalysis(model).summary()
        # Simulator's mean_wait is over *queued* requests only.
        assert metrics.mean_wait == pytest.approx(
            analysis.mean_wait_delayed, rel=0.1
        )
