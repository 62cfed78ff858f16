"""Budget-driven tier selection (`repro.perf.auto`).

Selection must be a pure function of (scenario content, budget): the
same query always lands on the same tier, and dispatch returns exactly
what the chosen tier would return — the auto front adds routing, never
arithmetic.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.approximate import ApproximateModel
from repro.perf.auto import (
    APPROXIMATE_ACCURACY_FLOOR,
    AutoModel,
    ErrorBudget,
)
from repro.perf.bounds import forwarding_bounds
from repro.perf.detailed import DetailedModel
from repro.perf.pooled import PooledModel
from repro.runtime.cache import model_fingerprint


def two_sc_scenario():
    return FederationScenario(
        clouds=(
            SmallCloud(name="sc1", vms=4, arrival_rate=2.8, shared_vms=1),
            SmallCloud(name="sc2", vms=4, arrival_rate=3.0, shared_vms=1),
        )
    )


def single_sc_scenario():
    # K=1: the merged full-pooling system IS the lone SC, so the bracket
    # has zero width and no estimator can be off by anything.
    return FederationScenario(
        clouds=(SmallCloud(name="solo", vms=4, arrival_rate=2.8, shared_vms=1),)
    )


def light_load_scenario():
    # Forwarding is astronomically small at 2-3% utilization: the
    # bracket's upper end sits below the negligible-forwarding floor.
    return FederationScenario(
        clouds=(
            SmallCloud(name="sc1", vms=10, arrival_rate=0.2, shared_vms=1),
            SmallCloud(name="sc2", vms=10, arrival_rate=0.3, shared_vms=1),
        )
    )


def wide_scenario(k=6):
    return FederationScenario(
        clouds=tuple(
            SmallCloud(
                name=f"sc{i}", vms=3, arrival_rate=1.5 + 0.01 * i, shared_vms=1
            )
            for i in range(k)
        )
    )


class TestSelection:
    def test_tight_budget_small_federation_selects_detailed(self):
        model = AutoModel(budget=ErrorBudget(relative_error=0.005))
        assert model.select(two_sc_scenario()) == "detailed"

    def test_default_budget_selects_approximate(self):
        scenario = two_sc_scenario()
        bounds = forwarding_bounds(scenario)
        assert bounds.width / bounds.upper > ErrorBudget().relative_error
        assert AutoModel().select(scenario) == "approximate"

    def test_zero_width_bracket_selects_pooled(self):
        assert AutoModel().select(single_sc_scenario()) == "pooled"

    def test_negligible_forwarding_selects_pooled(self):
        assert AutoModel().select(light_load_scenario()) == "pooled"

    def test_tight_budget_large_federation_stays_approximate(self):
        model = AutoModel(budget=ErrorBudget(relative_error=0.005, detailed_max_k=3))
        assert model.select(wide_scenario()) == "approximate"

    def test_selection_is_deterministic(self):
        model = AutoModel()
        scenario = two_sc_scenario()
        assert model.select(scenario) == model.select(scenario)

    def test_accuracy_floor_gates_detailed(self):
        at_floor = AutoModel(
            budget=ErrorBudget(relative_error=APPROXIMATE_ACCURACY_FLOOR)
        )
        assert at_floor.select(two_sc_scenario()) == "approximate"


class TestDispatch:
    def test_approximate_dispatch_is_bitwise(self):
        scenario = two_sc_scenario()
        auto = AutoModel()
        direct = ApproximateModel()
        assert [float(p.forward_rate).hex() for p in auto.evaluate(scenario)] == [
            float(p.forward_rate).hex() for p in direct.evaluate(scenario)
        ]

    def test_detailed_dispatch_is_bitwise(self):
        scenario = two_sc_scenario()
        auto = AutoModel(budget=ErrorBudget(relative_error=0.005))
        direct = DetailedModel()
        assert [float(p.forward_rate).hex() for p in auto.evaluate(scenario)] == [
            float(p.forward_rate).hex() for p in direct.evaluate(scenario)
        ]

    def test_pooled_dispatch_is_bitwise(self):
        scenario = light_load_scenario()
        auto = AutoModel()
        direct = PooledModel()
        assert [float(p.utilization).hex() for p in auto.evaluate(scenario)] == [
            float(p.utilization).hex() for p in direct.evaluate(scenario)
        ]

    def test_evaluate_target_routes_like_evaluate(self):
        scenario = two_sc_scenario()
        auto = AutoModel()
        direct = ApproximateModel()
        assert (
            float(auto.evaluate_target(scenario, 0).forward_rate).hex()
            == float(direct.evaluate_target(scenario, 0).forward_rate).hex()
        )

    def test_selection_counts_record_dispatches(self):
        auto = AutoModel()
        auto.evaluate(two_sc_scenario())
        auto.evaluate(light_load_scenario())
        counts = auto.selection_counts()
        assert counts["approximate"] == 1
        assert counts["pooled"] == 1
        assert counts["detailed"] == 0


class TestConfiguration:
    def test_budget_terms_are_fingerprinted(self):
        fingerprint = model_fingerprint(AutoModel(budget=ErrorBudget(0.03, 4, 8)))
        assert "relative_error" in str(fingerprint)

    def test_budget_validation(self):
        with pytest.raises(Exception):
            ErrorBudget(relative_error=0.0)
        with pytest.raises(Exception):
            ErrorBudget(detailed_max_k=0)

    def test_mode_keyword_is_gone(self):
        with pytest.raises(TypeError):
            AutoModel(mode="monolithic")

    def test_pickle_resets_counts(self):
        auto = AutoModel()
        auto.evaluate(light_load_scenario())
        clone = pickle.loads(pickle.dumps(auto))
        assert clone.selection_counts() == {
            "pooled": 0,
            "approximate": 0,
            "detailed": 0,
        }
        assert clone.budget == auto.budget
