"""Tests for the caching utility evaluator."""

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.market.evaluator import UtilityEvaluator
from repro.perf.base import PerformanceModel
from repro.perf.params import PerformanceParams


def _fixed_params(scenario):
    return [
        PerformanceParams(
            lent_mean=float(c.shared_vms) * 0.1,
            borrowed_mean=0.2,
            forward_rate=0.05,
            utilization=0.7,
        )
        for c in scenario
    ]


class CountingModel(PerformanceModel):
    """A trivial model that counts its evaluations; it has no target path."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, scenario):
        self.calls += 1
        return _fixed_params(scenario)


class TargetCountingModel(CountingModel):
    """A counting model whose single-SC solves are cheaper than a full one,
    so the evaluator takes its target path; target solves count apart."""

    def __init__(self):
        super().__init__()
        self.target_calls = 0

    @property
    def has_target_path(self):
        return True

    def evaluate_target(self, scenario, target):
        self.target_calls += 1
        return _fixed_params(scenario)[target]


@pytest.fixture
def scenario():
    return FederationScenario((
        SmallCloud(name="a", vms=10, arrival_rate=7.0, federation_price=0.5),
        SmallCloud(name="b", vms=10, arrival_rate=8.0, federation_price=0.5),
    ))


class TestCaching:
    def test_same_vector_evaluated_once(self, scenario):
        model = CountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.params((3, 4))
        evaluator.params((3, 4))
        evaluator.params([3, 4])  # list form hits the same key
        assert model.calls == 1
        assert evaluator.cache_size() == 1

    def test_different_vectors_evaluated_separately(self, scenario):
        model = CountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.params((3, 4))
        evaluator.params((4, 3))
        assert model.calls == 2

    def test_shared_cache_across_price_points(self, scenario):
        model = CountingModel()
        cache = {}
        first = UtilityEvaluator(scenario, model, params_cache=cache)
        first.params((2, 2))
        repriced = scenario.with_price_ratio(0.9)
        second = UtilityEvaluator(repriced, model, params_cache=cache)
        second.params((2, 2))
        assert model.calls == 1  # performance is price-independent

    def test_evaluation_counter(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        evaluator.params((0, 0))
        evaluator.params((1, 1))
        evaluator.params((0, 0))
        assert evaluator.evaluations == 2


class TestTargetPath:
    def test_target_solve_counts_separately(self, scenario):
        # Without a target path, a single-SC query is a full-vector solve:
        # counted in ``evaluations``, and shared by every later query of
        # the vector, on any index, and by ``utilities``.
        model = CountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.utility((2, 3), 0)
        assert evaluator.evaluations == 1
        assert evaluator.target_evaluations == 0
        evaluator.cost((2, 3), 1)
        evaluator.utilities((2, 3))
        assert model.calls == 1
        assert evaluator.total_evaluations == 1

    def test_target_path_solve_counts_separately(self, scenario):
        model = TargetCountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.utility((2, 3), 0)
        assert evaluator.evaluations == 0
        assert evaluator.target_evaluations == 1
        assert (model.calls, model.target_calls) == (0, 1)

    def test_full_cache_preferred_over_target_solve(self, scenario):
        model = TargetCountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.params((2, 3))
        evaluator.utility((2, 3), 0)
        evaluator.cost((2, 3), 1)
        assert (model.calls, model.target_calls) == (1, 0)
        assert evaluator.target_evaluations == 0

    def test_target_queries_cached_per_index(self, scenario):
        # One model call per vector across queries of either index.
        model = CountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.utility((2, 3), 0)
        evaluator.cost((2, 3), 0)
        evaluator.utility((2, 3), 1)
        evaluator.cost((2, 3), 1)
        assert model.calls == 1
        evaluator.utility((3, 3), 1)
        assert model.calls == 2

    def test_target_path_queries_cached_per_index(self, scenario):
        model = TargetCountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        evaluator.utility((2, 3), 0)
        evaluator.cost((2, 3), 0)
        assert model.target_calls == 1
        evaluator.utility((2, 3), 1)
        assert model.target_calls == 2
        assert model.calls == 0

    def test_target_utility_matches_full_vector_utility(self, scenario):
        target_first = UtilityEvaluator(scenario, TargetCountingModel())
        full_first = UtilityEvaluator(scenario, TargetCountingModel())
        assert target_first.utility((2, 3), 1) == full_first.utilities((2, 3))[1]

    def test_utilities_populates_shared_full_cache(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        evaluator.utilities((2, 3))
        assert evaluator.evaluations == 1
        assert evaluator.target_evaluations == 0
        assert evaluator.cache_size() == 1

    def test_target_path_read_from_the_model(self, scenario):
        assert not UtilityEvaluator(scenario, CountingModel()).target_path
        assert UtilityEvaluator(scenario, TargetCountingModel()).target_path


class TestQuantities:
    def test_cost_uses_equation_one(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        cost = evaluator.cost((3, 0), 0)
        # From CountingModel: P=0.05, O=0.2, I=0.3; prices C^P=1, C^G=0.5.
        assert cost == pytest.approx(0.05 * 1.0 + (0.2 - 0.3) * 0.5)

    def test_zero_share_has_zero_utility(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        assert evaluator.utility((0, 5), 0) == 0.0

    def test_utilities_vector(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        values = evaluator.utilities((2, 3))
        assert values == [evaluator.utility((2, 3), 0), evaluator.utility((2, 3), 1)]

    def test_welfare_consistent_with_fairness_module(self, scenario):
        from repro.market.fairness import welfare

        evaluator = UtilityEvaluator(scenario, CountingModel())
        sharing = (2, 3)
        assert evaluator.welfare(sharing, 0.0) == pytest.approx(
            welfare(0.0, sharing, evaluator.utilities(sharing))
        )

    def test_baseline_exposed(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        base = evaluator.baseline(0)
        assert base.cost > 0
        assert 0 < base.utilization < 1

    def test_gamma_validated(self, scenario):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            UtilityEvaluator(scenario, CountingModel(), gamma=2.0)


class TestSeedTarget:
    def test_seed_then_query_skips_model(self, scenario):
        model = TargetCountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        params = PerformanceParams(
            lent_mean=0.1, borrowed_mean=0.2, forward_rate=0.05, utilization=0.7
        )
        assert evaluator.seed_target([1, 0], 0, params) is True
        assert evaluator.params_target([1, 0], 0) == params
        assert (model.calls, model.target_calls) == (0, 0)
        assert evaluator.target_evaluations == 1

    def test_duplicate_seed_is_ignored(self, scenario):
        evaluator = UtilityEvaluator(scenario, TargetCountingModel())
        params = PerformanceParams(
            lent_mean=0.1, borrowed_mean=0.2, forward_rate=0.05, utilization=0.7
        )
        assert evaluator.seed_target([1, 0], 0, params) is True
        assert evaluator.seed_target([1, 0], 0, params) is False
        assert evaluator.target_evaluations == 1

    def test_seed_after_evaluation_is_ignored(self, scenario):
        evaluator = UtilityEvaluator(scenario, TargetCountingModel())
        first = evaluator.params_target([1, 0], 0)
        replacement = PerformanceParams(
            lent_mean=9.9, borrowed_mean=9.9, forward_rate=9.9, utilization=0.9
        )
        assert evaluator.seed_target([1, 0], 0, replacement) is False
        # First writer wins: the evaluated result stays authoritative.
        assert evaluator.params_target([1, 0], 0) == first


class TestSeedParams:
    def test_seed_then_any_query_skips_model(self, scenario):
        model = CountingModel()
        evaluator = UtilityEvaluator(scenario, model)
        params = _fixed_params(scenario.with_sharing((1, 2)))
        assert evaluator.seed_params([1, 2], params) is True
        assert evaluator.params_target([1, 2], 1) == params[1]
        assert evaluator.utilities([1, 2]) == [
            evaluator.utility([1, 2], 0),
            evaluator.utility([1, 2], 1),
        ]
        assert model.calls == 0
        assert evaluator.evaluations == 1

    def test_duplicate_seed_is_ignored(self, scenario):
        evaluator = UtilityEvaluator(scenario, CountingModel())
        first = evaluator.params([1, 2])
        replacement = _fixed_params(scenario.with_sharing((9, 9)))
        assert evaluator.seed_params([1, 2], replacement) is False
        assert evaluator.params([1, 2]) is first
        assert evaluator.evaluations == 1
