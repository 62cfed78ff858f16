"""Level-prefix memoization semantics of the approximate model.

The cache key of a level is ``(model config, ordered prefix of SC specs,
pool size)`` — complete by construction, so hits can only return what a
cold build would have produced.  These tests pin that: memoized results
equal cold results bitwise, rotations actually share prefixes, any
change to a prefix (or the model configuration) invalidates reuse, and
the cache's capacity follows the largest federation evaluated.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.bench.scenarios import kscale_scenario
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.exceptions import ConfigurationError
from repro.perf.approximate import ApproximateModel
from repro.runtime.cache import model_fingerprint


#: Chain length of the prefix-reuse cases.
K_MEMO = 6


def scenario_3sc(rates=(3.0, 3.5, 2.5)) -> FederationScenario:
    return FederationScenario(
        tuple(
            SmallCloud(
                name=f"sc{i}", vms=4, arrival_rate=rate, shared_vms=1 + i % 2
            )
            for i, rate in enumerate(rates)
        )
    )


class TestMemoizedEquality:
    def test_memoized_evaluate_equals_cold(self):
        scenario = scenario_3sc()
        cold = ApproximateModel(level_cache=False)
        memo = ApproximateModel()
        assert memo.evaluate(scenario) == cold.evaluate(scenario)

    def test_repeated_evaluate_target_hits_cache(self):
        scenario = scenario_3sc()
        model = ApproximateModel()
        first = model.evaluate_target(scenario)
        misses_after_first = model.level_cache_stats()["misses"]
        second = model.evaluate_target(scenario)
        stats = model.level_cache_stats()
        assert second == first
        # The second run rebuilt nothing: only hits moved.
        assert stats["misses"] == misses_after_first
        assert stats["hits"] >= len(scenario)

    def test_rotations_share_prefixes(self):
        scenario = scenario_3sc()
        model = ApproximateModel()
        model.evaluate(scenario)
        stats = model.level_cache_stats()
        # K rotations of K levels would be K^2 cold builds; shared
        # prefixes must make at least one rotation reuse work.
        k = len(scenario)
        assert stats["misses"] < k * k
        assert stats["hits"] > 0

    def test_disabled_cache_never_counts(self):
        scenario = scenario_3sc()
        model = ApproximateModel(level_cache=False)
        model.evaluate_target(scenario)
        assert model.level_cache_stats() == {
            "size": 0,
            "maxsize": 0,
            "hits": 0,
            "misses": 0,
            "duplicate_builds": 0,
        }


class TestInvalidation:
    def test_changed_spec_misses(self):
        model = ApproximateModel()
        base = scenario_3sc()
        model.evaluate_target(base)
        misses = model.level_cache_stats()["misses"]
        # Change the *first* SC's arrival rate: every prefix differs, so
        # the second chain must rebuild all levels.
        changed = scenario_3sc(rates=(3.1, 3.5, 2.5))
        model.evaluate_target(changed)
        assert model.level_cache_stats()["misses"] == misses + len(base)

    @pytest.mark.parametrize(
        "field, step, position, rebuilt",
        # A rate or SLA drift at position p leaves sum(S), and so every
        # pool, alone: the p-level prefix is reused, the K - p suffix
        # rebuilt.  A share move changes sum(S), re-keying all K pools.
        [("arrival_rate", 0.001, p, K_MEMO - p) for p in range(K_MEMO)]
        + [("sla_bound", 0.5, p, K_MEMO - p) for p in (1, 3, K_MEMO - 1)]
        + [("shared_vms", 1, p, K_MEMO) for p in (0, 2, K_MEMO - 1)],
    )
    def test_shared_prefix_reused_when_only_tail_changes(
        self, field, step, position, rebuilt
    ):
        base = kscale_scenario(K_MEMO, sharers=3, vms=2)
        clouds = list(base.clouds)
        cloud = clouds[position]
        clouds[position] = replace(cloud, **{field: getattr(cloud, field) + step})
        moved = FederationScenario(tuple(clouds))
        assert (moved.total_shared() != base.total_shared()) == (field == "shared_vms")

        model = ApproximateModel()
        model.evaluate_target(base)
        misses = model.level_cache_stats()["misses"]
        warm = model.evaluate_target(moved)
        assert model.level_cache_stats()["misses"] == misses + rebuilt
        # The reused prefix answers exactly what a cold build would.
        assert warm == ApproximateModel(level_cache=False).evaluate_target(moved)

    def test_different_config_never_shares(self):
        scenario = scenario_3sc()
        strict = ApproximateModel(outcome_threshold=1e-9)
        loose = ApproximateModel(outcome_threshold=1e-5)
        # Different tolerance enters the key; both instances start cold.
        strict.evaluate_target(scenario)
        loose.evaluate_target(scenario)
        assert strict._config_key() != loose._config_key()

    def test_level_cache_switch_does_not_enter_fingerprint(self):
        # Memoized and cold levels are bit-identical, so both settings
        # share one disk-cache namespace by design.
        assert model_fingerprint(ApproximateModel()) == model_fingerprint(
            ApproximateModel(level_cache=False)
        )

    @pytest.mark.parametrize("max_outcomes", [0, -1])
    def test_rejects_non_positive_max_outcomes(self, max_outcomes):
        # -1 would silently drop the least likely outcome (kept[:-1]);
        # 0 would keep none, zeroing every parameter.
        with pytest.raises(ConfigurationError):
            ApproximateModel(max_outcomes=max_outcomes)


class TestCapacity:
    def test_default_cache_grows_with_k_and_never_shrinks(self):
        model = ApproximateModel()
        assert model.level_cache_stats()["maxsize"] == 64
        model.evaluate_target(kscale_scenario(20, sharers=3, vms=2))
        assert model.level_cache_stats()["maxsize"] == 6 * 20 + 16
        model.evaluate_target(kscale_scenario(3, sharers=3, vms=2))
        assert model.level_cache_stats()["maxsize"] == 6 * 20 + 16


class TestProcessPoolFriendliness:
    def test_model_pickles_with_cold_caches(self):
        scenario = scenario_3sc()
        model = ApproximateModel()
        model.evaluate_target(scenario)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.level_cache_stats()["size"] == 0
        # The clone still produces the same parameters.
        assert clone.evaluate_target(scenario) == model.evaluate_target(scenario)
