"""Tests for the persistent model-solution cache."""

import dataclasses
import json

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.perf.params import PerformanceParams
from repro.perf.pooled import PooledModel
from repro.analysis.sanitize import InvariantViolation, sanitized
from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    CachedModel,
    DiskCache,
    model_fingerprint,
    payload_digest,
    scenario_fingerprint,
)


def _scenario(shares=(2, 1), rates=(4.0, 3.0)):
    clouds = [
        SmallCloud(
            name=f"sc{i}",
            vms=6,
            arrival_rate=rate,
            service_rate=2.0,
            shared_vms=share,
        )
        for i, (rate, share) in enumerate(zip(rates, shares))
    ]
    return FederationScenario(clouds)


class TestFingerprints:
    def test_scenario_fingerprint_ignores_names_and_prices(self):
        base = _scenario()
        renamed = FederationScenario(
            [dataclasses.replace(c, name=f"other{i}") for i, c in enumerate(base)]
        )
        assert scenario_fingerprint(base) == scenario_fingerprint(renamed)

    def test_scenario_fingerprint_sees_rates(self):
        assert scenario_fingerprint(_scenario(rates=(4.0, 3.0))) != scenario_fingerprint(
            _scenario(rates=(4.5, 3.0))
        )

    def test_sharing_included_by_default(self):
        a = scenario_fingerprint(_scenario(shares=(2, 1)))
        b = scenario_fingerprint(_scenario(shares=(1, 2)))
        assert a != b

    def test_model_fingerprint_distinguishes_types(self):
        from repro.perf.approximate import ApproximateModel

        assert model_fingerprint(PooledModel()) != model_fingerprint(ApproximateModel())

    def test_model_fingerprint_ignores_runtime_plumbing(self):
        from repro.perf.approximate import ApproximateModel
        from repro.runtime.executor import ProcessExecutor

        assert model_fingerprint(ApproximateModel()) == model_fingerprint(
            ApproximateModel(executor=ProcessExecutor(4))
        )


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("abc", {"x": 1})
        payload = cache.load("abc")
        assert payload is not None
        assert payload["version"] == CACHE_FORMAT_VERSION
        assert payload["x"] == 1
        assert payload["digest"] == payload_digest(payload)

    def test_missing_is_none(self, tmp_path):
        assert DiskCache(tmp_path).load("nope") is None

    def test_corrupt_file_discarded(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.load("bad") is None
        assert not (tmp_path / "bad.json").exists()

    def test_version_mismatch_discarded(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / "old.json").write_text(json.dumps({"version": 0, "x": 1}))
        assert cache.load("old") is None
        assert not (tmp_path / "old.json").exists()

    def test_discard_and_keys(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("k1", {})
        cache.store("k2", {})
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["k1", "k2"]
        assert cache.discard("k1") is True
        assert cache.discard("k1") is False
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["k2"]

    def test_survives_reopening(self, tmp_path):
        DiskCache(tmp_path).store("persist", {"y": 2})
        assert DiskCache(tmp_path).load("persist")["y"] == 2


class TestCachedModel:
    def test_hit_miss_accounting_and_identical_values(self, tmp_path):
        scenario = _scenario()
        cached = CachedModel(PooledModel(), tmp_path)
        direct = PooledModel().evaluate(scenario)
        first = cached.evaluate(scenario)
        second = cached.evaluate(scenario)
        assert (cached.misses, cached.hits) == (1, 1)
        assert first == direct
        assert second == direct

    def test_cache_shared_across_instances(self, tmp_path):
        scenario = _scenario()
        CachedModel(PooledModel(), tmp_path).evaluate(scenario)
        warm = CachedModel(PooledModel(), tmp_path)
        warm.evaluate(scenario)
        assert (warm.misses, warm.hits) == (0, 1)

    def test_evaluate_target(self, tmp_path):
        scenario = _scenario()
        cached = CachedModel(PooledModel(), tmp_path)
        direct = PooledModel().evaluate_target(scenario, 0)
        assert cached.evaluate_target(scenario, 0) == direct
        assert cached.evaluate_target(scenario, 0) == direct
        assert (cached.misses, cached.hits) == (1, 1)

    def test_target_none_means_last(self, tmp_path):
        scenario = _scenario()
        cached = CachedModel(PooledModel(), tmp_path)
        cached.evaluate_target(scenario)
        assert cached.evaluate_target(scenario, len(scenario) - 1) == PooledModel(
        ).evaluate_target(scenario, len(scenario) - 1)
        assert cached.hits == 1

    def test_namespaced_by_model(self, tmp_path):
        from repro.perf.approximate import ApproximateModel

        scenario = _scenario()
        CachedModel(PooledModel(), tmp_path).evaluate(scenario)
        approx_view = CachedModel(ApproximateModel(), tmp_path)
        approx_view.evaluate(scenario)
        assert (approx_view.misses, approx_view.hits) == (1, 0)

    def test_corrupt_entry_resolved_by_resolve(self, tmp_path):
        scenario = _scenario()
        cached = CachedModel(PooledModel(), tmp_path)
        cached.evaluate(scenario)
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage")
        again = cached.evaluate(scenario)
        assert again == PooledModel().evaluate(scenario)
        assert cached.misses == 2


class TestCacheIntegrity:
    """Digest, schema-version, and namespace rejection (sanitizer-aware)."""

    def _params(self, n=2):
        return [
            PerformanceParams(
                lent_mean=0.5, borrowed_mean=0.25, forward_rate=0.1, utilization=0.6
            )
            for _ in range(n)
        ]

    def _tamper(self, root, mutate):
        paths = list(root.glob("*.json"))
        assert paths, "expected a stored cache entry"
        for path in paths:
            payload = json.loads(path.read_text())
            mutate(payload)
            path.write_text(json.dumps(payload))
        return paths

    def test_tampered_payload_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("entry", {"x": 1})

        def bump(payload):
            payload["x"] = 999  # digest now stale

        self._tamper(tmp_path, bump)
        with sanitized(False):
            assert cache.load("entry") is None
        assert not (tmp_path / "entry.json").exists()

    def test_tampered_payload_raises_under_sanitizer(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("entry", {"x": 1})
        self._tamper(tmp_path, lambda payload: payload.update(x=999))
        with sanitized(True):
            with pytest.raises(InvariantViolation) as exc:
                cache.load("entry")
        assert exc.value.invariant == "cache-digest"

    def test_missing_digest_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("entry", {"x": 1})
        self._tamper(tmp_path, lambda payload: payload.pop("digest"))
        with sanitized(False):
            assert cache.load("entry") is None

    def _stored(self, root, scenario):
        """A warm cache dir: one full-vector entry for ``scenario``."""
        CachedModel(PooledModel(), root).evaluate(scenario)
        return CachedModel(PooledModel(), root)

    def test_params_cache_rejects_tampered_values(self, tmp_path):
        scenario = _scenario()
        fresh = self._stored(tmp_path, scenario)

        def corrupt(payload):
            payload["params"][0]["lent_mean"] = 99.0  # digest now stale

        self._tamper(tmp_path, corrupt)
        with sanitized(False):
            assert fresh.evaluate(scenario) == PooledModel().evaluate(scenario)
        assert (fresh.misses, fresh.hits) == (1, 0)

    def test_params_cache_rejects_stale_schema_version(self, tmp_path):
        scenario = _scenario()
        fresh = self._stored(tmp_path, scenario)

        def downgrade(payload):
            payload["version"] = CACHE_FORMAT_VERSION - 1
            payload["digest"] = payload_digest(payload)

        self._tamper(tmp_path, downgrade)
        assert fresh.evaluate(scenario) == PooledModel().evaluate(scenario)
        assert (fresh.misses, fresh.hits) == (1, 0)

    def _rename_to_foreign_key(self, root, foreign):
        # A cache file copied under another key (or a renamed directory)
        # carries a valid digest but describes different inputs.
        src = next(iter(root.glob("*.json")))
        cached = CachedModel(PooledModel(), root)
        foreign_key = cached._hash(cached._fingerprint(foreign, None))
        src.rename(root / f"{foreign_key}.json")
        return cached

    def test_params_cache_rejects_foreign_namespace(self, tmp_path):
        foreign = _scenario(shares=(0, 0))
        fresh = self._stored(tmp_path, _scenario())
        self._rename_to_foreign_key(tmp_path, foreign)
        with sanitized(False):
            assert fresh.evaluate(foreign) == PooledModel().evaluate(foreign)
        assert (fresh.misses, fresh.hits) == (1, 0)

    def test_params_cache_foreign_namespace_raises_under_sanitizer(self, tmp_path):
        foreign = _scenario(shares=(0, 0))
        fresh = self._stored(tmp_path, _scenario())
        self._rename_to_foreign_key(tmp_path, foreign)
        with sanitized(True):
            with pytest.raises(InvariantViolation) as exc:
                fresh.evaluate(foreign)
        assert exc.value.invariant == "cache-namespace"

    def test_foreign_target_is_a_miss(self, tmp_path):
        # Same scenario, different target: the identity check covers the
        # target index as well as the sharing vector.
        scenario = _scenario()
        CachedModel(PooledModel(), tmp_path).evaluate_target(scenario, 0)
        cached = CachedModel(PooledModel(), tmp_path)
        src = next(iter(tmp_path.glob("*.json")))
        src.rename(tmp_path / f"{cached._hash(cached._fingerprint(scenario, 1))}.json")
        with sanitized(False):
            assert cached.evaluate_target(scenario, 1) == PooledModel().evaluate_target(
                scenario, 1
            )
        assert (cached.misses, cached.hits) == (1, 0)

    def test_params_cache_checks_loaded_params_under_sanitizer(self, tmp_path):
        scenario = _scenario()
        fresh = self._stored(tmp_path, scenario)

        def poison(payload):
            payload["params"][0]["lent_mean"] = float("nan")
            payload["digest"] = payload_digest(payload)

        self._tamper(tmp_path, poison)
        with sanitized(True):
            with pytest.raises(InvariantViolation) as exc:
                fresh.evaluate(scenario)
        assert exc.value.invariant == "params-finite"


def _evaluate_vectors(task):
    """Process-pool task: solve every scenario through one shared cache dir."""
    cached, scenarios = task
    for scenario in scenarios:
        cached.evaluate(scenario)
    return len(scenarios)


class TestProcessWriters:
    def test_concurrent_writers_land_every_vector(self, tmp_path):
        # Temp file + os.replace makes each write atomic, so process-pool
        # workers sharing one cache directory never leave a torn entry.
        from repro.runtime.executor import ProcessExecutor
        from tests.helpers import StubModel

        base = FederationScenario(
            clouds=(
                SmallCloud(name="a", vms=4, arrival_rate=2.0),
                SmallCloud(name="b", vms=5, arrival_rate=3.0),
            )
        )
        vectors = sorted({(i % 5, j % 6) for i in range(4) for j in range(4)})
        scenarios = [base.with_sharing(vector) for vector in vectors]
        cached = CachedModel(StubModel(), tmp_path)
        tasks = [(cached, scenarios[offset:] + scenarios[:offset]) for offset in range(4)]
        written = ProcessExecutor(4).map(_evaluate_vectors, tasks)
        assert written == [len(vectors)] * 4

        assert len(list(tmp_path.glob("*.json"))) == len(vectors)
        fresh = CachedModel(StubModel(), tmp_path)
        for scenario in scenarios:
            assert fresh.evaluate(scenario) == StubModel().evaluate(scenario)
        assert (fresh.misses, fresh.hits) == (0, len(vectors))


class TestWarmCacheIdentity:
    def test_fig8b_rows_equal_uncached_cold_and_warm(self, tmp_path):
        # The evaluator above the cache counts model calls ("model
        # evals"); a warm cache must leave those counts untouched.
        from repro.bench.fig8 import run_fig8b

        def run(cache_dir=None):
            return run_fig8b(sizes=(2,), tabu_distances=(1,), vms=5, cache_dir=cache_dir)

        uncached = run()
        assert run(tmp_path) == uncached  # cold
        assert run(tmp_path) == uncached  # warm
