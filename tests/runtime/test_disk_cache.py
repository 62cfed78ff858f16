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
    DiskParamsCache,
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

    def test_base_fingerprint_ignores_sharing(self):
        a = scenario_fingerprint(_scenario(shares=(2, 1)), include_sharing=False)
        b = scenario_fingerprint(_scenario(shares=(1, 2)), include_sharing=False)
        assert a == b

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
        assert cache.keys() == ["k1", "k2"]
        assert cache.discard("k1") is True
        assert cache.discard("k1") is False
        assert cache.keys() == ["k2"]

    def test_survives_reopening(self, tmp_path):
        DiskCache(tmp_path).store("persist", {"y": 2})
        assert DiskCache(tmp_path).load("persist")["y"] == 2


class TestDiskParamsCache:
    def _params(self, n=2):
        return [
            PerformanceParams(
                lent_mean=0.5 + i,
                borrowed_mean=0.25,
                forward_rate=0.1,
                utilization=0.6,
            )
            for i in range(n)
        ]

    def test_miss_raises_keyerror(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with pytest.raises(KeyError):
            cache[(2, 1)]

    def test_set_get_roundtrip(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        params = self._params()
        cache[(2, 1)] = params
        assert cache[(2, 1)] == params

    def test_persists_across_instances(self, tmp_path):
        first = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        first[(2, 1)] = self._params()
        second = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        restored = second[(2, 1)]
        assert [p.lent_mean for p in restored] == [0.5, 1.5]

    def test_namespaced_by_model(self, tmp_path):
        from repro.perf.approximate import ApproximateModel

        pooled_view = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        pooled_view[(2, 1)] = self._params()
        approx_view = DiskParamsCache(tmp_path, _scenario(), ApproximateModel())
        with pytest.raises(KeyError):
            approx_view[(2, 1)]

    def test_mapping_protocol(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()
        cache[(0, 0)] = self._params()
        assert len(cache) == 2
        assert set(cache) == {(2, 1), (0, 0)}
        assert (2, 1) in cache
        del cache[(2, 1)]
        assert (2, 1) not in cache
        assert len(DiskParamsCache(tmp_path, _scenario(), PooledModel())) == 1

    def test_corrupt_entry_recovers(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage")
        fresh = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with pytest.raises(KeyError):
            fresh[(2, 1)]
        # The corrupt file is gone; a re-store works normally.
        fresh[(2, 1)] = self._params()
        assert fresh[(2, 1)] == self._params()


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

    def test_params_cache_rejects_tampered_values(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()

        def corrupt(payload):
            payload["params"][0]["lent_mean"] = 99.0

        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            corrupt(payload)
            path.write_text(json.dumps(payload))
        fresh = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with sanitized(False):
            with pytest.raises(KeyError):
                fresh[(2, 1)]

    def test_params_cache_rejects_stale_schema_version(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["version"] = CACHE_FORMAT_VERSION - 1
            payload["digest"] = payload_digest(payload)
            path.write_text(json.dumps(payload))
        fresh = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with pytest.raises(KeyError):
            fresh[(2, 1)]

    def test_params_cache_rejects_foreign_namespace(self, tmp_path):
        # A cache file copied under another key (or a renamed directory)
        # carries a valid digest but describes different inputs.
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()
        src = next(iter(tmp_path.glob("*.json")))
        foreign_key = cache._hash((0, 0))
        src.rename(tmp_path / f"{foreign_key}.json")
        fresh = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with sanitized(False):
            with pytest.raises(KeyError):
                fresh[(0, 0)]

    def test_params_cache_foreign_namespace_raises_under_sanitizer(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()
        src = next(iter(tmp_path.glob("*.json")))
        foreign_key = cache._hash((0, 0))
        src.rename(tmp_path / f"{foreign_key}.json")
        fresh = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with sanitized(True):
            with pytest.raises(InvariantViolation) as exc:
                fresh[(0, 0)]
        assert exc.value.invariant == "cache-namespace"

    def test_params_cache_checks_loaded_params_under_sanitizer(self, tmp_path):
        cache = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        cache[(2, 1)] = self._params()
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["params"][0]["lent_mean"] = float("nan")
            payload["digest"] = payload_digest(payload)
            path.write_text(json.dumps(payload))
        fresh = DiskParamsCache(tmp_path, _scenario(), PooledModel())
        with sanitized(True):
            with pytest.raises(InvariantViolation) as exc:
                fresh[(2, 1)]
        assert exc.value.invariant == "params-finite"


def _write_vectors(task):
    """Process-pool task: store every payload through one shared cache dir."""
    cache, payloads = task
    for vector, params in payloads:
        cache[vector] = params
    return len(payloads)


class TestProcessWriters:
    def test_concurrent_writers_land_every_vector(self, tmp_path):
        # Temp file + os.replace makes each write atomic, so process-pool
        # workers sharing one cache directory never leave a torn entry.
        from repro.runtime.executor import ProcessExecutor
        from tests.helpers import StubModel

        scenario = FederationScenario(
            clouds=(
                SmallCloud(name="a", vms=4, arrival_rate=2.0),
                SmallCloud(name="b", vms=5, arrival_rate=3.0),
            )
        )
        model = StubModel()
        cache = DiskParamsCache(tmp_path, scenario, model, memory_size=3)
        vectors = sorted({(i % 5, j % 6) for i in range(4) for j in range(4)})
        payloads = [
            (vector, model.evaluate(scenario.with_sharing(vector)))
            for vector in vectors
        ]
        tasks = [(cache, payloads[offset:] + payloads[:offset]) for offset in range(4)]
        written = ProcessExecutor(4).map(_write_vectors, tasks)
        assert written == [len(vectors)] * 4

        fresh = DiskParamsCache(tmp_path, scenario, model)
        assert len(fresh) == len(vectors)
        for vector, params in payloads:
            assert fresh[vector] == params
