"""Scenario execution: solve/simulate, digests, the persistent cache."""

import pytest

from repro.scenarios.runner import (
    make_model,
    observables_digest,
    outcome_observables,
    run_spec,
    simulate_spec,
    solve_spec,
)
from repro.scenarios.schema import MODELS
from tests.scenarios.helpers import tiny_spec


class TestFactories:
    def test_model_from_run_config(self):
        from repro.perf.approximate import ApproximateModel
        from repro.perf.pooled import PooledModel

        assert isinstance(make_model(tiny_spec().run.model), PooledModel)
        assert isinstance(
            make_model(tiny_spec(model="approximate").run.model), ApproximateModel
        )
        with pytest.raises(ValueError):
            make_model("oracle")

    @pytest.mark.parametrize("name", MODELS)
    def test_every_schema_model_builds(self, name):
        from repro.perf.base import PerformanceModel

        assert isinstance(make_model(name), PerformanceModel)

    def test_cache_namespaced_by_content_hash(self, tmp_path):
        # An edited spec (a different arrival rate, same names and
        # sharing) must never replay the original's solve, while a
        # price-only edit legitimately shares it.
        from dataclasses import replace

        from repro.runtime.cache import CachedModel

        spec = tiny_spec()
        CachedModel(make_model(spec.run.model), tmp_path).evaluate(spec.federation())
        edited = replace(spec.clouds[0], arrival_rate=3.5)
        repriced = replace(spec.clouds[0], federation_price=6.0)
        for cloud, hits in ((edited, 0), (repriced, 1)):
            federation = replace(spec, clouds=(cloud, spec.clouds[1])).federation()
            cached = CachedModel(make_model(spec.run.model), tmp_path)
            cached.evaluate(federation)
            assert cached.hits == hits

    def test_no_cache_dir_means_no_cache(self, tmp_path):
        from repro.runtime.cache import cached_model

        model = make_model(tiny_spec().run.model)
        assert cached_model(model, None) is model
        assert cached_model(model, tmp_path).model is model


class TestSolve:
    def test_solve_is_bitwise_stable_across_backends(self):
        spec = tiny_spec()
        serial = observables_digest(outcome_observables(solve_spec(spec)))
        processed = observables_digest(outcome_observables(solve_spec(spec, workers=2)))
        assert serial == processed

    def test_solve_is_bitwise_stable_across_cold_and_warm_cache(self, tmp_path):
        spec = tiny_spec()
        plain = observables_digest(outcome_observables(solve_spec(spec)))
        for _ in ("cold", "warm"):
            cached = solve_spec(spec, cache_dir=str(tmp_path))
            assert observables_digest(outcome_observables(cached)) == plain
        assert any(tmp_path.glob("*.json"))

    def test_run_spec_solve_report(self):
        spec = tiny_spec()
        report = run_spec(spec, mode="solve")
        assert report["scenario"] == spec.name
        assert report["hash"] == spec.content_hash()
        assert len(report["digest"]) == 64
        assert "outcome" in report

    def test_run_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_spec(tiny_spec(), mode="train")


class TestSimulate:
    def test_simulate_default_demand(self):
        spec = tiny_spec(horizon=200.0)
        metrics = simulate_spec(spec)
        assert [m["name"] for m in metrics] == ["sc1", "sc2"]
        assert all(0.0 <= m["utilization"] <= 1.0 for m in metrics)

    def test_simulate_is_seed_deterministic(self):
        spec = tiny_spec(horizon=200.0)
        assert simulate_spec(spec) == simulate_spec(spec)

    def test_mmpp_demand_drives_the_simulator(self):
        # A library scenario with MMPP arrivals must run through the
        # arrival-process path (not plain Poisson) without error.
        from repro.scenarios.library import library_index

        spec = next(
            s for s in library_index().values() if s.family == "diurnal"
        )
        metrics = simulate_spec(spec, horizon=200.0)
        assert len(metrics) == len(spec.clouds)
