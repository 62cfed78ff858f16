"""Scenario execution: solve/simulate, digests, cache namespacing."""

import pytest

from repro.scenarios.runner import (
    make_model,
    make_params_cache,
    observables_digest,
    outcome_observables,
    run_spec,
    simulate_spec,
    solve_spec,
)
from tests.scenarios.helpers import tiny_spec


class TestFactories:
    def test_model_from_run_config(self):
        from repro.perf.approximate import ApproximateModel
        from repro.perf.pooled import PooledModel

        assert isinstance(make_model(tiny_spec()), PooledModel)
        assert isinstance(make_model(tiny_spec(model="approximate")), ApproximateModel)

    def test_cache_namespaced_by_content_hash(self, tmp_path):
        spec_a = tiny_spec()
        spec_b = tiny_spec(seed=8)
        model = make_model(spec_a)
        cache_a = make_params_cache(spec_a, model, str(tmp_path))
        cache_b = make_params_cache(spec_b, model, str(tmp_path))
        federation = spec_a.federation()
        params = model.evaluate(federation)
        key = tuple(c.shared_vms for c in federation)
        cache_a[key] = params
        # Same federation, same key, same directory — but a different
        # scenario hash must not see the entry.
        assert key in cache_a
        assert key not in cache_b

    def test_no_cache_dir_means_no_cache(self):
        spec = tiny_spec()
        assert make_params_cache(spec, make_model(spec), None) is None


class TestSolve:
    def test_solve_is_bitwise_stable_across_backends(self):
        spec = tiny_spec()
        serial = observables_digest(outcome_observables(solve_spec(spec)))
        processed = observables_digest(outcome_observables(solve_spec(spec, workers=2)))
        assert serial == processed

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
