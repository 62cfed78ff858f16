"""Schema round-trip stability and strict validation rejections."""

import json

import pytest

from repro.analysis.sanitize import InvariantViolation
from repro.scenarios.schema import (
    SCHEMA_VERSION,
    RunConfig,
    ScenarioSpec,
    load_spec,
    save_spec,
    spec_from_dict,
)
from repro.workload.profiles import ArrivalSpec, DemandProfile, ServiceSpec

from tests.scenarios.helpers import tiny_cloud, tiny_spec


class TestRoundTrip:
    def test_json_dataclass_json_is_byte_stable(self):
        spec = tiny_spec()
        first = spec.canonical_json()
        rebuilt = spec_from_dict(json.loads(first))
        assert rebuilt.canonical_json() == first
        assert rebuilt == spec

    def test_round_trip_preserves_content_hash(self):
        spec = tiny_spec()
        rebuilt = spec_from_dict(spec.to_dict())
        assert rebuilt.content_hash() == spec.content_hash()

    def test_round_trip_with_demand_profiles(self):
        clouds = (tiny_cloud("sc1"), tiny_cloud("sc2"))
        demand = (
            DemandProfile(
                arrival=ArrivalSpec(
                    kind="mmpp",
                    rates=(1.5, 4.5),
                    transitions=((-0.01, 0.01), (0.01, -0.01)),
                ),
                service=ServiceSpec(kind="erlang", stages=3),
            ),
            DemandProfile(service=ServiceSpec(kind="phase-fit", scv=4.0)),
        )
        spec = ScenarioSpec(name="mmpp-pair", clouds=clouds, demand=demand)
        rebuilt = spec_from_dict(json.loads(spec.canonical_json()))
        assert rebuilt == spec
        assert rebuilt.canonical_json() == spec.canonical_json()

    def test_save_load_file(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec
        # Canonical form plus exactly one trailing newline.
        assert path.read_text() == spec.canonical_json() + "\n"

    def test_default_demand_is_poisson_exponential(self):
        spec = tiny_spec()
        assert len(spec.demand) == len(spec.clouds)
        assert all(p == DemandProfile() for p in spec.demand)

    def test_content_hash_changes_with_content(self):
        base = tiny_spec()
        other = tiny_spec(seed=8)
        assert base.content_hash() != other.content_hash()


class TestRejections:
    def test_unknown_schema_version(self):
        data = tiny_spec().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(InvariantViolation) as excinfo:
            spec_from_dict(data)
        assert excinfo.value.invariant == "scenario-schema-version"

    def test_schema_v1_spec_rejected(self):
        data = tiny_spec().to_dict()
        data["schema_version"] = 1
        data["run"].update(backend="thread", workers=2)
        with pytest.raises(InvariantViolation) as excinfo:
            spec_from_dict(data)
        assert excinfo.value.invariant == "scenario-schema-version"

    def test_unknown_top_level_field(self):
        data = tiny_spec().to_dict()
        data["extra"] = 1
        with pytest.raises(InvariantViolation) as excinfo:
            spec_from_dict(data)
        assert "extra" in str(excinfo.value)

    def test_missing_name(self):
        data = tiny_spec().to_dict()
        del data["name"]
        with pytest.raises(InvariantViolation):
            spec_from_dict(data)

    def test_bad_name_pattern(self):
        with pytest.raises(InvariantViolation):
            tiny_spec(name="Bad Name!")

    def test_bad_sla(self):
        data = tiny_spec().to_dict()
        data["clouds"][0]["sla_bound"] = -0.5
        with pytest.raises(InvariantViolation) as excinfo:
            spec_from_dict(data)
        assert excinfo.value.invariant == "scenario-schema"

    def test_negative_arrival_rate(self):
        data = tiny_spec().to_dict()
        data["clouds"][0]["arrival_rate"] = -3.0
        with pytest.raises(InvariantViolation):
            spec_from_dict(data)

    def test_unknown_cloud_field(self):
        data = tiny_spec().to_dict()
        data["clouds"][0]["gpu_count"] = 8
        with pytest.raises(InvariantViolation):
            spec_from_dict(data)

    def test_duplicate_cloud_names(self):
        with pytest.raises(InvariantViolation):
            ScenarioSpec(name="dup", clouds=(tiny_cloud("sc1"), tiny_cloud("sc1")))

    def test_empty_clouds(self):
        with pytest.raises(InvariantViolation):
            ScenarioSpec(name="empty", clouds=())

    def test_demand_length_mismatch(self):
        with pytest.raises(InvariantViolation) as excinfo:
            ScenarioSpec(
                name="mismatch",
                clouds=(tiny_cloud("sc1"), tiny_cloud("sc2")),
                demand=(DemandProfile(),),
            )
        assert excinfo.value.invariant == "scenario-schema"

    def test_demand_arrival_rate_inconsistency(self):
        # An MMPP whose stationary mean (3.0) disagrees with the SC's
        # arrival rate must be rejected, not silently accepted.
        mmpp = ArrivalSpec(
            kind="mmpp", rates=(2.0, 4.0), transitions=((-0.01, 0.01), (0.01, -0.01))
        )
        with pytest.raises(InvariantViolation) as excinfo:
            ScenarioSpec(
                name="inconsistent",
                clouds=(tiny_cloud("sc1", arrival_rate=5.0),),
                demand=(DemandProfile(arrival=mmpp),),
            )
        assert excinfo.value.invariant == "scenario-demand-consistency"

    def test_demand_service_mean_inconsistency(self):
        h2 = ServiceSpec(
            kind="hyperexponential", probabilities=(0.5, 0.5), rates=(1.0, 10.0)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            ScenarioSpec(
                name="slow-service",
                clouds=(tiny_cloud("sc1"),),
                demand=(DemandProfile(service=h2),),
            )
        assert excinfo.value.invariant == "scenario-demand-consistency"

    def test_non_dict_input(self):
        with pytest.raises(InvariantViolation):
            spec_from_dict([1, 2, 3])

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvariantViolation):
            load_spec(path)


class TestRunConfig:
    def test_defaults_round_trip(self):
        run = RunConfig()
        assert RunConfig.from_dict(run.to_dict()) == run

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -1},
            {"seed": 1.5},
            {"alpha": float("nan")},
            {"strategy_step": True},
            {"model": "exact"},
            {"gamma": 1.5},
            {"alpha": -0.1},
            {"strategy_step": 0},
            {"horizon": 0.0},
            {"model": "auto"},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(InvariantViolation) as excinfo:
            RunConfig(**overrides)
        assert excinfo.value.invariant == "scenario-schema"

    def test_unknown_field_rejected(self):
        with pytest.raises(InvariantViolation):
            RunConfig.from_dict({"retries": 3})

    @pytest.mark.parametrize("field", ["backend", "workers"])
    def test_schema_v1_execution_fields_rejected(self, field):
        # Schema v2 dropped the execution fields; parallel width is the
        # caller's choice.
        with pytest.raises(InvariantViolation):
            RunConfig.from_dict({field: "serial" if field == "backend" else 2})

    def test_json_nan_alpha_rejected_but_inf_kept(self):
        with pytest.raises(InvariantViolation):
            RunConfig.from_dict(json.loads('{"alpha": NaN}'))
        # alpha = inf is the paper's max-min fairness level.
        assert RunConfig.from_dict(json.loads('{"alpha": Infinity}')).alpha == float("inf")
