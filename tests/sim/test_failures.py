"""Failure-injection tests: schema, semantics, and welfare sweep.

Covers the :mod:`repro.sim.failures` window schema (round-trips, loud
rejection), the simulator-side semantics of each failure class (outage
conservation, limplock degradation, flash-crowd surge and drain), and
the welfare-under-failure sweep machinery.
"""

from dataclasses import replace

import pytest

from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.analysis.sanitize import InvariantViolation
from repro.exceptions import ConfigurationError, SimulationError
from repro.scenarios.library import resolve
from repro.scenarios.schema import RunConfig, ScenarioSpec, spec_from_dict
from repro.sim.engine import STEP_MODES
from repro.sim.failures import (
    FAILURE_KINDS,
    FailureWindow,
    failure_impact,
    main,
    sweep,
    validate_schedule,
    window_from_dict,
)
from repro.sim.federation import FederationSimulator
from repro.sim.trace import TraceRecorder


def federation(*clouds):
    return FederationScenario(tuple(clouds))


def loaded_pair(sla_bound=0.5):
    """A busy SC next to a lightly loaded lender."""
    return federation(
        SmallCloud(name="busy", vms=6, arrival_rate=5.4, shared_vms=3, sla_bound=sla_bound),
        SmallCloud(name="calm", vms=6, arrival_rate=2.4, shared_vms=3, sla_bound=sla_bound),
    )


# --------------------------------------------------------------------- #
# window schema
# --------------------------------------------------------------------- #


class TestFailureWindow:
    def test_kinds_constant(self):
        assert FAILURE_KINDS == ("outage", "limplock", "flash_crowd")

    def test_round_trip(self):
        for kind in FAILURE_KINDS:
            factor = 1.0 if kind == "outage" else 2.5
            window = FailureWindow(kind=kind, sc=1, start=10.0, end=20.0, factor=factor)
            assert window_from_dict(window.to_dict()) == window

    def test_to_dict_has_all_five_keys_in_order(self):
        window = FailureWindow(kind="limplock", sc=0, start=1.0, end=2.0, factor=3.0)
        assert list(window.to_dict()) == ["kind", "sc", "start", "end", "factor"]

    def test_factor_defaults_to_one(self):
        assert window_from_dict(
            {"kind": "outage", "sc": 0, "start": 0.0, "end": 1.0}
        ).factor == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown failure kind"):
            FailureWindow(kind="meteor", sc=0, start=0.0, end=1.0)

    def test_end_must_exceed_start(self):
        with pytest.raises(ConfigurationError, match="end > start"):
            FailureWindow(kind="outage", sc=0, start=5.0, end=5.0)

    def test_outage_takes_no_factor(self):
        with pytest.raises(ConfigurationError, match="no factor"):
            FailureWindow(kind="outage", sc=0, start=0.0, end=1.0, factor=2.0)

    def test_degradation_factor_below_one_rejected(self):
        for kind in ("limplock", "flash_crowd"):
            with pytest.raises(ConfigurationError, match="factor must be >= 1"):
                FailureWindow(kind=kind, sc=0, start=0.0, end=1.0, factor=0.5)

    def test_unknown_payload_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown failure-window fields"):
            window_from_dict(
                {"kind": "outage", "sc": 0, "start": 0.0, "end": 1.0, "blast": 9}
            )

    def test_missing_payload_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing fields"):
            window_from_dict({"kind": "outage", "sc": 0})


class TestValidateSchedule:
    def test_sc_out_of_range(self):
        window = FailureWindow(kind="outage", sc=3, start=0.0, end=1.0)
        with pytest.raises(ConfigurationError, match="3-SC federation"):
            validate_schedule([window], 3)

    def test_same_kind_overlap_rejected(self):
        windows = [
            FailureWindow(kind="limplock", sc=0, start=0.0, end=10.0, factor=2.0),
            FailureWindow(kind="limplock", sc=0, start=5.0, end=15.0, factor=2.0),
        ]
        with pytest.raises(ConfigurationError, match="overlapping limplock windows"):
            validate_schedule(windows, 2)

    def test_adjacent_windows_allowed(self):
        validate_schedule(
            [
                FailureWindow(kind="outage", sc=0, start=0.0, end=10.0),
                FailureWindow(kind="outage", sc=0, start=10.0, end=20.0),
            ],
            1,
        )

    def test_different_kinds_may_overlap(self):
        validate_schedule(
            [
                FailureWindow(kind="limplock", sc=0, start=0.0, end=10.0, factor=2.0),
                FailureWindow(kind="flash_crowd", sc=0, start=5.0, end=15.0, factor=2.0),
            ],
            1,
        )


class TestScenarioSpecFailures:
    def spec(self, failures=()):
        return ScenarioSpec(
            name="failure-case",
            clouds=(
                SmallCloud(name="a", vms=4, arrival_rate=3.0, shared_vms=2),
                SmallCloud(name="b", vms=4, arrival_rate=2.0, shared_vms=2),
            ),
            run=RunConfig(horizon=500.0),
            failures=failures,
        )

    def test_round_trip_preserves_failures(self):
        spec = self.spec(
            (FailureWindow(kind="flash_crowd", sc=1, start=50.0, end=150.0, factor=2.0),)
        )
        restored = spec_from_dict(spec.to_dict())
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()

    def test_empty_failures_not_serialized(self):
        """Hash stability: failure-free specs keep their historical form."""
        data = self.spec().to_dict()
        assert "failures" not in data
        assert spec_from_dict(data).failures == ()

    def test_adding_failures_changes_the_hash(self):
        healthy = self.spec()
        failed = replace(
            healthy,
            failures=(FailureWindow(kind="outage", sc=0, start=10.0, end=20.0),),
        )
        assert failed.content_hash() != healthy.content_hash()

    def test_window_past_horizon_rejected(self):
        with pytest.raises(InvariantViolation, match="past the"):
            self.spec((FailureWindow(kind="outage", sc=0, start=10.0, end=900.0),))

    def test_window_on_missing_sc_rejected(self):
        with pytest.raises(InvariantViolation, match="2-SC federation"):
            self.spec((FailureWindow(kind="outage", sc=5, start=10.0, end=20.0),))


# --------------------------------------------------------------------- #
# simulator semantics
# --------------------------------------------------------------------- #


def run_traced(scenario, failures, seed=7, horizon=400.0):
    trace = TraceRecorder()
    simulator = FederationSimulator(
        scenario, seed=seed, trace=trace, failures=failures or None
    )
    metrics = simulator.run(horizon=horizon)  # warmup 0: counters are exact
    return simulator, metrics, trace


class TestOutage:
    failures = (FailureWindow(kind="outage", sc=0, start=100.0, end=250.0),)

    def test_conservation_no_request_lost_or_double_counted(self):
        """arrivals = forwarded + served + still-in-system, per SC."""
        simulator, metrics, _ = run_traced(loaded_pair(), self.failures)
        for state, m in zip(simulator.clouds, metrics):
            in_system = state.own_running + state.borrowed_count + state.backlog
            assert m.arrivals == m.forwarded + m.served_locally + m.served_borrowed + in_system

    def test_trace_accounts_for_every_forward(self):
        """Flushed + per-arrival outage forwards + SLA forwards = forwarded."""
        _, metrics, trace = run_traced(loaded_pair(), self.failures)
        flushed = sum(e.as_dict()["flushed"] for e in trace.of_kind("outage_flush"))
        outage_forwards = len(trace.of_kind("outage_forward"))
        sla_forwards = len(
            [e for e in trace.of_kind("forward") if e.as_dict()["sc"] == 0]
        )
        assert metrics[0].forwarded == flushed + outage_forwards + sla_forwards

    def test_outage_strictly_increases_forwarding(self):
        _, healthy, _ = run_traced(loaded_pair(), ())
        _, failed, _ = run_traced(loaded_pair(), self.failures)
        assert failed[0].forwarded > healthy[0].forwarded

    def test_dead_sc_lends_nothing_during_the_window(self):
        _, _, trace = run_traced(loaded_pair(), self.failures)
        for event in trace.of_kind("serve_borrowed"):
            data = event.as_dict()
            if 100.0 <= data["time"] < 250.0:
                assert data["host"] != 0
        for event in trace.of_kind("lend_freed"):
            data = event.as_dict()
            if 100.0 <= data["time"] < 250.0:
                assert data["host"] != 0

    def test_recovery_restores_local_service(self):
        _, _, trace = run_traced(loaded_pair(), self.failures)
        assert any(
            e.time >= 250.0 and e.as_dict()["sc"] == 0
            for e in trace.of_kind("serve_local")
        )


class TestLimplock:
    failures = (
        FailureWindow(kind="limplock", sc=0, start=50.0, end=350.0, factor=4.0),
    )

    def test_degraded_sc_utility_never_improves(self):
        """Under common random numbers, limping cannot beat healthy."""
        spec = ScenarioSpec(
            name="limplock-case",
            clouds=(
                SmallCloud(name="a", vms=6, arrival_rate=5.4, shared_vms=3, sla_bound=0.5),
                SmallCloud(name="b", vms=6, arrival_rate=2.4, shared_vms=3, sla_bound=0.5),
            ),
            run=RunConfig(horizon=400.0, seed=7),
            failures=self.failures,
        )
        report = failure_impact(spec)
        degraded = report["per_sc"][0]
        assert degraded["utility_failed"] <= degraded["utility_healthy"]
        assert degraded["utility_shift"] <= 0.0

    def test_service_slowdown_raises_utilization(self):
        _, healthy, _ = run_traced(loaded_pair(), ())
        _, failed, _ = run_traced(loaded_pair(), self.failures)
        assert failed[0].utilization > healthy[0].utilization


class TestFlashCrowd:
    failures = (
        FailureWindow(kind="flash_crowd", sc=0, start=100.0, end=200.0, factor=3.0),
    )

    def test_surge_increases_arrivals(self):
        _, healthy, _ = run_traced(loaded_pair(), ())
        _, failed, _ = run_traced(loaded_pair(), self.failures)
        assert failed[0].arrivals > healthy[0].arrivals
        assert failed[1].arrivals == healthy[1].arrivals  # CRN: bystander untouched

    def test_backlog_drains_after_the_window(self):
        """The surge backlog clears once the arrival rate recovers."""
        simulator, _, trace = run_traced(
            loaded_pair(), self.failures, horizon=800.0
        )
        peak = max(
            (e.as_dict()["backlog"] for e in trace.of_kind("queue") if e.time < 200.0),
            default=0,
        )
        assert peak >= 1  # the surge actually queued work
        assert simulator.clouds[0].backlog <= peak

    def test_rate_restored_after_window(self):
        simulator, _, _ = run_traced(loaded_pair(), self.failures)
        assert simulator._arrival_factor[0] == 1.0

    def test_requires_poisson_arrivals(self):
        class _Custom:
            def next_interarrival(self):
                return 1.0

        scenario = loaded_pair()
        with pytest.raises(SimulationError, match="flash_crowd"):
            FederationSimulator(
                scenario,
                arrival_processes=[_Custom(), _Custom()],
                failures=self.failures,
            )


# --------------------------------------------------------------------- #
# welfare sweep
# --------------------------------------------------------------------- #


def small_failure_spec(name="sweep-case"):
    return ScenarioSpec(
        name=name,
        clouds=(
            SmallCloud(name="a", vms=4, arrival_rate=3.2, shared_vms=2, sla_bound=0.5),
            SmallCloud(name="b", vms=4, arrival_rate=2.0, shared_vms=2, sla_bound=0.5),
        ),
        run=RunConfig(horizon=300.0, seed=3),
        failures=(FailureWindow(kind="outage", sc=0, start=80.0, end=160.0),),
    )


class TestSweep:
    def test_failure_impact_report_shape(self):
        report = failure_impact(small_failure_spec())
        assert report["welfare_baseline"] == 0.0
        assert report["kinds"] == ["outage"]
        assert report["step_mode"] == "batched"
        assert len(report["per_sc"]) == 2
        entry = report["per_sc"][0]
        assert entry["utility_shift"] == pytest.approx(
            entry["utility_failed"] - entry["utility_healthy"]
        )

    def test_failure_impact_mode_independent(self):
        """Welfare reports are bit-identical across stepping modes."""
        spec = small_failure_spec()
        reports = {
            mode: failure_impact(spec, step_mode=mode)
            for mode in STEP_MODES
        }
        for report in reports.values():
            report.pop("step_mode")
        assert reports["batched"] == reports["event"]

    def test_failure_impact_rejects_windows_past_the_horizon(self):
        # failure-000's outage opens at 567.2 s: a 400 s run would report
        # the healthy federation as the failed one.
        with pytest.raises(ConfigurationError, match="never opens"):
            failure_impact(resolve("failure-000"), horizon=400.0)

    def test_sweep_over_explicit_specs(self):
        report = sweep([small_failure_spec()], horizon=200.0)
        assert report["format_version"] == 1
        assert [s["scenario"] for s in report["scenarios"]] == ["sweep-case"]
        assert report["scenarios"][0]["horizon"] == 200.0

    def test_cli_writes_report(self, tmp_path, capsys):
        out = tmp_path / "failures.json"
        code = main(
            ["--scenario", "failure-000", "--horizon", "600", "--output", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "failure-000" in captured
        assert out.exists()

    def test_cli_rejects_failure_free_scenarios(self):
        with pytest.raises(SystemExit, match="no failure schedule"):
            main(["--scenario", "bursty-000", "--horizon", "50"])
