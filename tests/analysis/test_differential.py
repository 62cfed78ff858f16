"""Tests for the cross-backend differential checker
(`repro.analysis.differential`).

The full six-cell matrix on the quick scenario runs in CI as its own
job; here we keep a fast structural test plus a slow-marked end-to-end
run of the matrix through the CLI.
"""

import json

import pytest

from repro.analysis.differential import SCENARIOS, _run_cell, main


class TestRegistry:
    def test_known_scenarios(self):
        assert "quick" in SCENARIOS
        assert "fig6" in SCENARIOS

    def test_strategy_spaces_cover_full_range(self):
        spec = SCENARIOS["quick"]
        spaces = spec.strategy_spaces()
        assert len(spaces) == len(spec.scenario)
        for cloud, space in zip(spec.scenario, spaces):
            assert space[0] == 0
            assert max(space) <= cloud.vms


class TestCells:
    def test_serial_base_cell_is_reproducible(self):
        spec = SCENARIOS["quick"]
        first = _run_cell(spec, "serial", "base")
        second = _run_cell(spec, "serial", "base")
        assert first["digest"] == second["digest"]
        assert first["observables"]["equilibrium"] == (
            second["observables"]["equilibrium"]
        )

    def test_thread_and_variant_cells_match_reference(self):
        # A 2-cell slice of the matrix: enough to catch a backend or
        # caching divergence quickly; the full matrix runs in CI.
        spec = SCENARIOS["quick"]
        reference = _run_cell(spec, "serial", "base")
        assert _run_cell(spec, "thread", "base")["digest"] == reference["digest"]
        assert _run_cell(spec, "serial", "nomemo")["digest"] == reference["digest"]

    def test_observables_use_hex_floats(self):
        cell = _run_cell(SCENARIOS["quick"], "serial", "base")
        for value in cell["observables"]["utilities"]:
            float.fromhex(value)  # raises if not a hex float string


@pytest.mark.slow
class TestFullMatrix:
    def test_cli_quick_matrix_is_bitwise_identical(self, tmp_path, capsys):
        out = tmp_path / "differential.json"
        exit_code = main(["--scenario", "quick", "--output", str(out)])
        assert exit_code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["mismatches"] == []
        # 3x2 backend/variant matrix plus the traced cell (obs on).
        assert len(report["cells"]) == 7
        assert any(cell.get("variant") == "traced" for cell in report["cells"])
        digests = {cell["digest"] for cell in report["cells"]}
        assert len(digests) == 1
        assert report["metrics_merge"]["ok"] is True
        out_text = capsys.readouterr().out
        assert "bit-identical" in out_text
        assert "metrics-merge" in out_text

    def test_report_carries_reference_observables(self, tmp_path):
        out = tmp_path / "differential.json"
        assert main(["--scenario", "quick", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        observables = report["observables"]
        assert len(observables["params"]) == 2
        assert observables["history"][0] == [0, 0]


class TestKsweepRegistry:
    def test_ksweep_scenarios_registered(self):
        for name, k in (("ksweep10", 10), ("ksweep20", 20)):
            spec = SCENARIOS[name]
            assert len(spec.scenario) == k

    def test_ksweep_pools_stay_bounded(self):
        # The K-sweep exists to scale chain length, not state space:
        # whatever the strategy spaces allow, no level's pool exceeds
        # the active-sharer count.
        for name in ("ksweep10", "ksweep20"):
            spec = SCENARIOS[name]
            max_total = sum(max(space) for space in spec.strategy_spaces())
            assert max_total <= 3

    def test_ksweep_spaces_pin_inactive_scs(self):
        spec = SCENARIOS["ksweep10"]
        spaces = spec.strategy_spaces()
        active = [space for space in spaces if len(space) > 1]
        assert len(active) == 3
        assert all(space == [0] for space in spaces[3:])

    def test_spaces_length_is_validated(self):
        import dataclasses

        spec = SCENARIOS["quick"]
        with pytest.raises(ValueError):
            dataclasses.replace(spec, spaces=((0, 1),))


@pytest.mark.slow
class TestKsweepCells:
    def test_variant_cells_match_reference(self):
        # A 3-cell slice of the ksweep10 matrix: serial/base as reference
        # against the other variant and a threaded cell.  The full
        # matrix (including process backends) runs in the kscale-smoke
        # CI job.
        spec = SCENARIOS["ksweep10"]
        reference = _run_cell(spec, "serial", "base")
        for backend, variant in (
            ("serial", "nomemo"),
            ("thread", "base"),
        ):
            assert _run_cell(spec, backend, variant)["digest"] == reference["digest"]
