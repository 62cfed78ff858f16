"""The microbenchmark harness must run, report, and compare correctly."""

from __future__ import annotations

import json

import pytest

from repro.bench import micro
from repro.bench.scenarios import fig8_perf_scenario
from repro.perf.approximate import ApproximateModel
from tests.perf.assembly_oracle import OracleModel, assert_matches_oracle


class TestProbes:
    # The retired ``assembly`` probe built the 3-SC Fig. 8a chain (1,530
    # states at the last level) with the per-state loop and the vectorized
    # assembler on every run and checked the two agreed; the per-state
    # loop is now the test oracle.
    def test_assembly_probe_reports_identity(self):
        assert_matches_oracle(fig8_perf_scenario(3))

    def test_assembly_probe_reference_headline(self):
        # The old ``--reference`` configuration (per-state assembly, no
        # level cache) and the default one report the same parameters.
        scenario = fig8_perf_scenario(3)
        assert OracleModel(level_cache=False).evaluate_target(
            scenario
        ) == ApproximateModel().evaluate_target(scenario)

    def test_fig6_probe_quick(self):
        result = micro.bench_fig6(quick=True)
        assert result["scenario"] == "fig6_2sc"
        assert result["evaluate_seconds"] > 0.0
        assert result["level_cache"]["misses"] > 0

    def test_sim_fifo_probe_quick(self):
        result = micro.bench_sim_fifo(quick=True)
        assert result["scenario"] == "deep_backlog_2sc"
        assert result["sim_seconds"] > 0.0
        assert result["jobs_forwarded"] > 0  # the backlog actually forwards
        assert result["list_pop0_seconds"] > 0.0
        assert result["deque_popleft_seconds"] > 0.0
        # The replay isolates the O(n)-vs-O(1) mechanism; at depth 512+
        # the deque must not lose to list.pop(0).
        assert result["replay_speedup"] > 1.0
        assert result["seconds"] == result["sim_seconds"]

    def test_neighbor_vectors_distinct_and_sized(self):
        vectors = micro._neighbor_vectors((5, 5, 5), 20)
        assert len(vectors) == 20
        assert len(set(vectors)) == 20
        assert vectors[0] == (5, 5, 5)
        for vector in vectors:
            assert all(0 <= v <= 10 for v in vector)


class TestCli:
    def test_run_and_compare(self, tmp_path, capsys):
        baseline = {
            "schema": micro.SCHEMA_VERSION,
            "results": {"fig6_evaluate": {"seconds": 1e9}},
        }
        baseline_path = tmp_path / "BENCH_baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        code = micro.main(
            [
                "--quick",
                "--only",
                "fig6_evaluate",
                "--output",
                str(tmp_path),
                "--compare",
                str(baseline_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "BENCH_micro.json").read_text())
        assert report["quick"] is True
        assert list(report["results"]) == ["fig6_evaluate"]
        out = capsys.readouterr().out
        assert "faster" in out  # 1e9s baseline: anything looks faster

    def test_compare_is_non_blocking_on_missing_baseline(self, tmp_path):
        code = micro.main(
            ["--quick", "--only", "fig6_evaluate", "--compare", str(tmp_path / "nope.json")]
        )
        assert code == 0

    def test_compare_handles_missing_entries(self):
        report = {"results": {"fig6_evaluate": {"seconds": 1.0}}}
        lines = micro.compare(report, {"results": {}})
        assert lines == ["fig6_evaluate: no baseline entry"]

    @pytest.mark.parametrize("argv", [["--reference"], ["--only", "assembly"]])
    def test_retired_reference_options_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            micro.main(["--quick", *argv])
