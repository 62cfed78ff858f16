"""End-to-end tests of ``python -m repro.scenarios``."""

import json

from repro.scenarios.cli import main
from repro.scenarios.schema import save_spec

from tests.scenarios.helpers import tiny_spec


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper-fig6-2sc" in out
        assert "scenarios" in out

    def test_list_family_filter_json(self, capsys):
        assert main(["list", "--family", "paper", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries
        assert all(e["family"] == "paper" for e in entries)


class TestValidate:
    def test_validate_all_checks_manifest(self, capsys):
        assert main(["validate", "--all"]) == 0
        out = capsys.readouterr().out
        assert "manifest digest ok" in out

    def test_validate_named_scenario(self, capsys):
        assert main(["validate", "paper-fig6-2sc"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_file_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "clouds": []}))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_without_arguments_errors(self, capsys):
        assert main(["validate"]) == 2

    def test_validate_all_with_other_seed_fails_manifest(self, capsys):
        # A different seed regenerates a different library, so the
        # committed-manifest gate must trip.
        assert main(["--seed", "99", "validate", "--all"]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestShowAndRun:
    def test_show_round_trips_through_file(self, tmp_path, capsys):
        spec = tiny_spec()
        path = tmp_path / "tiny.json"
        save_spec(spec, path)
        assert main(["show", str(path)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown == spec.to_dict()

    def test_run_solve_reports_digest(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        save_spec(tiny_spec(), path)
        assert main(["run", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "solve"
        assert len(report["digest"]) == 64

    def test_run_simulate(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        save_spec(tiny_spec(horizon=200.0), path)
        assert main(["run", str(path), "--mode", "simulate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [m["name"] for m in report["metrics"]] == ["sc1", "sc2"]


class TestGenerate:
    def test_generate_check_manifest(self, capsys):
        assert main(["generate", "--check-manifest"]) == 0
        assert "manifest digest ok" in capsys.readouterr().out

    def test_generate_writes_library(self, tmp_path, capsys):
        assert main(["generate", "--output", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        files = {p.name for p in tmp_path.glob("*.json")}
        assert f"{manifest['scenarios'][0]['name']}.json" in files
        assert manifest["count"] == len(files) - 1  # minus the manifest itself


class TestSweep:
    def test_sweep_ids_serial_process(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        save_spec(tiny_spec(), spec_path)
        assert (
            main(
                [
                    "sweep",
                    "--ids",
                    str(spec_path),
                    "--backends",
                    "serial,process",
                    "--output",
                    str(tmp_path / "report"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "True" in out
        report = json.loads((tmp_path / "report" / "sweep.json").read_text())
        assert report["all_identical"] is True


class TestModuleEntryPoints:
    def test_python_dash_m_repro_accepts_library_names(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["solve", "paper-fig6-2sc"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert "equilibrium" in outcome

    def test_python_dash_m_repro_simulate_uses_spec_demand(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        path = tmp_path / "tiny.json"
        save_spec(tiny_spec(), path)
        assert repro_main(["simulate", str(path), "--horizon", "200"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert [m["name"] for m in metrics] == ["sc1", "sc2"]
