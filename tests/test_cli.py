"""Tests for the ``python -m repro`` command-line interface."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.core.serialization import save_scenario
from repro.core.small_cloud import FederationScenario, SmallCloud


@pytest.fixture
def scenario_file(tmp_path):
    scenario = FederationScenario((
        SmallCloud(name="a", vms=5, arrival_rate=2.9, federation_price=0.5),
        SmallCloud(name="b", vms=5, arrival_rate=4.2, federation_price=0.5),
    ))
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    return str(path)


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for command in ("solve", "sweep", "simulate"):
            args = parser.parse_args([command, "file.json"])
            assert args.command == command

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "f.json", "--model", "oracle"])

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_model_choices_are_the_schema_models(self, command):
        from repro.scenarios.schema import MODELS

        parser = build_parser()
        for model in MODELS:
            args = parser.parse_args([command, "f.json", "--model", model])
            assert args.model == model


class TestSimulateCommand:
    def test_prints_metrics_json(self, scenario_file, capsys):
        code = main(["simulate", scenario_file, "--horizon", "2000", "--seed", "3"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in data] == ["a", "b"]
        for entry in data:
            assert 0.0 <= entry["utilization"] <= 1.0

    def test_legacy_file_output_is_pinned(self, scenario_file, capsys):
        # A legacy flat file runs through the scenario runner; the printed
        # JSON must stay byte-identical to the direct simulator run it
        # replaced.
        assert main(["simulate", scenario_file, "--horizon", "2000", "--seed", "3"]) == 0
        expected = [
            {
                "name": "a",
                "lent_mean": 0.0,
                "borrowed_mean": 0.0,
                "forward_rate": 0.2168421052631579,
                "forward_probability": 0.0753474762253109,
                "utilization": 0.5511204448602032,
                "mean_wait": 0.2306987219398339,
            },
            {
                "name": "b",
                "lent_mean": 0.0,
                "borrowed_mean": 0.0,
                "forward_rate": 0.7221052631578947,
                "forward_probability": 0.17266549207148252,
                "utilization": 0.6955689667269228,
                "mean_wait": 0.25583635110788294,
            },
        ]
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


class TestSolveCommand:
    def test_solves_and_prints_outcome(self, scenario_file, capsys):
        code = main([
            "solve", scenario_file, "--strategy-step", "2", "--price-ratio", "0.5",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["equilibrium"]) == 2
        assert data["converged"] is True
        assert 0.0 <= data["efficiency"] <= 1.0


class TestSweepCommand:
    def test_recommends_regions(self, scenario_file, capsys):
        code = main([
            "sweep", scenario_file, "--points", "3", "--strategy-step", "5",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        objectives = {r["objective"] for r in data["regions"]}
        assert objectives == {"utilitarian", "proportional", "max-min"}
        for region in data["regions"]:
            low, high = region["range"]
            assert low <= region["best_ratio"] <= high


def _readme_commands(module):
    """Every ``python -m <module> ...`` line of README's bash blocks, as
    argument lists (continuations joined, env prefixes and comments
    dropped)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.match(r"^[A-Z_]+=", words[0]):
                words = words[1:]
            if words[:3] == ["python", "-m", module]:
                commands.append(words[3:])
    return commands


class TestReadmeCommands:
    def test_repro_lines_parse(self):
        commands = _readme_commands("repro")
        assert len(commands) >= 3
        for argv in commands:
            build_parser().parse_args(argv)

    def test_repro_scenarios_lines_parse(self):
        from repro.scenarios.cli import build_parser as scenarios_parser

        commands = _readme_commands("repro.scenarios")
        assert len(commands) >= 6
        for argv in commands:
            scenarios_parser().parse_args(argv)
