"""The analyzer's one command line, `python -m repro.analysis check`:
exit codes, `--select`, the rule table and the JSON report format.
"""

import json
import textwrap

from repro.analysis import lint
from repro.analysis.__main__ import main
from repro.analysis.lint import Violation, render_json

CLEAN = """
def helper(x):
    return x + 1
"""

# Two violations: RPR101 (unseeded randomness) and RPR103 (mutation of a
# frozen scenario).
DIRTY = """
import numpy as np


def sample(scenario):
    scenario.vms = 10
    return np.random.random()
"""


def write(tmp_path, source, name="mod.py"):
    target = tmp_path / "repro"
    target.mkdir(exist_ok=True)
    path = target / name
    path.write_text(textwrap.dedent(source))
    return path


class TestCheck:
    def test_clean_tree_is_clean(self, tmp_path):
        write(tmp_path, CLEAN)
        assert lint.lint_paths([tmp_path]) == []


class TestUmbrellaCLI:
    def test_list_rules_covers_all_families(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [rule.code for rule in lint.LINT_RULES]
        assert listed[0] == "RPR101" and listed[-1] == "RPR105"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, CLEAN)
        assert main(["check", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one(self, tmp_path, capsys):
        write(tmp_path, DIRTY)
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR103" in out

    def test_unknown_code_exits_two(self, tmp_path, capsys):
        write(tmp_path, CLEAN)
        assert main(["check", "--select", "RPR999", str(tmp_path)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_format_is_shared_report(self, tmp_path, capsys):
        write(tmp_path, DIRTY)
        assert main(["check", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.analysis.lint-report"
        assert payload["format_version"] == 1
        assert payload["count"] == len(payload["violations"]) > 0


class TestFamilyCLIsShareConventions:
    """Retired rule codes are refused, and every ``--select`` answers in
    the one report format."""

    def test_lint_hints_perf_family(self, capsys):
        # RPR4xx (the retired hot-path family) is an unknown code, and the
        # error lists the codes that do exist instead of ignoring it.
        assert main(["check", "--select", "RPR401", "src"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code(s): RPR401" in err
        assert "RPR101" in err and "RPR105" in err

    def test_json_format_agrees_across_clis(self, tmp_path, capsys):
        write(tmp_path, CLEAN)
        for select in ([], ["--select", "RPR101,RPR105"], ["--select", "rpr103"]):
            assert main(["check", "--format", "json", *select, str(tmp_path)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["format"] == "repro.analysis.lint-report"
            assert payload["format_version"] == 1
            assert payload["count"] == 0 and payload["violations"] == []


class TestReportFormat:
    def test_render_json_roundtrip(self):
        violation = Violation(
            path="src/repro/mod.py", line=3, col=1, code="RPR101", message="m"
        )
        payload = json.loads(render_json([violation]))
        assert payload["violations"][0]["code"] == "RPR101"
        assert payload["violations"][0]["line"] == 3
