"""The analyzer's one command line, `python -m repro.analysis check`:
cross-family `--select` routing, exit codes, the rule table, the shared
JSON report format and the RPR301 mutation self-test.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis import dataflow, lint
from repro.analysis.__main__ import _split_select, check, main
from repro.analysis.lintbase import Violation, render_json

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

CLEAN = """
def helper(x):
    return x + 1
"""

# One violation per family: RPR101 (unseeded randomness) and RPR306
# (unversioned persisted payload).
MULTI_FAMILY = """
import json
import numpy as np


def sample():
    return np.random.random()


def persist(path, payload):
    path.write_text(json.dumps({"data": payload}))
"""

def write(tmp_path, source, name="mod.py"):
    target = tmp_path / "repro"
    target.mkdir(exist_ok=True)
    path = target / name
    path.write_text(textwrap.dedent(source))
    return path


class TestSelectRouting:
    def test_no_select_runs_every_family(self):
        routed = _split_select(None)
        assert routed == {"lint": None, "dataflow": None}

    def test_codes_route_to_owning_family(self):
        routed = _split_select("RPR101,RPR105,rpr301,RPR306")
        assert routed == {
            "lint": ["RPR101", "RPR105"],
            "dataflow": ["RPR301", "RPR306"],
        }

    def test_family_without_selected_codes_is_skipped(self):
        assert _split_select("RPR301") == {"dataflow": ["RPR301"]}
        assert _split_select("RPR105") == {"lint": ["RPR105"]}

    def test_unknown_code_raises_with_known_list(self):
        try:
            _split_select("RPR999")
        except ValueError as exc:
            assert "RPR999" in str(exc) and "RPR101" in str(exc)
        else:
            raise AssertionError("expected ValueError")


class TestCheck:
    def test_clean_tree_is_clean(self, tmp_path):
        write(tmp_path, CLEAN)
        assert check([tmp_path]) == []

    def test_families_merge_sorted(self, tmp_path):
        write(tmp_path, MULTI_FAMILY)
        violations = check([tmp_path])
        codes = [v.code for v in violations]
        assert "RPR101" in codes and "RPR306" in codes
        assert [(v.path, v.line, v.col, v.code) for v in violations] == sorted(
            (v.path, v.line, v.col, v.code) for v in violations
        )

    def test_select_limits_to_one_family(self, tmp_path):
        write(tmp_path, MULTI_FAMILY)
        assert [v.code for v in check([tmp_path], select="RPR306")] == ["RPR306"]
        assert [v.code for v in check([tmp_path], select="RPR101")] == ["RPR101"]


class TestUmbrellaCLI:
    def test_list_rules_covers_all_families(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        expected = [rule.code for rule in (*lint.LINT_RULES, *dataflow.DATAFLOW_RULES)]
        assert listed == expected
        assert listed[0] == "RPR101" and listed[-1] == "RPR306"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, CLEAN)
        assert main(["check", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one(self, tmp_path, capsys):
        write(tmp_path, MULTI_FAMILY)
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out and "RPR306" in out

    def test_unknown_code_exits_two(self, tmp_path, capsys):
        write(tmp_path, CLEAN)
        assert main(["check", "--select", "RPR999", str(tmp_path)]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err
        assert main(["check", "--self-test", str(tmp_path / "nope")]) == 2

    def test_json_format_is_shared_report(self, tmp_path, capsys):
        write(tmp_path, MULTI_FAMILY)
        assert main(["check", "--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.analysis.lint-report"
        assert payload["format_version"] == 1
        assert payload["count"] == len(payload["violations"]) > 0

    def test_self_test_reports_recall(self, capsys, monkeypatch):
        runtime = str(REPO_SRC / "repro" / "runtime")
        assert main(["check", "--self-test", runtime]) == 0
        out = capsys.readouterr().out
        assert "caught by RPR301 (100%)" in out and "MISSED" not in out
        # A checker that never fires misses every seeded mutant.
        monkeypatch.setattr(dataflow, "check_fingerprints", lambda project: [])
        assert main(["check", "--self-test", runtime]) == 1
        assert "MISSED" in capsys.readouterr().out


class TestFamilyCLIsShareConventions:
    """Both rule families answer through the one ``check`` command."""

    def test_lint_hints_perf_family(self, capsys):
        # RPR4xx (the retired hot-path family) is an unknown code, and the
        # error lists the codes that do exist instead of ignoring it.
        assert main(["check", "--select", "RPR401", "src"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code(s): RPR401" in err
        assert "RPR101" in err and "RPR105" in err

    def test_dataflow_hints_perf_family(self, capsys):
        assert main(["check", "--select", "RPR301,RPR404", "src"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code(s): RPR404" in err
        assert "RPR301" in err and "RPR306" in err

    def test_json_format_agrees_across_clis(self, tmp_path, capsys):
        write(tmp_path, CLEAN)
        for select in ([], ["--select", "RPR101,RPR105"], ["--select", "RPR301,RPR306"]):
            assert main(["check", "--format", "json", *select, str(tmp_path)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["format"] == "repro.analysis.lint-report"
            assert payload["format_version"] == 1
            assert payload["count"] == 0 and payload["violations"] == []


class TestReportFormat:
    def test_render_json_roundtrip(self):
        violation = Violation(
            path="src/repro/mod.py", line=3, col=1, code="RPR301", message="m"
        )
        payload = json.loads(render_json([violation]))
        assert payload["violations"][0]["code"] == "RPR301"
        assert payload["violations"][0]["line"] == 3
