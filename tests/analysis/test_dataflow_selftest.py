"""The mutation self-test: RPR301 recall is measured, not assumed.

`run_self_test` severs every flowing fingerprint input in the real
tree (one mutant per input, comments preserved) and demands RPR301
fires for each.  These tests wire it into pytest and cover the
mutation machinery itself.
"""

import io
import textwrap
from pathlib import Path

from repro.analysis.dataflow import _sever_input, run_self_test
from repro.analysis.dataflow_fingerprint import check_fingerprints
from repro.analysis.summaries import Project

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def single_module(source, path="src/repro/mod.py"):
    return Project({path: textwrap.dedent(source)})


class TestSeverInput:
    def test_severs_every_read_and_keeps_comments(self):
        proj = single_module(
            """
            def make_key(scenario, tolerance):  # repro: noqa[RPR999]
                blob = f"{scenario}:{tolerance}"
                return blob + str(tolerance)
            """
        )
        path = next(iter(proj.modules))
        fn = proj.fingerprint_functions()[0]
        mutated = _sever_input(proj.modules[path], fn, "parameter", "tolerance")
        assert mutated is not None
        assert "tolerance" in mutated.splitlines()[1]  # signature untouched
        assert "{None}" in mutated and "str(None)" in mutated
        assert "# repro: noqa[RPR999]" in mutated  # comments survive

    def test_severed_attribute_mutant_is_caught(self):
        proj = single_module(
            """
            class C:
                def __init__(self, a):
                    self.a = a  # fingerprint-input: _hash
                def _hash(self):
                    return str(self.a)
            """
        )
        path = next(iter(proj.modules))
        fn = next(f for f in proj.fingerprint_functions() if f.name == "_hash")
        mutated = _sever_input(proj.modules[path], fn, "attribute", "a")
        assert mutated is not None
        mutant = Project({path: mutated})
        findings = check_fingerprints(mutant)
        assert any(v.code == "RPR301" and "'a'" in v.message for v in findings)

    def test_returns_none_when_no_read_exists(self):
        proj = single_module(
            """
            def make_key(scenario):
                return "fixed"
            """
        )
        path = next(iter(proj.modules))
        fn = proj.fingerprint_functions()[0]
        assert _sever_input(proj.modules[path], fn, "parameter", "scenario") is None


class TestRunSelfTest:
    def test_repository_mutants_all_caught(self):
        stream = io.StringIO()
        assert run_self_test([REPO_SRC], stream=stream) == 0
        output = stream.getvalue()
        assert "(100%)" in output
        assert "MISSED" not in output
        # Both cache tiers (the persistent model cache and the level
        # cache) must contribute mutants.
        assert "CachedModel._fingerprint" in output
        assert "CachedModel._hash" in output
        assert "ApproximateModel._config_key" in output

    def test_empty_tree_fails(self, tmp_path):
        (tmp_path / "empty.py").write_text("def evaluate(x):\n    return x\n")
        stream = io.StringIO()
        assert run_self_test([tmp_path], stream=stream) == 1
        assert "no fingerprint functions" in stream.getvalue()
