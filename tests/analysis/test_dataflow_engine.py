"""Tests for the dataflow engine core (`repro.analysis.summaries`).

Covers the project index (call-graph resolution across modules),
backward slices (parameters, attributes, guards, comprehensions,
f-strings), the taint lattice with its launderers, fixpoint function
summaries, annotation parsing, and the RPR3xx exit codes of the
`python -m repro.analysis check` CLI.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import dataflow
from repro.analysis.__main__ import main
from repro.analysis.summaries import (
    TAINT_ENV,
    TAINT_UNORDERED,
    Project,
    is_fingerprint_name,
    load_sources,
)
from repro._validation import ConfigurationError


def project(**modules):
    """Build a Project from ``{dotted_name: source}`` keyword modules."""
    sources = {
        f"src/{name.replace('.', '/')}.py": textwrap.dedent(source)
        for name, source in modules.items()
    }
    return Project(sources)


def fn(proj, module_name, qualname):
    found = proj.function(module_name, qualname)
    assert found is not None, f"{module_name}:{qualname} not indexed"
    return found


class TestFingerprintNames:
    @pytest.mark.parametrize(
        "name",
        ["model_fingerprint", "content_hash", "cache_key", "payload_digest", "_hash", "make_key"],
    )
    def test_matches(self, name):
        assert is_fingerprint_name(name)

    @pytest.mark.parametrize("name", ["evaluate", "__hash__", "solve", "shash"])
    def test_rejects(self, name):
        assert not is_fingerprint_name(name)


class TestCallResolution:
    def test_resolves_bare_same_module_call(self):
        proj = project(
            mod="""
            def helper(x):
                return x
            def caller(y):
                return helper(y)
            """
        )
        caller = fn(proj, "mod", "caller")
        call = next(n for n in ast.walk(caller.node) if isinstance(n, ast.Call))
        resolved = proj.resolve_call(caller, call)
        assert resolved is not None and resolved.qualname == "helper"

    def test_resolves_from_import(self):
        proj = project(
            **{
                "pkg.a": """
                def helper(x):
                    return x
                """,
                "pkg.b": """
                from pkg.a import helper
                def caller(y):
                    return helper(y)
                """,
            }
        )
        caller = fn(proj, "pkg.b", "caller")
        call = next(n for n in ast.walk(caller.node) if isinstance(n, ast.Call))
        resolved = proj.resolve_call(caller, call)
        assert resolved is not None and resolved.module_name == "pkg.a"

    def test_resolves_module_alias(self):
        proj = project(
            **{
                "pkg.a": """
                def helper(x):
                    return x
                """,
                "pkg.b": """
                import pkg.a as a
                def caller(y):
                    return a.helper(y)
                """,
            }
        )
        caller = fn(proj, "pkg.b", "caller")
        call = next(n for n in ast.walk(caller.node) if isinstance(n, ast.Call))
        resolved = proj.resolve_call(caller, call)
        assert resolved is not None and resolved.qualname == "helper"

    def test_resolves_self_method_and_unique_method_name(self):
        proj = project(
            mod="""
            class C:
                def part(self):
                    return 1
                def whole(self):
                    return self.part()
            def outside(c):
                return c.part()
            """
        )
        whole = fn(proj, "mod", "C.whole")
        call = next(n for n in ast.walk(whole.node) if isinstance(n, ast.Call))
        assert proj.resolve_call(whole, call).qualname == "C.part"
        outside = fn(proj, "mod", "outside")
        call = next(n for n in ast.walk(outside.node) if isinstance(n, ast.Call))
        assert proj.resolve_call(outside, call).qualname == "C.part"

    def test_rejects_non_string_keys(self):
        with pytest.raises(ConfigurationError):
            Project({Path("x.py"): "pass"})


class TestSlices:
    def test_return_slice_follows_assignments_and_fstrings(self):
        proj = project(
            mod="""
            def make_key(scenario, tolerance):
                part = f"{scenario}:{tolerance}"
                return part
            """
        )
        sliced = proj.return_slice(fn(proj, "mod", "make_key"))
        assert sliced.params == {"scenario", "tolerance"}

    def test_return_slice_sees_guard_conditions(self):
        proj = project(
            mod="""
            def make_key(payload, include_extra=True):
                data = {"p": payload}
                if include_extra:
                    data["extra"] = 1
                return str(data)
            """
        )
        sliced = proj.return_slice(fn(proj, "mod", "make_key"))
        assert "include_extra" in sliced.params

    def test_comprehension_binds_loop_variable(self):
        proj = project(
            mod="""
            def make_key(items):
                return ",".join(str(v) for v in sorted(items))
            """
        )
        sliced = proj.return_slice(fn(proj, "mod", "make_key"))
        assert sliced.params == {"items"}
        assert "v" not in sliced.names

    def test_self_attributes_recorded(self):
        proj = project(
            mod="""
            class C:
                def _hash(self):
                    return f"{self.alpha}:{self.beta}"
            """
        )
        sliced = proj.return_slice(fn(proj, "mod", "C._hash"))
        assert sliced.attrs == {"alpha", "beta"}

    def test_rebound_parameter_keeps_both_influences(self):
        proj = project(
            mod="""
            def store(payload):
                payload = {"version": 3, **payload}
                return str(payload)
            """
        )
        sliced = proj.return_slice(fn(proj, "mod", "store"))
        assert "payload" in sliced.params
        assert sliced.has_version


class TestTaintLattice:
    def test_env_taint_from_environ_and_clock(self):
        proj = project(
            mod="""
            import os
            import time
            def a():
                return os.environ["HOME"]
            def b():
                return time.time()
            """
        )
        for name in ("a", "b"):
            sliced = proj.return_slice(fn(proj, "mod", name))
            assert sliced.taint_kinds() == {TAINT_ENV}

    def test_unordered_taint_from_set_laundered_by_sorted(self):
        proj = project(
            mod="""
            def raw(values):
                return {v for v in values}
            def ordered(values):
                return sorted({v for v in values})
            """
        )
        assert proj.return_slice(fn(proj, "mod", "raw")).taint_kinds() == {
            TAINT_UNORDERED
        }
        assert proj.return_slice(fn(proj, "mod", "ordered")).taint_kinds() == set()

    def test_sum_does_not_launder(self):
        proj = project(
            mod="""
            def total(values):
                return sum(set(values))
            """
        )
        assert TAINT_UNORDERED in proj.return_slice(
            fn(proj, "mod", "total")
        ).taint_kinds()


class TestSummaries:
    def test_taint_propagates_through_call_chain(self):
        proj = project(
            mod="""
            import time
            def stamp():
                return time.time()
            def wrap():
                return stamp()
            def outer():
                return wrap()
            """
        )
        summary = proj.summary(fn(proj, "mod", "outer"))
        assert {hit.kind for hit in summary.return_taints} == {TAINT_ENV}

    def test_version_marker_visible_two_hops_up(self):
        proj = project(
            mod="""
            import json
            class Spec:
                def to_dict(self):
                    return {"schema_version": 1, "name": self.name}
                def canonical_json(self):
                    return json.dumps(self.to_dict())
            """
        )
        summary = proj.summary(fn(proj, "mod", "Spec.canonical_json"))
        assert summary.return_has_version

    def test_sink_params_identified(self):
        proj = project(
            mod="""
            import hashlib
            def digest_of(blob):
                return hashlib.sha256(blob).hexdigest()
            """
        )
        summary = proj.summary(fn(proj, "mod", "digest_of"))
        assert summary.sink_params == {"blob"}


class TestAnnotations:
    def test_fingerprint_input_targets_parsed(self):
        proj = project(
            mod="""
            class C:
                def __init__(self, a, b):
                    self.a = a  # fingerprint-input: _hash
                    self.b = b  # fingerprint-input: other_key
                def _hash(self):
                    return str(self.a)
            """
        )
        assert proj.declared_inputs(fn(proj, "mod", "C._hash")) == ["a"]

    def test_bare_annotation_targets_every_fingerprint(self):
        proj = project(
            mod="""
            class C:
                def __init__(self, a):
                    self.a = a  # fingerprint-input
                def _hash(self):
                    return str(self.a)
                def cache_key(self):
                    return str(self.a)
            """
        )
        assert proj.declared_inputs(fn(proj, "mod", "C._hash")) == ["a"]
        assert proj.declared_inputs(fn(proj, "mod", "C.cache_key")) == ["a"]

    def test_dataclass_field_annotation(self):
        proj = project(
            mod="""
            from dataclasses import dataclass
            @dataclass
            class C:
                a: int  # fingerprint-input: _hash
                def _hash(self):
                    return str(self.a)
            """
        )
        assert proj.declared_inputs(fn(proj, "mod", "C._hash")) == ["a"]


class TestCLI:
    def _clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("def evaluate(x):\n    return x\n")
        return path

    def _bad_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(
            "def make_key(scenario, tolerance):\n    return str(scenario)\n"
        )
        return path

    def test_clean_tree_exits_zero(self, tmp_path):
        path = str(self._clean_file(tmp_path))
        assert main(["check", "--select", "RPR301", path]) == 0

    def test_violations_exit_one(self, tmp_path, capsys):
        assert main(["check", str(self._bad_file(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert "RPR301" in captured.out
        assert "found 1 violation" in captured.err

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        code = main(["check", "--select", "RPR999", str(self._clean_file(tmp_path))])
        assert code == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_lint_cli_unknown_select_code_exits_two(self, tmp_path, capsys):
        # RPR3xx codes pass through the same CLI as RPR1xx/2xx; only a code
        # no family owns is a usage error, and it is named in the message.
        path = str(self._clean_file(tmp_path))
        assert main(["check", "--select", "RPR101,RPR301", path]) == 0
        assert main(["check", "--select", "RPR101,RPR399", path]) == 2
        err = capsys.readouterr().err
        assert "unknown rule code(s): RPR399" in err
        assert "RPR301" in err

    def test_missing_path_exits_two(self):
        assert main(["check", "definitely/not/here"]) == 2

    def test_list_rules_prints_all_six(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR301", "RPR302", "RPR303", "RPR304", "RPR305", "RPR306"):
            assert code in out

    def test_select_filters_codes(self, tmp_path):
        path = str(self._bad_file(tmp_path))
        assert main(["check", "--select", "RPR306", path]) == 0
        assert main(["check", "--select", "RPR301", path]) == 1


class TestRepositoryIsClean:
    def test_src_tree_has_no_rpr3xx_violations(self):
        root = Path(__file__).resolve().parents[2] / "src"
        assert root.is_dir()
        violations = dataflow.analyze_paths([root])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_load_sources_reads_tree(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro" / "analysis"
        sources = load_sources([root])
        assert any(path.endswith("summaries.py") for path in sources)
