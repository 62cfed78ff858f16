"""Tests for the domain AST lint (`repro.analysis.lint`).

Every rule gets three fixtures: code that must be flagged, code that
must pass, and a flagged line rescued by `# repro: noqa[CODE]`.
"""

import textwrap
from pathlib import Path

from repro.analysis import lint
from repro.analysis.__main__ import main
from repro.analysis.lint import LINT_RULES, lint_source


def codes(source, path="module.py", select=None):
    return [v.code for v in lint_source(textwrap.dedent(source), path=path, select=select)]


class TestRPR101UnseededRandom:
    def test_flags_np_random_module_draw(self):
        src = """
            import numpy as np
            x = np.random.rand(3)
        """
        assert codes(src) == ["RPR101"]

    def test_flags_unseeded_default_rng(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert codes(src) == ["RPR101"]

    def test_passes_seeded_default_rng(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(1234)
            x = rng.normal(size=3)
        """
        assert codes(src) == []

    def test_passes_generator_plumbing(self):
        src = """
            import numpy as np
            seq = np.random.SeedSequence(7)
            gen = np.random.Generator(np.random.PCG64(seq))
        """
        assert codes(src) == []

    def test_flags_stdlib_random_import(self):
        assert codes("import random\n") == ["RPR101"]

    def test_flags_stdlib_random_from_import(self):
        assert codes("from random import choice\n") == ["RPR101"]

    def test_allowed_in_rng_module(self):
        src = """
            import random
            x = random.random()
        """
        assert codes(src, path="src/repro/sim/rng.py") == []

    def test_noqa_suppresses(self):
        src = """
            import numpy as np
            x = np.random.rand(3)  # repro: noqa[RPR101]
        """
        assert codes(src) == []


class TestRPR102FloatEquality:
    def test_flags_nonsentinel_literal(self):
        assert codes("ok = x == 0.3\n") == ["RPR102"]

    def test_passes_sentinel_literals(self):
        assert codes("a = x == 0.0\nb = y != 1.0\n") == []

    def test_flags_probability_named_operands(self):
        assert codes("same = forward_rate == baseline_rate\n") == ["RPR102"]

    def test_passes_unrelated_names(self):
        assert codes("same = left == right\n") == []

    def test_passes_int_literals(self):
        assert codes("done = count == 3\n") == []

    def test_noqa_suppresses(self):
        assert codes("ok = x == 0.3  # repro: noqa[RPR102]\n") == []


class TestRPR103FrozenMutation:
    def test_flags_attribute_assignment(self):
        assert codes("scenario.vms = 10\n") == ["RPR103"]

    def test_flags_augmented_assignment(self):
        assert codes("params.utilization += 0.1\n") == ["RPR103"]

    def test_allows_assignment_in_init(self):
        src = """
            class Holder:
                def __init__(self, scenario):
                    require(scenario is not None, "scenario required")
                    scenario.touched = True
        """
        assert codes(src) == []

    def test_flags_setattr_outside_construction(self):
        src = """
            def poke(obj):
                object.__setattr__(obj, "vms", 3)
        """
        assert codes(src) == ["RPR103"]

    def test_allows_setattr_in_post_init(self):
        src = """
            class _Box:
                def __post_init__(self):
                    object.__setattr__(self, "vms", 3)
        """
        assert codes(src) == []

    def test_passes_ordinary_receiver(self):
        assert codes("counter.total = 3\n") == []

    def test_noqa_suppresses(self):
        assert codes("scenario.vms = 10  # repro: noqa[RPR103]\n") == []


class TestRPR104UnvalidatedEntryPoint:
    def test_flags_public_init_without_validation(self):
        src = """
            class Model:
                def __init__(self, horizon):
                    self.horizon = horizon
        """
        assert codes(src) == ["RPR104"]

    def test_passes_with_validation_helper(self):
        src = """
            class Model:
                def __init__(self, horizon):
                    self.horizon = check_positive(horizon, "horizon")
        """
        assert codes(src) == []

    def test_passes_with_raise(self):
        src = """
            class Model:
                def __init__(self, horizon):
                    if horizon <= 0:
                        raise ValueError("horizon must be positive")
                    self.horizon = horizon
        """
        assert codes(src) == []

    def test_passes_private_class(self):
        src = """
            class _Internal:
                def __init__(self, horizon):
                    self.horizon = horizon
        """
        assert codes(src) == []

    def test_passes_argless_init(self):
        src = """
            class Model:
                def __init__(self):
                    self.items = []
        """
        assert codes(src) == []

    def test_passes_exception_class(self):
        src = """
            class SolverError(Exception):
                def __init__(self, detail):
                    super().__init__(detail)
                    self.detail = detail
        """
        assert codes(src) == []

    def test_noqa_suppresses(self):
        src = """
            class Model:
                def __init__(self, horizon):  # repro: noqa[RPR104]
                    self.horizon = horizon
        """
        assert codes(src) == []


class TestRPR105CacheKeyDeterminism:
    def test_flags_wall_clock_in_cache_key(self):
        src = """
            import time

            def cache_key(obj):
                return f"{obj}-{time.time()}"
        """
        assert codes(src) == ["RPR105"]

    def test_flags_builtin_id_in_fingerprint(self):
        src = """
            def model_fingerprint(model):
                return str(id(model))
        """
        assert codes(src) == ["RPR105"]

    def test_flags_builtin_hash_in_key_builder(self):
        src = """
            def entry_key(value):
                return hash(value)
        """
        assert codes(src) == ["RPR105"]

    def test_passes_content_hash(self):
        src = """
            import hashlib
            import json

            def cache_key(payload):
                blob = json.dumps(payload, sort_keys=True)
                return hashlib.sha256(blob.encode()).hexdigest()
        """
        assert codes(src) == []

    def test_ignores_calls_outside_key_functions(self):
        src = """
            import time

            def elapsed():
                return time.time()
        """
        assert codes(src) == []

    def test_noqa_suppresses(self):
        src = """
            def cache_key(obj):
                return str(id(obj))  # repro: noqa[RPR105]
        """
        assert codes(src) == []


class TestSuppression:
    def test_bare_noqa_suppresses_everything(self):
        assert codes("scenario.vms = 10  # repro: noqa\n") == []

    def test_noqa_for_other_code_keeps_violation(self):
        assert codes("scenario.vms = 10  # repro: noqa[RPR101]\n") == ["RPR103"]

    def test_noqa_code_list(self):
        src = "scenario.prob = prob_a == prob_b  # repro: noqa[RPR102, RPR103]\n"
        assert codes(src) == []


class TestHarness:
    def test_syntax_error_reports_rpr000(self):
        assert codes("def broken(:\n") == ["RPR000"]

    def test_select_filters_rules(self):
        src = """
            import random
            scenario.vms = 10
        """
        assert codes(src, select=["RPR103"]) == ["RPR103"]

    def test_violations_sorted_and_rendered(self):
        violations = lint_source("import random\nscenario.vms = 1\n", path="m.py")
        assert [v.line for v in violations] == sorted(v.line for v in violations)
        rendered = violations[0].render()
        assert rendered.startswith("m.py:") and "RPR101" in rendered

    def test_rule_table_complete(self):
        assert [rule.code for rule in LINT_RULES] == [
            "RPR101",
            "RPR102",
            "RPR103",
            "RPR104",
            "RPR105",
        ]
        assert all(rule.name and rule.summary for rule in LINT_RULES)

    def test_iter_python_files_mixes_files_and_dirs(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("ignored")
        files = lint.iter_python_files([tmp_path / "a.py", sub])
        assert [p.name for p in files] == ["a.py", "b.py"]
        assert all(isinstance(p, Path) for p in files)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["check", "--select", "RPR101,RPR105", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text("import random\n")
        assert main(["check", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RPR101" in captured.out
        assert "1 violation" in captured.err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in LINT_RULES:
            assert rule.code in out

    def test_select_flag(self, tmp_path):
        (tmp_path / "dirty.py").write_text("import random\n")
        assert main(["check", "--select", "RPR103", str(tmp_path)]) == 0
        assert main(["check", "--select", "RPR101", str(tmp_path)]) == 1


class TestRepositoryIsClean:
    def test_src_tree_has_no_violations(self):
        root = Path(__file__).resolve().parents[2] / "src"
        assert root.is_dir()
        violations = lint.lint_paths([root])
        assert violations == [], "\n".join(v.render() for v in violations)
