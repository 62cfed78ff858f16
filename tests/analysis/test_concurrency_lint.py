"""Tests for the concurrency lint rules (`repro.analysis.concurrency`).

Every RPR2xx rule gets flag/pass/noqa fixtures, exercised through the
unified `lint_source` entry point so the integration with the RPR1xx
framework (rule registry, `--select`, noqa semantics) is covered too.
"""

import textwrap
from pathlib import Path

from repro.analysis.__main__ import main
from repro.analysis.concurrency import CONCURRENCY_RULES
from repro.analysis.lint import LINT_RULES, lint_paths, lint_source


def codes(source, path="module.py", select=None):
    return [
        v.code
        for v in lint_source(textwrap.dedent(source), path=path, select=select)
    ]


class TestRegistry:
    def test_concurrency_rules_are_registered(self):
        registered = {rule.code for rule in LINT_RULES}
        for rule in CONCURRENCY_RULES:
            assert rule.code in registered

    def test_list_rules_cli_shows_concurrency_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in CONCURRENCY_RULES:
            assert rule.code in out

    def test_select_restricts_to_concurrency_family(self):
        src = """
            import numpy as np

            class Box:
                def __init__(self):
                    self.items = []  # guarded-by: _lock
                    self._lock = object()

                def add(self, item):
                    x = np.random.rand()
                    self.items.append(item)
        """
        only_concurrency = codes(src, select={"RPR201"})
        assert only_concurrency == ["RPR201"]


class TestRPR201GuardedWrites:
    def test_flags_unguarded_rebind(self):
        src = """
            import threading

            class Counter:
                def __init__(self):
                    self.value = 0  # guarded-by: _lock
                    self._lock = threading.Lock()

                def bump(self):
                    self.value += 1

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR201"]

    def test_flags_unguarded_mutator_call(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self.items = []  # guarded-by: _lock
                    self._lock = threading.Lock()

                def add(self, item):
                    self.items.append(item)

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR201"]

    def test_flags_unguarded_subscript_store(self):
        src = """
            import threading

            class Table:
                def __init__(self):
                    self.rows = {}  # guarded-by: _lock
                    self._lock = threading.Lock()

                def set(self, key, value):
                    self.rows[key] = value

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR201"]

    def test_passes_write_under_lock(self):
        src = """
            import threading

            class Counter:
                def __init__(self):
                    self.value = 0  # guarded-by: _lock
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        self.value += 1

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []

    def test_constructor_and_setstate_are_exempt(self):
        src = """
            import threading

            class Counter:
                def __init__(self):
                    self.value = 0  # guarded-by: _lock
                    self._lock = threading.Lock()

                def __setstate__(self, state):
                    self.value = 0
                    self._lock = threading.Lock()

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []

    def test_locked_helper_body_exempt_but_bare_call_flagged(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self.items = {}  # guarded-by: _lock
                    self._lock = threading.Lock()

                def _insert_locked(self, key, value):
                    self.items[key] = value

                def outside(self, key, value):
                    self._insert_locked(key, value)

                def inside(self, key, value):
                    with self._lock:
                        self._insert_locked(key, value)

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR201"]

    def test_nested_function_does_not_inherit_lock(self):
        # A closure created under the lock may run after it is released.
        src = """
            import threading

            class Box:
                def __init__(self):
                    self.items = []  # guarded-by: _lock
                    self._lock = threading.Lock()

                def deferred(self):
                    with self._lock:
                        def later():
                            self.items.append(1)
                        return later

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR201"]

    def test_noqa_suppresses(self):
        src = """
            import threading

            class Counter:
                def __init__(self):
                    self.value = 0  # guarded-by: _lock
                    self._lock = threading.Lock()

                def bump(self):
                    self.value += 1  # repro: noqa[RPR201]

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []


class TestRPR202CheckThenAct:
    def test_flags_unlocked_read_in_writing_method(self):
        src = """
            import threading

            class Table:
                def __init__(self):
                    self.rows = {}  # guarded-by: _lock
                    self._lock = threading.Lock()

                def ensure(self, key):
                    if key in self.rows:
                        return
                    with self._lock:
                        self.rows[key] = []

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR202"]

    def test_passes_check_and_act_both_locked(self):
        src = """
            import threading

            class Table:
                def __init__(self):
                    self.rows = {}  # guarded-by: _lock
                    self._lock = threading.Lock()

                def ensure(self, key):
                    with self._lock:
                        if key not in self.rows:
                            self.rows[key] = []

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []

    def test_read_only_method_not_flagged(self):
        # Reading without writing is the caller's consistency trade-off,
        # not a check-then-act race inside this method.
        src = """
            import threading

            class Table:
                def __init__(self):
                    self.rows = {}  # guarded-by: _lock
                    self._lock = threading.Lock()

                def peek(self, key):
                    return self.rows.get(key)

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []


class TestRPR203LockOrder:
    def test_flags_nested_reacquisition(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def broken(self):
                    with self._lock:
                        with self._lock:
                            pass

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == ["RPR203"]

    def test_flags_order_inversion(self):
        src = """
            import threading

            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def forward(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def backward(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass

                def __getstate__(self):
                    return {}
        """
        result = codes(src)
        assert result == ["RPR203", "RPR203"]

    def test_passes_consistent_order(self):
        src = """
            import threading

            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def one(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def two(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []

    def test_sequential_acquisitions_pass(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def fine(self):
                    with self._lock:
                        pass
                    with self._lock:
                        pass

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []


class TestRPR204ProcessUnsafeState:
    def test_flags_lock_without_pickle_hooks(self):
        src = """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
        """
        assert codes(src) == ["RPR204"]

    def test_flags_open_handle_without_pickle_hooks(self):
        # select RPR204 so the fixture's bare constructor does not also
        # trip the RPR104 validation rule.
        src = """
            class Writer:
                def __init__(self, path):
                    self.handle = open(path, "w")
        """
        assert codes(src, select={"RPR204"}) == ["RPR204"]

    def test_passes_with_getstate(self):
        src = """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()

                def __getstate__(self):
                    return {}
        """
        assert codes(src) == []

    def test_passes_with_reduce(self):
        src = """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()

                def __reduce__(self):
                    return (Holder, ())
        """
        assert codes(src) == []

    def test_local_lock_not_flagged(self):
        src = """
            import threading

            class Holder:
                def work(self):
                    lock = threading.Lock()
                    with lock:
                        pass
        """
        assert codes(src) == []


class TestRPR205ModuleState:
    def test_flags_global_rebind(self):
        src = """
            _enabled = False

            def enable():
                global _enabled
                _enabled = True
        """
        assert codes(src) == ["RPR205"]

    def test_flags_module_container_mutation(self):
        src = """
            _registry = {}

            def register(name, value):
                _registry[name] = value
        """
        assert codes(src) == ["RPR205"]

    def test_flags_module_container_mutator_call(self):
        src = """
            _seen = []

            def mark(item):
                _seen.append(item)
        """
        assert codes(src) == ["RPR205"]

    def test_passes_read_only_module_constant(self):
        src = """
            _TABLE = {"a": 1}

            def lookup(name):
                return _TABLE[name]
        """
        assert codes(src) == []

    def test_passes_local_shadowing(self):
        src = """
            _default = {}

            def fresh():
                _default = {}
                _default["x"] = 1
                return _default
        """
        assert codes(src) == []

    def test_noqa_suppresses(self):
        src = """
            _enabled = False

            def enable():
                global _enabled  # repro: noqa[RPR205]
                _enabled = True
        """
        assert codes(src) == []


class TestRepositoryIsClean:
    def test_src_tree_passes_concurrency_rules(self):
        # The acceptance bar for the rules themselves: the repository's
        # own runtime must come out clean under them.
        root = Path(__file__).resolve().parents[2] / "src"
        violations = lint_paths([root], select=[rule.code for rule in CONCURRENCY_RULES])
        assert violations == [], "\n".join(v.render() for v in violations)
