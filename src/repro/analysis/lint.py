"""Domain-specific AST lint rules for the SC-Share reproduction.

Run through the analyzer's command line::

    python -m repro.analysis check src tests
    python -m repro.analysis check --list-rules
    python -m repro.analysis check --select RPR101,RPR105 src

Generic linters cannot know that this codebase's correctness depends on
seeded randomness, tolerance-based float comparison, immutable scenario
objects, validated constructors, and deterministic cache keys.  Each
rule below encodes one of those domain contracts as a static check with
a stable error code:

=======  ==============================================================
Code     Contract
=======  ==============================================================
RPR101   No unseeded randomness: ``np.random.*`` sampling helpers and
         the stdlib ``random`` module are forbidden outside the
         dedicated RNG modules; all draws flow through seeded
         ``numpy.random.Generator`` streams.
RPR102   No float equality on probabilities/rates: ``==`` / ``!=``
         against non-sentinel float literals (anything but exactly
         ``0.0`` / ``1.0``) or between two probability-/rate-named
         operands; compare against a tolerance instead.
RPR103   No mutation of frozen configuration objects
         (``PerformanceParams``, ``SmallCloud``, ``FederationScenario``
         and friends) after construction; ``object.__setattr__`` is
         allowed only inside ``__init__`` / ``__post_init__`` /
         ``__setstate__``.
RPR104   Every public entry point validates: public constructors
         (``__init__`` / ``__post_init__`` of public classes taking
         caller-supplied arguments) must call a
         :mod:`repro._validation` helper, a sanitizer check, or raise
         on bad input.
RPR105   Deterministic cache keys: fingerprint/hash/key-building
         functions must not call wall-clock, uuid, ``os.urandom``,
         ``id()`` or the salted builtin ``hash()``.
=======  ==============================================================

The RPR2xx lock-discipline rules (guarded-by attributes, check-then-act,
lock ordering, process-unsafe state, mutable module state) live in
:mod:`repro.analysis.concurrency` and run through :func:`lint_source`
too; see that module for their contract table.

Suppression: append ``# repro: noqa[RPR101]`` (or a comma-separated
list, or bare ``# repro: noqa`` for all rules) to the offending line.
Suppressions are per-line and per-code so they survive refactors
without silently widening.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.analysis.concurrency import CONCURRENCY_RULES, check_concurrency
from repro.analysis.lintbase import LintRule, Violation, apply_noqa

__all__ = [
    "LINT_RULES",
    "LintRule",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
]


RPR101 = LintRule(
    code="RPR101",
    name="unseeded-random",
    summary="np.random.* sampling / stdlib random outside the seeded RNG modules",
)
RPR102 = LintRule(
    code="RPR102",
    name="float-probability-equality",
    summary="== / != on probabilities, rates, or non-sentinel float literals",
)
RPR103 = LintRule(
    code="RPR103",
    name="frozen-object-mutation",
    summary="mutation of frozen scenario/params objects after construction",
)
RPR104 = LintRule(
    code="RPR104",
    name="unvalidated-entry-point",
    summary="public constructor without a _validation helper call or raise",
)
RPR105 = LintRule(
    code="RPR105",
    name="nondeterministic-cache-key",
    summary="wall-clock / uuid / id() / hash() inside cache-key construction",
)

#: All rules, in code order (domain rules plus the concurrency family).
LINT_RULES: tuple[LintRule, ...] = (
    RPR101,
    RPR102,
    RPR103,
    RPR104,
    RPR105,
) + CONCURRENCY_RULES


#: Files (path suffixes) where direct randomness is the point.
RANDOMNESS_ALLOWED_SUFFIXES: tuple[str, ...] = (
    "repro/sim/rng.py",
    "repro/runtime/seeding.py",
)

#: numpy.random attributes that are seeding/plumbing, not unseeded draws.
_NP_RANDOM_SAFE = frozenset(
    {
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Operand names that denote probabilities/rates for RPR102.
_PROBABILITY_NAME = re.compile(
    r"(^|_)(prob|probability|probabilities|rate|rates|pi|rho|weight|weights|"
    r"mass|util|utilization|utility|utilities|welfare|epsilon|tol|tolerance|"
    r"density|fraction)($|_)",
    re.IGNORECASE,
)

#: Receiver names treated as frozen configuration objects for RPR103.
_FROZEN_RECEIVER = re.compile(
    r"(^|_)(scenario|cloud|clouds|params|param|outcome|small_cloud|federation)($|_)",
    re.IGNORECASE,
)

#: Methods allowed to call object.__setattr__ (frozen-dataclass idiom).
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__post_init__", "__setstate__", "__new__"}
)

#: Validation helpers whose call satisfies RPR104.
_VALIDATION_HELPERS = re.compile(
    r"^(require|check_[a-z_]+|validate[a-z_]*|_validate[a-z_]*)$"
)

#: Function-name shapes that build cache keys/fingerprints (RPR105 scope).
_CACHE_KEY_FUNCTION = re.compile(
    r"(fingerprint|cache_key|digest|(^|_)hash(_|$)|_key$)", re.IGNORECASE
)

#: Call targets that are nondeterministic across processes/runs.
_NONDETERMINISTIC_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "now",
        "utcnow",
        "today",
        "uuid1",
        "uuid4",
        "urandom",
        "getrandbits",
    }
)
_NONDETERMINISTIC_BUILTINS = frozenset({"id", "hash"})


def _attribute_chain(node: ast.AST) -> list[str]:
    """Flatten ``a.b.c`` into ``['a', 'b', 'c']`` (empty if not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _operand_name(node: ast.AST) -> str | None:
    """The identifier an operand reads from, if any (name or attribute)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _operand_name(node.func)
    return None


@dataclass
class _ModuleContext:
    """Per-file alias and scope bookkeeping shared by all rules."""

    path: str
    randomness_allowed: bool
    numpy_aliases: set[str] = field(default_factory=set)
    numpy_random_aliases: set[str] = field(default_factory=set)
    stdlib_random_aliases: set[str] = field(default_factory=set)


class _Visitor(ast.NodeVisitor):
    """Single-pass visitor evaluating every lint rule."""

    def __init__(self, context: _ModuleContext) -> None:
        self.context = context
        self.violations: list[Violation] = []
        self._class_stack: list[ast.ClassDef] = []
        self._function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    # -- shared plumbing -------------------------------------------------

    def _report(self, node: ast.AST, rule: LintRule, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.context.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=rule.code,
                message=message,
            )
        )

    # -- imports (alias tracking for RPR101) -----------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            target = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.context.numpy_aliases.add(target)
            elif alias.name == "numpy.random":
                self.context.numpy_random_aliases.add(alias.asname or "numpy")
                if alias.asname:
                    self.context.numpy_random_aliases.add(alias.asname)
            elif alias.name == "random":
                name = alias.asname or "random"
                self.context.stdlib_random_aliases.add(name)
                if not self.context.randomness_allowed:
                    self._report(
                        node,
                        RPR101,
                        f"stdlib 'random' imported as {name!r}; use seeded "
                        "numpy Generator streams from repro.sim.rng",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy" and node.level == 0:
            for alias in node.names:
                if alias.name == "random":
                    self.context.numpy_random_aliases.add(alias.asname or "random")
        elif node.module == "random" and node.level == 0:
            if not self.context.randomness_allowed:
                names = ", ".join(alias.name for alias in node.names)
                self._report(
                    node,
                    RPR101,
                    f"stdlib 'random' names imported ({names}); use seeded "
                    "numpy Generator streams from repro.sim.rng",
                )
        elif node.module == "numpy.random" and node.level == 0:
            for alias in node.names:
                if alias.name not in _NP_RANDOM_SAFE and alias.name != "default_rng":
                    if not self.context.randomness_allowed:
                        self._report(
                            node,
                            RPR101,
                            f"numpy.random.{alias.name} imported directly; draw "
                            "through a seeded Generator instead",
                        )
        self.generic_visit(node)

    # -- scope tracking --------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._function_stack.append(node)
        try:
            self._check_entry_point(node)
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- RPR101: unseeded randomness -------------------------------------

    def _check_random_call(self, node: ast.Call) -> None:
        if self.context.randomness_allowed:
            return
        chain = _attribute_chain(node.func)
        if len(chain) < 2:
            return
        head, tail = chain[0], chain[-1]
        is_np_random = (
            len(chain) >= 3
            and head in self.context.numpy_aliases
            and chain[1] == "random"
        ) or (len(chain) == 2 and head in self.context.numpy_random_aliases)
        if is_np_random:
            if tail in _NP_RANDOM_SAFE:
                return
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    self._report(
                        node,
                        RPR101,
                        "numpy default_rng() called without a seed; pass an "
                        "explicit seed or SeedSequence",
                    )
                return
            self._report(
                node,
                RPR101,
                f"unseeded numpy.random.{tail}() uses hidden global state; "
                "draw through a seeded Generator",
            )
            return
        if len(chain) == 2 and head in self.context.stdlib_random_aliases:
            self._report(
                node,
                RPR101,
                f"stdlib random.{tail}() is unseeded global state; use a "
                "seeded numpy Generator stream",
            )

    # -- RPR102: float equality ------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and side.value not in (0.0, 1.0)
                ):
                    self._report(
                        node,
                        RPR102,
                        f"float equality against literal {side.value!r}; "
                        "compare with a tolerance (math.isclose / abs(a-b) < tol)",
                    )
                    break
            else:
                names = [_operand_name(side) for side in (left, right)]
                if all(name and _PROBABILITY_NAME.search(name) for name in names):
                    self._report(
                        node,
                        RPR102,
                        f"float equality between {names[0]!r} and {names[1]!r} "
                        "(probability/rate operands); compare with a tolerance",
                    )
        self.generic_visit(node)

    # -- RPR103: frozen mutation -----------------------------------------

    def _in_construction_method(self) -> bool:
        return any(
            fn.name in _CONSTRUCTION_METHODS for fn in self._function_stack
        )

    def _check_frozen_target(self, target: ast.AST, node: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        receiver = target.value
        if isinstance(receiver, ast.Name) and _FROZEN_RECEIVER.search(receiver.id):
            if self._in_construction_method():
                return
            self._report(
                node,
                RPR103,
                f"attribute assignment to frozen-looking object "
                f"{receiver.id!r} ({receiver.id}.{target.attr} = ...); "
                "scenario/params objects are immutable — use .with_*() copies",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_frozen_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_frozen_target(node.target, node)
        self.generic_visit(node)

    # -- RPR104: validated entry points ----------------------------------

    @staticmethod
    def _is_exception_class(node: ast.ClassDef) -> bool:
        if re.search(r"(Error|Exception|Violation|Warning)$", node.name):
            return True
        for base in node.bases:
            name = _operand_name(base)
            if name and re.search(r"(Error|Exception|Violation|Warning)$", name):
                return True
        return False

    def _check_entry_point(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if node.name not in ("__init__", "__post_init__"):
            return
        if not self._class_stack or self._class_stack[-1].name.startswith("_"):
            return
        # Exceptions carry diagnostic payloads, not caller configuration.
        if self._is_exception_class(self._class_stack[-1]):
            return
        if self._function_stack[:-1]:  # nested helper class/function
            return
        args = node.args
        positional = [a for a in args.posonlyargs + args.args if a.arg != "self"]
        if node.name == "__init__" and not (
            positional or args.vararg or args.kwonlyargs or args.kwarg
        ):
            return
        if self._calls_validation(node):
            return
        cls = self._class_stack[-1].name
        self._report(
            node,
            RPR104,
            f"public entry point {cls}.{node.name} accepts caller input but "
            "never calls a repro._validation helper (require/check_*) and "
            "never raises; validate or delegate to a validating constructor",
        )

    @staticmethod
    def _calls_validation(node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Raise):
                return True
            if isinstance(child, ast.Call):
                name = _operand_name(child.func)
                if name and _VALIDATION_HELPERS.match(name):
                    return True
        return False

    # -- RPR105: deterministic cache keys --------------------------------

    def _in_cache_key_function(self) -> bool:
        return any(
            _CACHE_KEY_FUNCTION.search(fn.name) for fn in self._function_stack
        )

    def _check_cache_key_call(self, node: ast.Call) -> None:
        if not self._in_cache_key_function():
            return
        chain = _attribute_chain(node.func)
        if chain and chain[-1] in _NONDETERMINISTIC_ATTRS and len(chain) >= 2:
            self._report(
                node,
                RPR105,
                f"nondeterministic call {'.'.join(chain)}() inside cache-key "
                "construction; keys must be pure functions of content",
            )
            return
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _NONDETERMINISTIC_BUILTINS
        ):
            self._report(
                node,
                RPR105,
                f"builtin {node.func.id}() is process-dependent; cache keys "
                "must be stable across runs (hash content explicitly)",
            )

    # -- call dispatch ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_random_call(node)
        self._check_cache_key_call(node)
        if (
            _attribute_chain(node.func) == ["object", "__setattr__"]
            and not self._in_construction_method()
        ):
            self._report(
                node,
                RPR103,
                "object.__setattr__ outside __init__/__post_init__ defeats "
                "frozen dataclasses; construct a new object instead",
            )
        self.generic_visit(node)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
) -> list[Violation]:
    """Lint Python ``source`` and return surviving violations.

    Args:
        source: the module text.
        path: reported path (also drives the randomness allowlist).
        select: optional iterable of rule codes to keep (default: all).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1 if exc.offset else 1,
                code="RPR000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    normalized = path.replace("\\", "/")
    context = _ModuleContext(
        path=path,
        randomness_allowed=any(
            normalized.endswith(suffix) for suffix in RANDOMNESS_ALLOWED_SUFFIXES
        ),
    )
    visitor = _Visitor(context)
    visitor.visit(tree)
    violations = visitor.violations + check_concurrency(tree, source, path)
    violations = apply_noqa(violations, source)
    if select is not None:
        wanted = {code.upper() for code in select}
        violations = [v for v in violations if v.code in wanted or v.code == "RPR000"]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def lint_file(path: Path, select: Sequence[str] | None = None) -> list[Violation]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path=str(path), select=select)


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def lint_paths(
    paths: Sequence[Path], select: Sequence[str] | None = None
) -> list[Violation]:
    """Lint every Python file under ``paths``."""
    violations: list[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path, select=select))
    return violations
