"""Lock-discipline lint rules for the parallel runtime (RPR201–RPR205).

PRs 1–3 introduced thread/process executors, a thread-shared level-prefix
memo, and the single-flight ``UtilityEvaluator`` — shared mutable state
whose correctness contracts a generic linter cannot know.  These rules
make them mechanical:

=======  ==============================================================
Code     Contract
=======  ==============================================================
RPR201   Guarded attributes are written under their lock.  An attribute
         whose initialising assignment carries a ``# guarded-by: <lock>``
         comment may only be written (rebound, item-assigned, mutated in
         place) inside a ``with self.<lock>:`` block.  Construction
         methods (``__init__`` etc.) and ``*_locked`` helpers are exempt;
         calling a ``*_locked`` helper outside a lock is itself flagged.
RPR202   No check-then-act on guarded state outside its lock: a method
         that writes a guarded attribute must not also *read* it (``in``
         tests, ``.get``, subscript loads) outside the lock — the check
         races with concurrent writers even when the write is locked.
RPR203   Consistent lock order, no nested re-acquisition: acquiring a
         lock already held (stdlib locks are non-reentrant — deadlock),
         or acquiring two locks in opposite orders at different sites
         (lock-order inversion — deadlock under contention).
RPR204   No process-unsafe state in picklable objects: a class that
         stores a ``threading``/``multiprocessing`` primitive or an open
         file handle on ``self`` must define ``__getstate__`` or
         ``__reduce__`` — executors pickle task payloads, and a live
         lock in one kills the whole pool submission.
RPR205   No mutable module-level state reworked at runtime: module
         globals rebound via ``global`` or mutated in place from
         function bodies silently diverge across processes (spawned
         workers re-import the module fresh); pass state explicitly or
         re-establish it in a worker bootstrap.
=======  ==============================================================

Conventions introduced here:

- ``# guarded-by: <lock>`` on the line(s) of an attribute's initialising
  assignment declares which lock protects it (the lock is named by its
  attribute name, e.g. ``_lock``).
- A method name ending in ``_locked`` declares "caller holds the lock";
  its body is exempt from RPR201/RPR202 and its call sites are checked
  instead.

Suppression uses the standard ``# repro: noqa[RPR2xx]`` comment.  Run
through the analyzer's command line::

    python -m repro.analysis check --select RPR201,RPR202,RPR203,RPR204,RPR205 src
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.lintbase import LintRule, Violation, attribute_chain

__all__ = [
    "CONCURRENCY_RULES",
    "RPR201",
    "RPR202",
    "RPR203",
    "RPR204",
    "RPR205",
    "check_concurrency",
]

RPR201 = LintRule(
    code="RPR201",
    name="unguarded-guarded-write",
    summary="write to a '# guarded-by:' attribute outside its lock",
)
RPR202 = LintRule(
    code="RPR202",
    name="check-then-act-outside-lock",
    summary="read of a guarded attribute outside its lock in a writing method",
)
RPR203 = LintRule(
    code="RPR203",
    name="lock-order",
    summary="nested re-acquisition or inconsistent acquisition order of locks",
)
RPR204 = LintRule(
    code="RPR204",
    name="process-unsafe-state",
    summary="lock/event/file stored on self without __getstate__/__reduce__",
)
RPR205 = LintRule(
    code="RPR205",
    name="mutable-module-state",
    summary="module-level state rebound or mutated from function bodies",
)

#: All concurrency rules, in code order.
CONCURRENCY_RULES: tuple[LintRule, ...] = (RPR201, RPR202, RPR203, RPR204, RPR205)

#: The guarded-by annotation: ``# guarded-by: _lock``.
_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")

#: Names that denote lock-like objects for RPR203 order tracking.
_LOCKISH_NAME = re.compile(
    r"(^|_)(lock|mutex|rlock|semaphore|sem|cond|condition)($|_)", re.IGNORECASE
)

#: Methods allowed to touch guarded attributes without the lock: the
#: object is not yet (or no longer) shared during construction.
_CONSTRUCTION_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__setstate__", "__getstate__"}
)

#: Dunder hooks whose presence makes a lock-holding class pickle-safe.
_PICKLE_HOOKS = frozenset({"__getstate__", "__reduce__", "__reduce_ex__"})

#: threading / multiprocessing constructors that produce unpicklable or
#: process-local synchronisation state.
_SYNC_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Event",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
    }
)

#: Method calls that mutate a container in place (RPR201/RPR205 writes).
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Constructors of mutable containers for RPR205 module-state tracking.
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "ChainMap",
    }
)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        return bool(chain) and chain[-1] in _MUTABLE_CONSTRUCTORS
    return False


def _add_bindings(target: ast.expr, bound: set[str]) -> None:
    """Collect names *bound* by an assignment target.

    ``x = ...`` and ``x, y = ...`` bind; ``x[k] = ...`` and ``x.a = ...``
    mutate an existing object and bind nothing.
    """
    if isinstance(target, ast.Name):
        bound.add(target.id)
    elif isinstance(target, ast.Starred):
        _add_bindings(target.value, bound)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _add_bindings(element, bound)


def _self_attribute(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``; ``None`` otherwise."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class _Access:
    """One read or write of a guarded ``self.<attr>`` inside a method."""

    attr: str
    write: bool
    node: ast.AST
    held: frozenset[str]


@dataclass
class _ClassInfo:
    """Guard declarations and pickle hooks of one class body."""

    name: str
    guarded: dict[str, str] = field(default_factory=dict)  # attr -> lock name
    pickle_safe: bool = False


def _lock_name(expr: ast.AST) -> str | None:
    """The lock identifier acquired by a ``with`` item, if lock-like.

    ``self.<name>`` and bare ``<name>`` context expressions qualify when
    the name looks lock-like; method calls (``lock.acquire()``) and
    foreign receivers do not — the rules only reason about locks the
    enclosing object owns.
    """
    attr = _self_attribute(expr)
    if attr is not None:
        return attr if _LOCKISH_NAME.search(attr) else None
    if isinstance(expr, ast.Name):
        return expr.id if _LOCKISH_NAME.search(expr.id) else None
    return None


class _Analyzer:
    """Single-file analyzer evaluating all RPR2xx rules."""

    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.violations: list[Violation] = []
        # (outer, inner) -> first with-node acquiring inner while holding
        # outer; used for order-inversion detection after the full pass.
        self._order_pairs: dict[tuple[str, str], list[ast.AST]] = {}

    # -- shared plumbing -------------------------------------------------

    def _report(self, node: ast.AST, rule: LintRule, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=rule.code,
                message=message,
            )
        )

    def _line_range_comment_lock(self, node: ast.stmt) -> str | None:
        """The guarded-by lock named on any source line of ``node``."""
        first = getattr(node, "lineno", 1)
        last = getattr(node, "end_lineno", first) or first
        for lineno in range(first, last + 1):
            if 0 < lineno <= len(self.lines):
                match = _GUARDED_BY.search(self.lines[lineno - 1])
                if match is not None:
                    return match.group("lock")
        return None

    # -- module entry ----------------------------------------------------

    def run(self, tree: ast.Module) -> list[Violation]:
        self._check_module_state(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(node)
        # Lock-order inversions only become visible once every
        # acquisition pair in the file is known.
        for (outer, inner), nodes in sorted(self._order_pairs.items()):
            if outer != inner and (inner, outer) in self._order_pairs:
                for node in nodes:
                    self._report(
                        node,
                        RPR203,
                        f"lock {inner!r} acquired while holding {outer!r}, but "
                        f"the opposite order also occurs in this file; pick one "
                        "global order (deadlock under contention otherwise)",
                    )
        self.violations.sort(key=lambda v: (v.line, v.col, v.code))
        return self.violations

    # -- RPR204 / class-level analysis -----------------------------------

    def _check_class(self, cls: ast.ClassDef) -> None:
        info = _ClassInfo(name=cls.name)
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        info.pickle_safe = any(m.name in _PICKLE_HOOKS for m in methods)
        # Collect guarded-by declarations from every self.<attr> = ...
        # site (conventionally in __init__, but any method counts).
        for method in methods:
            for stmt in ast.walk(method):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    lock = self._line_range_comment_lock(stmt)
                    if lock is None:
                        continue
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        attr = _self_attribute(target)
                        if attr is not None:
                            info.guarded[attr] = lock
        for method in methods:
            self._check_sync_state(method, info)
            self._analyze_method(method, info)

    def _check_sync_state(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef, info: _ClassInfo
    ) -> None:
        """RPR204: synchronisation/file state on a pickle-unsafe class."""
        if info.pickle_safe:
            return
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            attrs = [a for a in map(_self_attribute, node.targets) if a is not None]
            if not attrs:
                continue
            chain = attribute_chain(node.value.func)
            unsafe: str | None = None
            if chain and chain[-1] in _SYNC_FACTORIES:
                if len(chain) == 1 or chain[0] in ("threading", "multiprocessing"):
                    unsafe = ".".join(chain)
            elif chain == ["open"] or chain == ["os", "fdopen"]:
                unsafe = ".".join(chain)
            if unsafe is not None:
                self._report(
                    node,
                    RPR204,
                    f"{info.name}.{attrs[0]} holds {unsafe}() but {info.name} "
                    "defines no __getstate__/__reduce__; executors pickle task "
                    "payloads, and unpicklable state kills the pool submission "
                    "— ship configuration only (see LRUCache.__getstate__)",
                )

    # -- RPR201 / RPR202 / RPR203: per-method lock tracking --------------

    def _analyze_method(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef, info: _ClassInfo
    ) -> None:
        accesses: list[_Access] = []
        locked_calls: list[tuple[ast.Call, str, frozenset[str]]] = []
        self._walk(method.body, frozenset(), info, accesses, locked_calls)
        exempt = (
            method.name in _CONSTRUCTION_METHODS or method.name.endswith("_locked")
        )
        if not exempt:
            wrote = {access.attr for access in accesses if access.write}
            for access in accesses:
                lock = info.guarded[access.attr]
                if lock in access.held:
                    continue
                if access.write:
                    self._report(
                        access.node,
                        RPR201,
                        f"write to {info.name}.{access.attr} outside 'with "
                        f"self.{lock}:' (declared '# guarded-by: {lock}')",
                    )
                elif access.attr in wrote:
                    self._report(
                        access.node,
                        RPR202,
                        f"check-then-act: {info.name}.{method.name} reads "
                        f"self.{access.attr} outside 'with self.{lock}:' but "
                        "also writes it — the check races with concurrent "
                        "writers; move the read under the lock",
                    )
            for call, helper, held in locked_calls:
                if not held:
                    self._report(
                        call,
                        RPR201,
                        f"call to self.{helper}() outside any lock; the "
                        "'_locked' suffix declares that the caller must hold "
                        "the lock",
                    )

    def _walk(
        self,
        body: list[ast.stmt] | ast.stmt | ast.expr,
        held: frozenset[str],
        info: _ClassInfo,
        accesses: list[_Access],
        locked_calls: list[tuple[ast.Call, str, frozenset[str]]],
    ) -> None:
        """Recursive statement walk tracking the lexically held lock set."""
        if isinstance(body, list):
            for stmt in body:
                self._walk(stmt, held, info, accesses, locked_calls)
            return
        node = body
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                self._scan_expr(item.context_expr, held, info, accesses, locked_calls)
                name = _lock_name(item.context_expr)
                if name is not None:
                    if name in held or name in acquired:
                        self._report(
                            node,
                            RPR203,
                            f"lock {name!r} acquired while already held; "
                            "stdlib locks are non-reentrant — this deadlocks",
                        )
                    for outer in sorted(held) + acquired:
                        self._order_pairs.setdefault((outer, name), []).append(node)
                    acquired.append(name)
            self._walk(node.body, held | frozenset(acquired), info, accesses, locked_calls)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function may escape the lock's dynamic extent (it
            # can run after the with-block exits), so its body is checked
            # as holding nothing.
            self._walk(node.body, frozenset(), info, accesses, locked_calls)
            return
        if isinstance(node, ast.ClassDef):
            return  # nested classes are analyzed by their own _check_class
        if isinstance(node, ast.stmt):
            self._scan_statement(node, held, info, accesses, locked_calls)
            for child_body in self._child_bodies(node):
                self._walk(child_body, held, info, accesses, locked_calls)
            return
        self._scan_expr(node, held, info, accesses, locked_calls)

    @staticmethod
    def _child_bodies(node: ast.stmt) -> list[list[ast.stmt]]:
        bodies: list[list[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            value = getattr(node, name, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                bodies.append(value)
        for handler in getattr(node, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    def _scan_statement(
        self,
        node: ast.stmt,
        held: frozenset[str],
        info: _ClassInfo,
        accesses: list[_Access],
        locked_calls: list[tuple[ast.Call, str, frozenset[str]]],
    ) -> None:
        """Record guarded-attribute accesses in one statement's own
        expressions (child statement bodies are walked separately)."""
        write_parts: set[int] = set()

        def mark_write(target: ast.AST) -> None:
            """Register a write target, remembering which Attribute nodes
            participate so the generic read scan skips them."""
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    mark_write(element)
                return
            base = target
            if isinstance(base, ast.Subscript):
                base = base.value
            attr = _self_attribute(base)
            if attr is not None and attr in info.guarded:
                accesses.append(_Access(attr=attr, write=True, node=target, held=held))
                write_parts.add(id(base))

        if isinstance(node, ast.Assign):
            for target in node.targets:
                mark_write(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            mark_write(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                mark_write(target)

        # Expression scan: mutator calls are writes, everything else
        # touching a guarded attribute is a read; only the *statement's
        # own* expressions are visited (nested statements arrive via
        # _walk, preserving their held-lock context).
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                self._scan_expr(
                    child, held, info, accesses, locked_calls, write_parts
                )

    def _scan_expr(
        self,
        node: ast.AST,
        held: frozenset[str],
        info: _ClassInfo,
        accesses: list[_Access],
        locked_calls: list[tuple[ast.Call, str, frozenset[str]]],
        write_parts: set[int] | None = None,
    ) -> None:
        parts = write_parts if write_parts is not None else set()
        pending: list[tuple[ast.AST, frozenset[str]]] = [(node, held)]
        while pending:
            sub, sub_held = pending.pop()
            if isinstance(sub, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                # The function object may outlive the with-block, so its
                # body is analyzed as holding no locks.
                pending.extend(
                    (child, frozenset()) for child in ast.iter_child_nodes(sub)
                )
                continue
            pending.extend((child, sub_held) for child in ast.iter_child_nodes(sub))
            held = sub_held
            if isinstance(sub, ast.Call):
                func = sub.func
                if isinstance(func, ast.Attribute):
                    receiver_attr = _self_attribute(func.value)
                    if (
                        receiver_attr is not None
                        and receiver_attr in info.guarded
                        and func.attr in _MUTATOR_METHODS
                    ):
                        accesses.append(
                            _Access(attr=receiver_attr, write=True, node=sub, held=held)
                        )
                        parts.add(id(func.value))
                    helper = _self_attribute(func)
                    if helper is not None and helper.endswith("_locked"):
                        locked_calls.append((sub, helper, held))
            elif isinstance(sub, ast.Attribute):
                attr = _self_attribute(sub)
                if (
                    attr is not None
                    and attr in info.guarded
                    and id(sub) not in parts
                    and isinstance(sub.ctx, ast.Load)
                ):
                    accesses.append(
                        _Access(attr=attr, write=False, node=sub, held=held)
                    )

    # -- RPR205: module-level mutable state ------------------------------

    def _check_module_state(self, tree: ast.Module) -> None:
        module_names: set[str] = set()
        mutable_names: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    module_names.add(target.id)
                    if value is not None and _is_mutable_literal(value):
                        mutable_names.add(target.id)
        if not module_names:
            return
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._check_function_module_state(node, module_names, mutable_names)

    @staticmethod
    def _locally_bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Names the function binds locally (params, plain assignments,
        loop/with targets) — these shadow same-named module globals
        unless a ``global`` statement says otherwise."""
        bound: set[str] = set()
        args = func.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ):
            bound.add(arg.arg)
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [
                    item.optional_vars
                    for item in node.items
                    if item.optional_vars is not None
                ]
            for target in targets:
                _add_bindings(target, bound)
        return bound

    def _check_function_module_state(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        module_names: set[str],
        mutable_names: set[str],
    ) -> None:
        declared_global: set[str] = {
            name
            for node in ast.walk(func)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        shadowed = self._locally_bound_names(func) - declared_global
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                rebound = [name for name in node.names if name in module_names]
                for name in rebound:
                    self._report(
                        node,
                        RPR205,
                        f"function {func.name!r} rebinds module global "
                        f"{name!r}; spawned process-pool workers re-import "
                        "the module and silently lose this state — pass it "
                        "explicitly or re-establish it in a worker bootstrap",
                    )
            elif isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in mutable_names
                    and callee.value.id not in shadowed
                    and callee.attr in _MUTATOR_METHODS
                ):
                    self._report(
                        node,
                        RPR205,
                        f"function {func.name!r} mutates module-level "
                        f"container {callee.value.id!r}; module state is "
                        "per-process — workers see a fresh copy, and thread "
                        "races corrupt the shared one",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    base = target
                    if isinstance(base, ast.Subscript):
                        base = base.value
                    else:
                        continue  # plain Name assignment shadows locally
                    if (
                        isinstance(base, ast.Name)
                        and base.id in mutable_names
                        and base.id not in shadowed
                    ):
                        self._report(
                            node,
                            RPR205,
                            f"function {func.name!r} writes into module-level "
                            f"container {base.id!r}; module state is "
                            "per-process — workers see a fresh copy, and "
                            "thread races corrupt the shared one",
                        )


def check_concurrency(tree: ast.Module, source: str, path: str) -> list[Violation]:
    """Evaluate every RPR2xx rule over one parsed module.

    Args:
        tree: the parsed AST of ``source``.
        source: the module text (needed for the guarded-by comments).
        path: reported path.

    Returns:
        Violations before noqa filtering (the caller applies it so the
        suppression semantics stay identical across rule families).
    """
    return _Analyzer(source, path).run(tree)
