"""Project index, def-use slices, and interprocedural summaries.

The dataflow rule family (RPR301-RPR306, :mod:`repro.analysis.dataflow`)
asks questions no single-file AST pass can answer: *does this parameter
reach the digest expression?*, *does wall-clock taint flow into a
persisted payload?*, *does a version constant enter this fingerprint?*
This module supplies the machinery those rules share:

- :class:`Project` — every module of the analyzed tree parsed once,
  with functions indexed by qualified name and calls resolved across
  modules (imports, ``self.method``, unique-method-name fallback);
- :func:`slice_expr` / :meth:`Project.return_slice` — a flow-insensitive
  backward slice: the parameters, ``self`` attributes, module globals,
  and taint sources that *influence* an expression, following local
  assignments, container mutations, guard conditions (control
  dependence), f-strings, comprehensions, and calls;
- :class:`FunctionSummary` — per-function facts computed to a fixpoint
  bottom-up over the call graph, so a taint introduced two calls deep
  or a version constant added by a callee is visible at the call site.

The taint lattice is a powerset over three independent *kinds*:

=========  ==========================================================
Kind       Introduced by
=========  ==========================================================
env        process environment and wall clock: ``os.environ``,
           ``os.getenv``, ``time.time``/``perf_counter``/...,
           ``datetime.now``, ``platform.*``, ``uuid1``/``uuid4``,
           ``socket.gethostname``, ``os.urandom``, salted builtin
           ``hash()``.
thread     scheduling-dependent state: ``threading.get_ident``,
           ``current_thread``, ``os.getpid``, ``active_count``,
           ``multiprocessing.current_process``, ``as_completed``.
unordered  iteration-order-unstable collections: set literals and
           comprehensions, ``set()``/``frozenset()`` and the set
           algebra methods, ``as_completed``, ``os.listdir`` /
           ``scandir``, ``glob.*``, ``Path.iterdir``/``glob``/
           ``rglob``.
=========  ==========================================================

Merging is set union (may-taint).  The ``unordered`` kind alone is
*laundered* by order-insensitive reductions (``sorted``, ``min``,
``max``, ``len``, ``any``, ``all``): ``sorted(some_set)`` is a
deterministic value even though its argument is not.  ``sum()`` is
deliberately **not** a launderer — float addition is not associative,
so a sum over an unordered collection is exactly the bug RPR302 hunts.

Annotations:

- ``# fingerprint-input:`` on an attribute's initialising assignment
  declares that the attribute must flow into every fingerprint function
  of the class; ``# fingerprint-input: _hash, _key`` restricts the
  obligation to the named functions.  RPR301 enforces the declaration,
  and the ``--self-test`` mutation harness uses it to seed recall
  mutants.
- ``# repro: noqa[RPR3xx]`` suppresses per line, exactly as for the
  RPR1xx family.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro._validation import require
from repro.analysis.lintbase import attribute_chain

__all__ = [
    "FINGERPRINT_INPUT_PATTERN",
    "FINGERPRINT_NAME",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "Project",
    "SliceResult",
    "TAINT_ENV",
    "TAINT_THREAD",
    "TAINT_UNORDERED",
    "TaintHit",
    "VERSION_NAME",
    "is_fingerprint_name",
]

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Function-name shapes that build fingerprints, cache keys, or digests.
FINGERPRINT_NAME = re.compile(
    r"(fingerprint|content_hash|cache_key|digest|(^|_)hash($|_)|_key$)",
    re.IGNORECASE,
)

#: Names that carry a format/schema version marker.
VERSION_NAME = re.compile(r"version", re.IGNORECASE)

#: The fingerprint-input annotation: ``# fingerprint-input: _hash, _key``
#: (the target list optional — bare means every fingerprint function of
#: the class).
FINGERPRINT_INPUT_PATTERN = re.compile(
    r"#\s*fingerprint-input:?\s*(?P<targets>[A-Za-z0-9_,\s]*)"
)

TAINT_ENV = "env"
TAINT_THREAD = "thread"
TAINT_UNORDERED = "unordered"

#: Attribute/call chain tails introducing environment taint, keyed by the
#: head module names they are legitimate under (empty set: any receiver).
_ENV_CALL_TAILS: dict[str, frozenset[str]] = {
    "getenv": frozenset({"os"}),
    "environb": frozenset({"os"}),
    "uname": frozenset({"os", "platform"}),
    "getlogin": frozenset({"os"}),
    "urandom": frozenset({"os"}),
    "time": frozenset({"time"}),
    "time_ns": frozenset({"time"}),
    "perf_counter": frozenset({"time"}),
    "perf_counter_ns": frozenset({"time"}),
    "monotonic": frozenset({"time"}),
    "monotonic_ns": frozenset({"time"}),
    "process_time": frozenset({"time"}),
    "now": frozenset({"datetime", "date"}),
    "utcnow": frozenset({"datetime"}),
    "today": frozenset({"datetime", "date"}),
    "uuid1": frozenset({"uuid"}),
    "uuid4": frozenset({"uuid"}),
    "gethostname": frozenset({"socket"}),
    "getfqdn": frozenset({"socket"}),
    "getuser": frozenset({"getpass"}),
}

#: ``platform.<anything>()`` is machine identity; the whole module taints.
_ENV_MODULES = frozenset({"platform"})

#: Attribute chains (no call needed) introducing environment taint.
_ENV_ATTR_CHAINS = frozenset({("os", "environ"), ("sys", "platform")})

#: Calls introducing scheduling/backend taint.
_THREAD_CALL_TAILS: dict[str, frozenset[str]] = {
    "get_ident": frozenset({"threading"}),
    "get_native_id": frozenset({"threading"}),
    "current_thread": frozenset({"threading"}),
    "active_count": frozenset({"threading"}),
    "getpid": frozenset({"os"}),
    "gettid": frozenset({"os"}),
    "current_process": frozenset({"multiprocessing"}),
    "as_completed": frozenset(),
}

#: Calls whose result iterates in an unstable order.
_UNORDERED_CALL_TAILS: dict[str, frozenset[str]] = {
    "set": frozenset(),
    "frozenset": frozenset(),
    "as_completed": frozenset(),
    "listdir": frozenset({"os"}),
    "scandir": frozenset({"os"}),
    "glob": frozenset(),
    "iglob": frozenset({"glob"}),
    "rglob": frozenset(),
    "iterdir": frozenset(),
    "union": frozenset(),
    "intersection": frozenset(),
    "difference": frozenset(),
    "symmetric_difference": frozenset(),
}

#: Order-insensitive reductions: their result is deterministic even over
#: an unordered argument, so they launder the ``unordered`` kind (only).
_ORDER_LAUNDERERS = frozenset({"sorted", "min", "max", "len", "any", "all"})

#: In-place mutator methods (a call on a name counts as a definition).
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


def is_fingerprint_name(name: str) -> bool:
    """Whether ``name`` is a fingerprint-function name (dunders never are)."""
    if name.startswith("__") and name.endswith("__"):
        return False
    return FINGERPRINT_NAME.search(name) is not None


@dataclass(frozen=True)
class TaintHit:
    """One taint source observed inside a slice."""

    kind: str
    what: str
    line: int
    col: int


@dataclass
class SliceResult:
    """Everything that influences a sliced expression."""

    params: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)
    names: set[str] = field(default_factory=set)
    taints: set[TaintHit] = field(default_factory=set)
    has_version: bool = False

    def merge(self, other: "SliceResult") -> None:
        self.params |= other.params
        self.attrs |= other.attrs
        self.names |= other.names
        self.taints |= other.taints
        self.has_version = self.has_version or other.has_version

    def taint_kinds(self) -> set[str]:
        return {hit.kind for hit in self.taints}


@dataclass
class FunctionSummary:
    """Interprocedural facts about one function, computed to a fixpoint.

    Attributes:
        attrs_to_return: ``self`` attributes influencing the return value.
        return_taints: taint hits the return value carries (introduced in
            this function or any callee, independent of the arguments).
        return_has_version: a version-named constant/key/global flows
            into the return value.
        sink_params: parameters whose value flows into a digest or
            persisted payload inside this function (or transitively in a
            callee) — a tainted argument at any call site is a finding.
        returns_value: the function has at least one ``return <expr>``.
    """

    attrs_to_return: set[str] = field(default_factory=set)
    return_taints: set[TaintHit] = field(default_factory=set)
    return_has_version: bool = False
    sink_params: set[str] = field(default_factory=set)
    returns_value: bool = False

    def key(self) -> tuple[object, ...]:
        return (
            tuple(sorted(self.attrs_to_return)),
            tuple(sorted((h.kind, h.what, h.line, h.col) for h in self.return_taints)),
            self.return_has_version,
            tuple(sorted(self.sink_params)),
            self.returns_value,
        )


@dataclass
class FunctionInfo:
    """One function or method of the analyzed project."""

    path: str
    module_name: str
    name: str
    qualname: str
    class_name: str | None
    node: FuncDef

    @property
    def params(self) -> tuple[str, ...]:
        args = self.node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        return tuple(n for n in names if n not in ("self", "cls"))

    @property
    def has_self(self) -> bool:
        args = self.node.args
        first = (*args.posonlyargs, *args.args)[:1]
        return bool(first) and first[0].arg in ("self", "cls")

    @property
    def is_fingerprint(self) -> bool:
        return is_fingerprint_name(self.name)


@dataclass
class ModuleInfo:
    """One parsed module with its local indexes."""

    path: str
    name: str
    source: str
    lines: list[str]
    tree: ast.Module
    functions: list[FunctionInfo] = field(default_factory=list)
    #: local alias -> imported module dotted path (``import x.y as z``).
    import_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (module dotted path, original name) for from-imports.
    imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: class name -> {attribute -> declared target functions (None=all)}.
    fingerprint_inputs: dict[str, dict[str, tuple[str, ...] | None]] = field(
        default_factory=dict
    )


def _module_name_for(path: str) -> str:
    """Dotted module name for ``path`` (best effort; unique per file)."""
    parts = Path(path).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else str(path)


def _line_comment(lines: list[str], node: ast.stmt) -> str | None:
    """The fingerprint-input targets string on any line of ``node``."""
    first = getattr(node, "lineno", 1)
    last = getattr(node, "end_lineno", first) or first
    for lineno in range(first, last + 1):
        if 0 < lineno <= len(lines):
            match = FINGERPRINT_INPUT_PATTERN.search(lines[lineno - 1])
            if match is not None:
                return match.group("targets") or ""
    return None


def _parse_targets(raw: str) -> tuple[str, ...] | None:
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    return names or None


class Project:
    """Every module of the analyzed tree, parsed and cross-indexed.

    Args:
        sources: mapping of file path to module source text.
        parsed: optional pre-parsed trees keyed by path (the self-test
            reuses unchanged trees across mutants).
    """

    def __init__(
        self,
        sources: Mapping[str, str],
        parsed: Mapping[str, ast.Module] | None = None,
    ) -> None:
        require(
            all(isinstance(key, str) for key in sources),
            "sources must map str paths to module text",
        )
        self.modules: dict[str, ModuleInfo] = {}
        self.modules_by_name: dict[str, ModuleInfo] = {}
        self.functions: list[FunctionInfo] = []
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._summaries: dict[tuple[str, str], FunctionSummary] = {}
        for path in sorted(sources):
            source = sources[path]
            tree = parsed.get(path) if parsed else None
            if tree is None:
                try:
                    tree = ast.parse(source, filename=path)
                except SyntaxError:
                    continue
            module = self._index_module(path, source, tree)
            self.modules[path] = module
            self.modules_by_name[module.name] = module
        self._compute_summaries()

    # -- indexing --------------------------------------------------------

    def _index_module(self, path: str, source: str, tree: ast.Module) -> ModuleInfo:
        module = ModuleInfo(
            path=path,
            name=_module_name_for(path),
            source=source,
            lines=source.splitlines(),
            tree=tree,
        )
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    module.imported_names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
        self._index_functions(module, tree.body, class_name=None)
        return module

    def _index_functions(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        class_name: str | None,
    ) -> None:
        for node in body:
            if isinstance(node, _FUNC_NODES):
                qualname = f"{class_name}.{node.name}" if class_name else node.name
                info = FunctionInfo(
                    path=module.path,
                    module_name=module.name,
                    name=node.name,
                    qualname=qualname,
                    class_name=class_name,
                    node=node,
                )
                module.functions.append(info)
                self.functions.append(info)
                if class_name is not None:
                    self._methods_by_name.setdefault(node.name, []).append(info)
            elif isinstance(node, ast.ClassDef):
                self._index_class_annotations(module, node)
                self._index_functions(module, node.body, class_name=node.name)

    def _index_class_annotations(self, module: ModuleInfo, cls: ast.ClassDef) -> None:
        declared: dict[str, tuple[str, ...] | None] = {}
        # Dataclass-style field declarations in the class body.
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                raw = _line_comment(module.lines, stmt)
                if raw is not None:
                    declared[stmt.target.id] = _parse_targets(raw)
        # ``self.<attr> = ...`` sites in any method (conventionally
        # __init__).
        for stmt in cls.body:
            if not isinstance(stmt, _FUNC_NODES):
                continue
            for sub in ast.walk(stmt):
                if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    continue
                raw = _line_comment(module.lines, sub)
                if raw is None:
                    continue
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        declared[target.attr] = _parse_targets(raw)
        if declared:
            module.fingerprint_inputs.setdefault(cls.name, {}).update(declared)

    # -- lookups ---------------------------------------------------------

    def function(self, module_name: str, qualname: str) -> FunctionInfo | None:
        module = self.modules_by_name.get(module_name)
        if module is None:
            return None
        for info in module.functions:
            if info.qualname == qualname:
                return info
        return None

    def fingerprint_functions(self) -> list[FunctionInfo]:
        return [fn for fn in self.functions if fn.is_fingerprint]

    def declared_inputs(self, fn: FunctionInfo) -> list[str]:
        """Attributes declared ``# fingerprint-input:`` targeting ``fn``."""
        if fn.class_name is None:
            return []
        module = self.modules[fn.path]
        declared = module.fingerprint_inputs.get(fn.class_name, {})
        return sorted(
            attr
            for attr, targets in declared.items()
            if targets is None or fn.name in targets
        )

    def summary(self, fn: FunctionInfo) -> FunctionSummary:
        return self._summaries[(fn.path, fn.qualname)]

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> FunctionInfo | None:
        """Best-effort static resolution of ``call`` inside ``caller``.

        Resolution order: ``self.m`` to a same-class method; a bare name
        to a same-module function, then a from-import into a project
        module; ``alias.f`` through ``import`` aliases; finally any
        method name defined by exactly one project class (the receiver's
        type is unknown, but a unique name is unambiguous).
        """
        chain = attribute_chain(call.func)
        module = self.modules[caller.path]
        if len(chain) == 2 and chain[0] in ("self", "cls") and caller.class_name:
            for info in module.functions:
                if info.class_name == caller.class_name and info.name == chain[1]:
                    return info
            return None
        if len(chain) == 1:
            name = chain[0]
            for info in module.functions:
                if info.class_name is None and info.name == name:
                    return info
            if name in module.imported_names:
                target_module, original = module.imported_names[name]
                return self.function(target_module, original)
            return None
        if len(chain) == 2 and chain[0] in module.import_aliases:
            return self.function(module.import_aliases[chain[0]], chain[1])
        if chain:
            candidates = self._methods_by_name.get(chain[-1], [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    # -- slicing ---------------------------------------------------------

    def return_slice(self, fn: FunctionInfo) -> SliceResult:
        """Influences of ``fn``'s return value (union over return sites)."""
        slicer = _Slicer(self, fn)
        result = SliceResult()
        for ret, guards in slicer.returns:
            if ret.value is None:
                continue
            result.merge(slicer.trace(ret.value))
            for guard in guards:
                result.merge(slicer.trace(guard))
        return result

    def slicer(self, fn: FunctionInfo) -> "_Slicer":
        return _Slicer(self, fn)

    # -- summaries -------------------------------------------------------

    def _compute_summaries(self) -> None:
        for fn in self.functions:
            self._summaries[(fn.path, fn.qualname)] = FunctionSummary()
        for _ in range(8):  # fixpoint over call-graph cycles; depth-bounded
            changed = False
            for fn in self.functions:
                updated = self._summarize(fn)
                key = (fn.path, fn.qualname)
                if updated.key() != self._summaries[key].key():
                    self._summaries[key] = updated
                    changed = True
                else:
                    self._summaries[key] = updated
            if not changed:
                break

    def _summarize(self, fn: FunctionInfo) -> FunctionSummary:
        slicer = _Slicer(self, fn)
        summary = FunctionSummary()
        returned = SliceResult()
        for ret, guards in slicer.returns:
            if ret.value is None:
                continue
            summary.returns_value = True
            returned.merge(slicer.trace(ret.value))
            for guard in guards:
                returned.merge(slicer.trace(guard))
        summary.attrs_to_return = set(returned.attrs)
        summary.return_taints = set(returned.taints)
        summary.return_has_version = returned.has_version
        params = set(fn.params)
        for sink_slice in slicer.sink_slices():
            summary.sink_params |= params & sink_slice.params
        return summary


class _Slicer:
    """Flow-insensitive backward slicing inside one function.

    Definitions are collected in one pass (plain and augmented
    assignments, loop/with targets, walrus bindings, container-mutating
    statements), each tagged with the guard conditions it sits under;
    tracing an expression then chases names through those definitions,
    records parameters / ``self`` attributes / globals, classifies taint
    sources, and consults callee summaries at resolved call sites.
    """

    def __init__(self, project: Project, fn: FunctionInfo) -> None:
        self.project = project
        self.fn = fn
        self.params = set(fn.params)
        #: name -> [(value expression, guard expressions)]
        self.defs: dict[str, list[tuple[ast.expr, tuple[ast.expr, ...]]]] = {}
        #: every return statement with its guard stack.
        self.returns: list[tuple[ast.Return, tuple[ast.expr, ...]]] = []
        self._collect(fn.node.body, ())

    # -- definition collection -------------------------------------------

    def _add_def(
        self, name: str, value: ast.expr, guards: tuple[ast.expr, ...]
    ) -> None:
        self.defs.setdefault(name, []).append((value, guards))

    def _bind_target(
        self, target: ast.expr, value: ast.expr, guards: tuple[ast.expr, ...]
    ) -> None:
        if isinstance(target, ast.Name):
            self._add_def(target.id, value, guards)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, value, guards)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, value, guards)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # ``x[k] = v`` / ``x.a = v`` mutates the object bound to the
            # base name: the write contributes to that name's content.
            base: ast.expr = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                self._add_def(base.id, value, guards)
                if isinstance(target, ast.Subscript) and isinstance(
                    target.slice, ast.expr
                ):
                    self._add_def(base.id, target.slice, guards)

    def _collect(
        self, body: Sequence[ast.stmt], guards: tuple[ast.expr, ...]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._bind_target(target, stmt.value, guards)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind_target(stmt.target, stmt.value, guards)
            elif isinstance(stmt, ast.AugAssign):
                self._bind_target(stmt.target, stmt.value, guards)
            elif isinstance(stmt, ast.Return):
                self.returns.append((stmt, guards))
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.attr in _MUTATOR_METHODS
                ):
                    for arg in call.args:
                        self._add_def(func.value.id, arg, guards)
                    for keyword in call.keywords:
                        self._add_def(func.value.id, keyword.value, guards)
            elif isinstance(stmt, (ast.If, ast.While)):
                inner = guards + (stmt.test,)
                self._collect(stmt.body, inner)
                self._collect(stmt.orelse, inner)
                continue
            elif isinstance(stmt, ast.For):
                self._bind_target(stmt.target, stmt.iter, guards)
                self._collect(stmt.body, guards)
                self._collect(stmt.orelse, guards)
                continue
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind_target(
                            item.optional_vars, item.context_expr, guards
                        )
                self._collect(stmt.body, guards)
                continue
            elif isinstance(stmt, ast.Try):
                self._collect(stmt.body, guards)
                for handler in stmt.handlers:
                    self._collect(handler.body, guards)
                self._collect(stmt.orelse, guards)
                self._collect(stmt.finalbody, guards)
                continue
            elif isinstance(stmt, _FUNC_NODES) or isinstance(stmt, ast.ClassDef):
                continue  # nested scopes are sliced on their own
            # Walrus bindings can hide anywhere in a statement's exprs.
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.NamedExpr) and isinstance(
                    sub.target, ast.Name
                ):
                    self._add_def(sub.target.id, sub.value, guards)

    # -- tracing ----------------------------------------------------------

    def trace(self, expr: ast.expr, bound: frozenset[str] = frozenset()) -> SliceResult:
        """The :class:`SliceResult` influencing ``expr``."""
        return self._trace(expr, bound, visited=set())

    def _taint_for_call(self, chain: list[str]) -> list[tuple[str, str]]:
        if not chain:
            return []
        head, tail = chain[0], chain[-1]
        hits: list[tuple[str, str]] = []
        for table, kind in (
            (_ENV_CALL_TAILS, TAINT_ENV),
            (_THREAD_CALL_TAILS, TAINT_THREAD),
            (_UNORDERED_CALL_TAILS, TAINT_UNORDERED),
        ):
            heads = table.get(tail)
            if heads is None:
                continue
            if not heads or head in heads or len(chain) == 1:
                hits.append((kind, ".".join(chain)))
        if head in _ENV_MODULES and len(chain) >= 2:
            hits.append((TAINT_ENV, ".".join(chain)))
        return hits

    def _record_call_taints(self, node: ast.Call, result: SliceResult) -> None:
        chain = attribute_chain(node.func)
        for kind, what in self._taint_for_call(chain):
            result.taints.add(
                TaintHit(kind=kind, what=f"{what}()", line=node.lineno, col=node.col_offset + 1)
            )
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            result.taints.add(
                TaintHit(
                    kind=TAINT_ENV,
                    what="builtin hash() (PYTHONHASHSEED-salted)",
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )

    def _trace(
        self,
        expr: ast.expr,
        bound: frozenset[str],
        visited: set[str],
    ) -> SliceResult:
        result = SliceResult()
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in bound or name in visited:
                return result
            if name in self.params:
                result.params.add(name)
                if VERSION_NAME.search(name):
                    result.has_version = True
                # A rebound parameter (``payload = {..., **payload}``)
                # carries the influences of its redefinitions too.
                if name not in self.defs:
                    return result
            if name in self.defs:
                visited.add(name)
                for value, guards in self.defs[name]:
                    result.merge(self._trace(value, bound, visited))
                    for guard in guards:
                        result.merge(self._trace(guard, bound, visited))
                return result
            result.names.add(name)
            if VERSION_NAME.search(name):
                result.has_version = True
            return result
        if isinstance(expr, ast.Attribute):
            chain = attribute_chain(expr)
            if tuple(chain) in _ENV_ATTR_CHAINS:
                result.taints.add(
                    TaintHit(
                        kind=TAINT_ENV,
                        what=".".join(chain),
                        line=expr.lineno,
                        col=expr.col_offset + 1,
                    )
                )
                return result
            if (
                len(chain) == 2
                and chain[0] in ("self", "cls")
                and self.fn.class_name is not None
            ):
                result.attrs.add(chain[1])
                if VERSION_NAME.search(chain[1]):
                    result.has_version = True
                return result
            if VERSION_NAME.search(expr.attr):
                result.has_version = True
            result.merge(self._trace(expr.value, bound, visited))
            return result
        if isinstance(expr, ast.Call):
            self._record_call_taints(expr, result)
            chain = attribute_chain(expr.func)
            launder = bool(chain) and chain[-1] in _ORDER_LAUNDERERS
            inner = SliceResult()
            if not isinstance(expr.func, (ast.Name, ast.Attribute)):
                inner.merge(self._trace(expr.func, bound, visited))
            elif isinstance(expr.func, ast.Attribute):
                inner.merge(self._trace(expr.func.value, bound, visited))
            for arg in expr.args:
                inner.merge(self._trace(arg, bound, visited))
            for keyword in expr.keywords:
                inner.merge(self._trace(keyword.value, bound, visited))
            callee = self.project.resolve_call(self.fn, expr)
            if callee is not None:
                summary = self.project.summary(callee)
                inner.taints |= summary.return_taints
                inner.has_version = inner.has_version or summary.return_has_version
                if (
                    callee.class_name is not None
                    and callee.class_name == self.fn.class_name
                    and chain[:1] in (["self"], ["cls"])
                ):
                    inner.attrs |= summary.attrs_to_return
            if launder:
                inner.taints = {
                    hit for hit in inner.taints if hit.kind != TAINT_UNORDERED
                }
            result.merge(inner)
            return result
        if isinstance(expr, (ast.Set, ast.SetComp)):
            result.taints.add(
                TaintHit(
                    kind=TAINT_UNORDERED,
                    what="set literal" if isinstance(expr, ast.Set) else "set comprehension",
                    line=expr.lineno,
                    col=expr.col_offset + 1,
                )
            )
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is None:
                    continue
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and VERSION_NAME.search(key.value)
                ):
                    result.has_version = True
                result.merge(self._trace(key, bound, visited))
            for value in expr.values:
                result.merge(self._trace(value, bound, visited))
            return result
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            comp_bound = set(bound)
            for generator in expr.generators:
                result.merge(self._trace(generator.iter, frozenset(comp_bound), visited))
                names: set[str] = set()
                _collect_bound_names(generator.target, names)
                comp_bound |= names
                for condition in generator.ifs:
                    result.merge(
                        self._trace(condition, frozenset(comp_bound), visited)
                    )
            inner_bound = frozenset(comp_bound)
            if isinstance(expr, ast.DictComp):
                result.merge(self._trace(expr.key, inner_bound, visited))
                result.merge(self._trace(expr.value, inner_bound, visited))
            else:
                result.merge(self._trace(expr.elt, inner_bound, visited))
            return result
        if isinstance(expr, ast.Lambda):
            names = set()
            for arg in (
                *expr.args.posonlyargs,
                *expr.args.args,
                *expr.args.kwonlyargs,
            ):
                names.add(arg.arg)
            result.merge(self._trace(expr.body, bound | frozenset(names), visited))
            return result
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, str) and VERSION_NAME.search(expr.value):
                result.has_version = True
            return result
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                result.merge(self._trace(child, bound, visited))
        return result

    # -- sink enumeration --------------------------------------------------

    def digest_calls(self) -> list[ast.Call]:
        """``hashlib.<alg>(...)`` calls anywhere in the function."""
        found: list[ast.Call] = []
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if len(chain) == 2 and chain[0] == "hashlib":
                    found.append(node)
        return found

    def persist_calls(self) -> list[tuple[ast.Call, ast.expr]]:
        """JSON/pickle persistence sites: ``(call, payload expression)``.

        Covers ``json.dump(payload, fh)`` / ``pickle.dump(payload, fh)``
        and ``*.write_text(...)`` / ``*.write(...)`` whose argument
        contains a ``json.dumps(payload)`` call.  Plain-text writes
        (no ``json.dumps`` in the argument) are not payload formats.
        """
        found: list[tuple[ast.Call, ast.expr]] = []
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if (
                len(chain) == 2
                and chain[0] in ("json", "pickle")
                and chain[1] == "dump"
                and node.args
            ):
                found.append((node, node.args[0]))
            elif chain and chain[-1] in ("write_text", "write") and node.args:
                for sub in ast.walk(node.args[0]):
                    if (
                        isinstance(sub, ast.Call)
                        and attribute_chain(sub.func) == ["json", "dumps"]
                        and sub.args
                    ):
                        found.append((node, sub.args[0]))
                        break
        return found

    def sink_slices(self) -> list[SliceResult]:
        """Slices of every digest argument and persisted payload."""
        slices: list[SliceResult] = []
        for call in self.digest_calls():
            combined = SliceResult()
            for arg in call.args:
                combined.merge(self.trace(arg))
            slices.append(combined)
        for _, payload in self.persist_calls():
            slices.append(self.trace(payload))
        return slices


def _collect_bound_names(target: ast.expr, into: set[str]) -> None:
    if isinstance(target, ast.Name):
        into.add(target.id)
    elif isinstance(target, ast.Starred):
        _collect_bound_names(target.value, into)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _collect_bound_names(element, into)


def load_sources(paths: Iterable[Path]) -> dict[str, str]:
    """Read every ``.py`` file under ``paths`` into a sources mapping."""
    sources: dict[str, str] = {}
    for path in paths:
        if path.is_dir():
            for file_path in sorted(path.rglob("*.py")):
                sources[str(file_path)] = file_path.read_text(encoding="utf-8")
        elif path.suffix == ".py":
            sources[str(path)] = path.read_text(encoding="utf-8")
    return sources
