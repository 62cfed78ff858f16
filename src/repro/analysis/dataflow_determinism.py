"""Determinism taint rules (RPR302, RPR303, RPR305).

The differential checker asserts bitwise-identical equilibria across
serial/process backends, and every fingerprint must be a pure
function of content.  These rules trace the ways nondeterminism leaks
into those guarantees:

=======  ==============================================================
Code     Contract
=======  ==============================================================
RPR302   Unordered-collection order must not feed float accumulation or
         digests: iterating a set (or ``as_completed``, ``os.listdir``,
         ``glob`` results) into a ``sum``/``fsum``/``+=`` accumulator or
         a digest makes the result depend on iteration order — float
         addition is not associative.  Launder through ``sorted()``.
RPR303   Environment taint (``os.environ``, wall clock, ``platform``,
         salted builtin ``hash()``) must not reach fingerprints,
         persisted payloads, or digests: keys must be pure functions of
         content, or a restart silently invalidates every cache entry —
         or worse, two hosts disagree about the same content.
RPR305   Thread-/backend-dependent state (thread ids, pids,
         ``as_completed`` completion order) must not reach observables
         or digests asserted bit-identical by
         :mod:`repro.analysis.differential` — the assertion would then
         fail (or pass) for scheduling reasons, not correctness ones.
=======  ==============================================================

All three share the slice/summary machinery of
:mod:`repro.analysis.summaries`; suppression is the standard
``# repro: noqa[RPR3xx]``.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lintbase import LintRule, Violation, attribute_chain
from repro.analysis.summaries import (
    TAINT_ENV,
    TAINT_THREAD,
    TAINT_UNORDERED,
    FunctionInfo,
    Project,
    SliceResult,
    TaintHit,
)

__all__ = [
    "DETERMINISM_RULES",
    "RPR302",
    "RPR303",
    "RPR305",
    "check_determinism",
]

RPR302 = LintRule(
    code="RPR302",
    name="unordered-float-accumulation",
    summary="set/listing iteration order feeds a float sum, digest, or observable",
)
RPR303 = LintRule(
    code="RPR303",
    name="environment-taint-in-fingerprint",
    summary="os.environ / wall-clock / platform / hash() reaches a fingerprint or payload",
)
RPR305 = LintRule(
    code="RPR305",
    name="backend-state-in-observables",
    summary="thread/pid/as_completed state reaches bit-identical observables or digests",
)

#: All determinism rules, in code order.
DETERMINISM_RULES: tuple[LintRule, ...] = (RPR302, RPR303, RPR305)

#: Order-sensitive reductions over floats.
_ACCUMULATORS = frozenset({"sum", "fsum", "prod", "nansum", "cumsum"})

#: Function names whose return value the differential checker digests.
_OBSERVABLE_NAME = re.compile(r"observable", re.IGNORECASE)


def _violation(path: str, node: ast.AST, rule: LintRule, message: str) -> Violation:
    return Violation(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=rule.code,
        message=message,
    )


def _hits(sliced: SliceResult, kind: str) -> list[TaintHit]:
    return sorted(
        (hit for hit in sliced.taints if hit.kind == kind),
        key=lambda hit: (hit.line, hit.col, hit.what),
    )


def _sinks(
    project: Project, fn: FunctionInfo
) -> list[tuple[ast.AST, str, SliceResult]]:
    """Every taint sink of ``fn``: ``(node, description, slice)``.

    Sinks: arguments of ``hashlib.*`` digests, persisted payloads, the
    return value of fingerprint functions, and the return value of
    observable-builder functions (what the differential checker asserts
    bit-identical).
    """
    slicer = project.slicer(fn)
    sinks: list[tuple[ast.AST, str, SliceResult]] = []
    for call in slicer.digest_calls():
        combined = SliceResult()
        for arg in call.args:
            combined.merge(slicer.trace(arg))
        sinks.append((call, "digest", combined))
    for call, payload in slicer.persist_calls():
        sinks.append((call, "persisted payload", slicer.trace(payload)))
    is_observable = _OBSERVABLE_NAME.search(fn.name) is not None
    if fn.is_fingerprint or is_observable:
        description = "fingerprint" if fn.is_fingerprint else "observables"
        sliced = project.return_slice(fn)
        sinks.append((fn.node, description, sliced))
    return sinks


def _check_sinks(project: Project, fn: FunctionInfo) -> list[Violation]:
    violations: list[Violation] = []
    for node, description, sliced in _sinks(project, fn):
        for hit in _hits(sliced, TAINT_ENV):
            violations.append(
                _violation(
                    fn.path,
                    node,
                    RPR303,
                    f"environment state ({hit.what}, line {hit.line}) flows "
                    f"into the {description} built by {fn.qualname}; "
                    "fingerprints and persisted payloads must be pure "
                    "functions of content — pass the value in explicitly "
                    "or drop it from the key",
                )
            )
        for hit in _hits(sliced, TAINT_THREAD):
            violations.append(
                _violation(
                    fn.path,
                    node,
                    RPR305,
                    f"scheduling-dependent state ({hit.what}, line "
                    f"{hit.line}) flows into the {description} built by "
                    f"{fn.qualname}; the differential checker asserts "
                    "these bit-identical across serial/process "
                    "backends — derive the value from content or task "
                    "identity instead",
                )
            )
        for hit in _hits(sliced, TAINT_UNORDERED):
            violations.append(
                _violation(
                    fn.path,
                    node,
                    RPR302,
                    f"unordered iteration ({hit.what}, line {hit.line}) "
                    f"reaches the {description} built by {fn.qualname}; "
                    "order it first (sorted(...)) so the bytes cannot "
                    "depend on hash seeding or completion order",
                )
            )
    return violations


def _check_tainted_sink_args(project: Project, fn: FunctionInfo) -> list[Violation]:
    """Tainted arguments handed to a callee that digests/persists them."""
    slicer = project.slicer(fn)
    violations: list[Violation] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callee = project.resolve_call(fn, node)
        if callee is None:
            continue
        summary = project.summary(callee)
        if not summary.sink_params:
            continue
        positional = [
            a
            for a in (
                *callee.node.args.posonlyargs,
                *callee.node.args.args,
            )
            if a.arg not in ("self", "cls")
        ]
        pairs: list[tuple[str, ast.expr]] = []
        for index, arg in enumerate(node.args):
            if index < len(positional):
                pairs.append((positional[index].arg, arg))
        for keyword in node.keywords:
            if keyword.arg is not None:
                pairs.append((keyword.arg, keyword.value))
        for param, arg in pairs:
            if param not in summary.sink_params:
                continue
            sliced = slicer.trace(arg)
            for kind, rule, noun in (
                (TAINT_ENV, RPR303, "environment state"),
                (TAINT_THREAD, RPR305, "scheduling-dependent state"),
                (TAINT_UNORDERED, RPR302, "unordered iteration order"),
            ):
                for hit in _hits(sliced, kind):
                    violations.append(
                        _violation(
                            fn.path,
                            node,
                            rule,
                            f"{noun} ({hit.what}, line {hit.line}) is passed "
                            f"as {param!r} to {callee.qualname}, which feeds "
                            "it into a digest or persisted payload",
                        )
                    )
    return violations


def _check_accumulation(project: Project, fn: FunctionInfo) -> list[Violation]:
    """RPR302 over explicit accumulation sites (sum() and += loops)."""
    slicer = project.slicer(fn)
    violations: list[Violation] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if chain and chain[-1] in _ACCUMULATORS and node.args:
                sliced = slicer.trace(node.args[0])
                for hit in _hits(sliced, TAINT_UNORDERED):
                    violations.append(
                        _violation(
                            fn.path,
                            node,
                            RPR302,
                            f"{'.'.join(chain)}() accumulates over an "
                            f"unordered iterable ({hit.what}, line "
                            f"{hit.line}); float addition is not "
                            "associative, so the total depends on "
                            "iteration order — sort first",
                        )
                    )
        elif isinstance(node, ast.For):
            sliced = slicer.trace(node.iter)
            hits = _hits(sliced, TAINT_UNORDERED)
            if not hits:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.AugAssign) and isinstance(sub.op, ast.Add):
                    violations.append(
                        _violation(
                            fn.path,
                            sub,
                            RPR302,
                            f"'+=' accumulation inside a loop over an "
                            f"unordered iterable ({hits[0].what}, line "
                            f"{hits[0].line}); the running total depends "
                            "on iteration order — iterate "
                            "sorted(...) instead",
                        )
                    )
    return violations


def check_determinism(project: Project) -> list[Violation]:
    """Evaluate RPR302/RPR303/RPR305 over every function of ``project``."""
    violations: list[Violation] = []
    for fn in project.functions:
        violations.extend(_check_sinks(project, fn))
        violations.extend(_check_tainted_sink_args(project, fn))
        violations.extend(_check_accumulation(project, fn))
    return violations
