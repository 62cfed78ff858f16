"""Interprocedural fingerprint-soundness & determinism lint (RPR3xx).

Run through the analyzer's command line::

    python -m repro.analysis check src
    python -m repro.analysis check --list-rules
    python -m repro.analysis check --select RPR301 src
    python -m repro.analysis check --self-test src

The system's correctness rests on content-hash caches at two tiers
(level-prefix memo, disk params cache) and on
bitwise-identical equilibria across serial/process backends.
The RPR3xx family makes those contracts statically checkable:

=======  ==============================================================
Code     Contract
=======  ==============================================================
RPR301   Every declared fingerprint input (signature parameter or
         ``# fingerprint-input:`` attribute) flows into the returned
         key/digest expression.
RPR302   Unordered-collection iteration order never feeds float
         accumulation, digests, or observables.
RPR303   Environment state (``os.environ``, wall clock, ``platform``,
         salted ``hash()``) never reaches fingerprints, persisted
         payloads, or digests.
RPR304   Objects are not mutated after entering a fingerprint.
RPR305   Thread-/backend-dependent state never reaches observables the
         differential checker asserts bit-identical.
RPR306   Persisted payload formats carry a version constant.
=======  ==============================================================

Unlike the single-file RPR1xx family, these rules are
*interprocedural*: the whole tree is indexed into a
:class:`~repro.analysis.summaries.Project`, calls are resolved across
modules, and per-function summaries are computed to a fixpoint, so a
taint introduced two calls deep is visible at the sink.

``--self-test`` measures the analyzer's recall instead of assuming it:
for every real fingerprint function in the tree it seeds one mutant per
flowing input — severing every read of that input to ``None`` — and
asserts RPR301 fires for each.  Anything below 100% is a failure.

Suppression: ``# repro: noqa[RPR3xx]`` per line, exactly as for the
other rule families.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, TextIO

from repro.analysis.dataflow_determinism import DETERMINISM_RULES, check_determinism
from repro.analysis.dataflow_fingerprint import (
    FINGERPRINT_RULES,
    check_fingerprints,
    required_inputs,
)
from repro.analysis.lintbase import LintRule, Violation, apply_noqa
from repro.analysis.summaries import (
    FunctionInfo,
    ModuleInfo,
    Project,
    load_sources,
)

__all__ = [
    "DATAFLOW_RULES",
    "MutantOutcome",
    "analyze_paths",
    "analyze_sources",
    "run_self_test",
]

#: Every RPR3xx rule, in code order.
DATAFLOW_RULES: tuple[LintRule, ...] = tuple(
    sorted((*FINGERPRINT_RULES, *DETERMINISM_RULES), key=lambda rule: rule.code)
)


def analyze_sources(
    sources: Mapping[str, str],
    select: Sequence[str] | None = None,
    noqa: bool = True,
    parsed: Mapping[str, ast.Module] | None = None,
) -> list[Violation]:
    """Run every RPR3xx rule over ``sources`` and return violations.

    Args:
        sources: mapping of file path to module source text.
        select: optional rule codes to keep (default: all).
        noqa: honour ``# repro: noqa[...]`` suppressions (the mutation
            self-test disables this so suppressions cannot mask a miss).
        parsed: optional pre-parsed trees, keyed by path.
    """
    project = Project(sources, parsed=parsed)
    violations = check_fingerprints(project) + check_determinism(project)
    if noqa:
        by_path: dict[str, list[Violation]] = {}
        for violation in violations:
            by_path.setdefault(violation.path, []).append(violation)
        violations = []
        for path, group in by_path.items():
            violations.extend(apply_noqa(group, sources.get(path, "")))
    if select is not None:
        wanted = {code.upper() for code in select}
        violations = [v for v in violations if v.code in wanted]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def analyze_paths(
    paths: Sequence[Path],
    select: Sequence[str] | None = None,
    noqa: bool = True,
) -> list[Violation]:
    """Analyze every ``.py`` file under ``paths``."""
    return analyze_sources(load_sources(paths), select=select, noqa=noqa)


# -- mutation self-test --------------------------------------------------


@dataclass
class MutantOutcome:
    """One seeded fingerprint-omission mutant and whether RPR301 caught it."""

    path: str
    qualname: str
    kind: str
    name: str
    caught: bool

    def render(self) -> str:
        status = "caught" if self.caught else "MISSED"
        return (
            f"self-test: {self.path}:{self.qualname} :: sever {self.kind} "
            f"{self.name!r} -> {status}"
        )


def _sever_input(
    module: ModuleInfo, fn: FunctionInfo, kind: str, name: str
) -> str | None:
    """Mutated module source with every read of the input set to ``None``.

    Works on source spans, not ``ast.unparse``, so comments — including
    ``# fingerprint-input:`` declarations and ``# repro: noqa`` lines —
    survive the mutation.  Offsets are UTF-8 byte offsets (the ``ast``
    convention), so splicing happens on encoded lines.  Returns ``None``
    when no single-line read of the input exists to sever.
    """
    reads: list[ast.expr] = []
    for node in ast.walk(fn.node):
        if kind == "parameter":
            if (
                isinstance(node, ast.Name)
                and node.id == name
                and isinstance(node.ctx, ast.Load)
            ):
                reads.append(node)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            reads.append(node)
    spans: list[tuple[int, int, int]] = []  # (lineno, col, end_col)
    for read in reads:
        if read.end_lineno != read.lineno or read.end_col_offset is None:
            continue  # multi-line span; leave it and sever the others
        spans.append((read.lineno, read.col_offset, read.end_col_offset))
    if not spans:
        return None
    lines = [line.encode("utf-8") for line in module.source.splitlines(keepends=True)]
    for lineno, col, end_col in sorted(spans, reverse=True):
        line = lines[lineno - 1]
        lines[lineno - 1] = line[:col] + b"None" + line[end_col:]
    return b"".join(lines).decode("utf-8")


def run_self_test(paths: Sequence[Path], stream: TextIO | None = None) -> int:
    """Seed one omission mutant per flowing fingerprint input; demand 100%.

    Each fingerprint-declaring file is analyzed in isolation (calls out
    of the file are traced permissively, so an argument always reaches
    the slice — sound for RPR301), which keeps the per-mutant cost to
    one small re-index instead of a whole-tree fixpoint.
    """
    if stream is None:
        stream = sys.stdout
    sources = load_sources(paths)
    outcomes: list[MutantOutcome] = []
    skipped: list[str] = []
    for path in sorted(sources):
        baseline = Project({path: sources[path]})
        for fn in baseline.fingerprint_functions():
            if not baseline.summary(fn).returns_value:
                continue
            sliced = baseline.return_slice(fn)
            for kind, name in required_inputs(baseline, fn):
                flowing = (
                    name in sliced.params if kind == "parameter" else name in sliced.attrs
                )
                if not flowing:
                    continue  # a live RPR301 finding, not self-test material
                mutated = _sever_input(baseline.modules[path], fn, kind, name)
                if mutated is None:
                    skipped.append(f"{path}:{fn.qualname} {kind} {name!r}")
                    continue
                mutant = Project({path: mutated})
                findings = check_fingerprints(mutant)  # noqa suppressions off
                caught = any(
                    v.code == "RPR301"
                    and fn.qualname in v.message
                    and f"{name!r}" in v.message
                    for v in findings
                )
                outcomes.append(
                    MutantOutcome(
                        path=path, qualname=fn.qualname, kind=kind, name=name, caught=caught
                    )
                )
    for outcome in outcomes:
        print(outcome.render(), file=stream)
    for entry in skipped:
        print(f"self-test: skipped (no severable read): {entry}", file=stream)
    caught_count = sum(1 for outcome in outcomes if outcome.caught)
    total = len(outcomes)
    percent = 100.0 * caught_count / total if total else 0.0
    print(
        f"self-test: {caught_count}/{total} fingerprint-omission mutants "
        f"caught by RPR301 ({percent:.0f}%)",
        file=stream,
    )
    if total == 0:
        print("self-test: no fingerprint functions found", file=stream)
        return 1
    return 0 if caught_count == total else 1
