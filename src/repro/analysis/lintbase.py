"""Shared plumbing of the domain lint framework.

:mod:`repro.analysis.lint` (the RPR1xx domain rules) and the RPR3xx
dataflow rules (:mod:`repro.analysis.dataflow`) build on the same
pieces: the rule descriptor, the violation record, the per-line
``# repro: noqa[CODE]`` suppression protocol and the attribute-chain
helper.  They live here so the rule modules can import them without
importing each other.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass

__all__ = [
    "LintRule",
    "Violation",
    "apply_noqa",
    "attribute_chain",
    "render_json",
    "suppressed_codes",
]


@dataclass(frozen=True)
class LintRule:
    """One domain lint rule.

    Attributes:
        code: stable error code (``RPRxxx``), used in output and noqa.
        name: short kebab-case rule name.
        summary: one-line description shown by ``--list-rules``.
    """

    code: str
    name: str
    summary: str


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """Format as ``path:line:col: CODE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def suppressed_codes(line: str) -> set[str] | None:
    """Codes suppressed by a ``# repro: noqa`` comment on ``line``.

    Returns ``None`` when nothing is suppressed, an empty set for a bare
    ``noqa`` (suppress everything), or the explicit code set.
    """
    match = _NOQA_PATTERN.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return set()
    return {code.strip().upper() for code in codes.split(",") if code.strip()}


def apply_noqa(violations: list[Violation], source: str) -> list[Violation]:
    """Drop violations suppressed by a noqa comment on their line."""
    lines = source.splitlines()
    kept: list[Violation] = []
    for violation in violations:
        line = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        suppressed = suppressed_codes(line)
        if suppressed is None:
            kept.append(violation)
        elif suppressed and violation.code not in suppressed:
            kept.append(violation)
    return kept


def render_json(violations: list[Violation]) -> str:
    """Machine-readable report shared by every lint CLI's ``--format json``."""
    payload = {
        "format": "repro.analysis.lint-report",
        "format_version": 1,
        "count": len(violations),
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "code": v.code,
                "message": v.message,
            }
            for v in violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def attribute_chain(node: ast.AST) -> list[str]:
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
