"""The static checker's command line: the RPR1xx domain lint.

``python -m repro.analysis check`` runs :mod:`repro.analysis.lint` over
the given paths.  ``--select`` keeps the listed rule codes,
``--format json`` emits the ``repro.analysis.lint-report`` payload and
``--list-rules`` prints the rule table.

Exit codes: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import lint

__all__ = ["main"]


def _parse_select(raw: str | None) -> list[str] | None:
    """The ``--select`` codes (``None``: every rule); raises
    :class:`ValueError` on an unknown code."""
    if raw is None:
        return None
    known = [rule.code for rule in lint.LINT_RULES]
    codes = [code.strip().upper() for code in raw.split(",") if code.strip()]
    unknown = [code for code in codes if code not in known]
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(unknown)} (known: {', '.join(known)})"
        )
    return codes


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="The repro static checker: domain lint (RPR1xx).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    checker = sub.add_parser(
        "check",
        help="run the lint rules over the given paths",
        description="Run the RPR1xx domain lint.",
    )
    checker.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src")],
        help="files or directories to check (default: src)",
    )
    checker.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes (default: all)",
    )
    checker.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    checker.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="violation output format (default: text)",
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for rule in lint.LINT_RULES:
            print(f"{rule.code}  {rule.name:32s} {rule.summary}")
        return 0
    paths = options.paths or [Path("src")]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        select = _parse_select(options.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    violations = lint.lint_paths(paths, select=select)
    if options.format == "json":
        print(lint.render_json(violations))
        return 1 if violations else 0
    for violation in violations:
        print(violation.render())
    if violations:
        count = len(violations)
        print(f"found {count} violation{'s' if count != 1 else ''}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
