"""The one command line over every static rule family.

``python -m repro.analysis check`` runs both families in one pass:

- RPR1xx/RPR2xx — domain + concurrency lint (:mod:`repro.analysis.lint`),
- RPR3xx — interprocedural fingerprint/determinism dataflow
  (:mod:`repro.analysis.dataflow`).

``--select`` accepts codes from any family and routes each code to the
checker that owns it; a family with no selected codes is skipped
entirely (the RPR3xx pass builds whole-project summaries, so skipping
it matters).  ``--format json`` emits the shared
``repro.analysis.lint-report`` payload with violations from every
family merged and sorted; ``--list-rules`` prints one rule table.
``--self-test`` measures RPR301 recall instead of linting: it seeds one
fingerprint-omission mutant per flowing cache-key input under the given
paths and demands every one is caught.

Exit codes: 0 clean, 1 violations or a missed mutant, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import dataflow, lint
from repro.analysis.lintbase import LintRule, Violation, render_json

__all__ = ["main"]

#: family name -> (rule table, checker).  Order is report order.
_FAMILIES: tuple[
    tuple[str, tuple[LintRule, ...], Callable[..., list[Violation]]], ...
] = (
    ("lint", lint.LINT_RULES, lint.lint_paths),
    ("dataflow", dataflow.DATAFLOW_RULES, dataflow.analyze_paths),
)


def _split_select(
    raw: str | None,
) -> dict[str, list[str] | None]:
    """Route a shared ``--select`` to per-family code lists.

    Returns ``{family: codes}`` where ``None`` means "all rules" (no
    ``--select`` given) and a missing key means "skip this family"
    (codes were selected, none of them belong to it).  Raises
    :class:`ValueError` on unknown codes.
    """
    if raw is None:
        return {name: None for name, _rules, _run in _FAMILIES}
    owner = {rule.code: name for name, rules, _run in _FAMILIES for rule in rules}
    codes = [code.strip().upper() for code in raw.split(",") if code.strip()]
    unknown = [code for code in codes if code not in owner]
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(owner))})"
        )
    routed: dict[str, list[str] | None] = {}
    for code in codes:
        bucket = routed.setdefault(owner[code], [])
        assert bucket is not None  # buckets are always lists here
        bucket.append(code)
    return routed


def check(paths: Sequence[Path], select: str | None = None) -> list[Violation]:
    """Run every (selected) rule family over ``paths``; merged findings."""
    routed = _split_select(select)
    violations: list[Violation] = []
    for name, _rules, run in _FAMILIES:
        if name in routed:
            violations.extend(run(paths, select=routed[name]))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="The repro static checker: domain/concurrency lint "
        "(RPR1xx/2xx) and fingerprint dataflow (RPR3xx).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    checker = sub.add_parser(
        "check",
        help="run all rule families over the given paths",
        description="Run RPR1xx/2xx/3xx in one pass; --select routes "
        "codes to the owning family and skips families with none selected.",
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
        help="comma-separated rule codes from any family (default: all)",
    )
    checker.add_argument(
        "--list-rules",
        action="store_true",
        help="print the combined rule table and exit",
    )
    checker.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="violation output format (default: text)",
    )
    checker.add_argument(
        "--self-test",
        action="store_true",
        help="seed fingerprint-omission mutants and verify RPR301 recall",
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for _name, rules, _run in _FAMILIES:
            for rule in rules:
                print(f"{rule.code}  {rule.name:32s} {rule.summary}")
        return 0
    paths = options.paths or [Path("src")]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    if options.self_test:
        return dataflow.run_self_test(paths)
    try:
        violations = check(paths, select=options.select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if options.format == "json":
        print(render_json(violations))
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
