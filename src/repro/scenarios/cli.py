"""Command-line interface: ``python -m repro.scenarios <command>``.

Commands:

- ``list`` — enumerate the library (paper figures + generated corpus).
- ``validate NAME|FILE ...`` / ``validate --all`` — strict schema
  validation; ``--all`` also regenerates the library and checks its
  digest against the committed manifest.
- ``show NAME|FILE`` — print a scenario's JSON.
- ``run NAME|FILE`` — drive one scenario (market solve or simulation),
  with the shared ``--trace`` / ``--metrics`` / ``--profile`` surface.
- ``generate`` — write the library (and manifest) to a directory;
  ``--update-manifest`` refreshes the committed manifest.
- ``sweep`` — fan a scenario subset across executor backends and assert
  bitwise-identical results.

Every command is deterministic: the library is a pure function of
``--seed`` (default: the committed library's seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.__main__ import add_obs_arguments, run_with_obs
from repro.analysis.sanitize import InvariantViolation, sanitize_enable
from repro.scenarios import library, runner, sweep
from repro.scenarios.generator import DEFAULT_SEED, library_manifest
from repro.scenarios.schema import save_spec
from repro.sim.engine import STEP_MODES


def _cmd_list(args: argparse.Namespace) -> int:
    specs = library.full_library(args.seed)
    if args.family is not None:
        specs = tuple(s for s in specs if s.family == args.family)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "name": s.name,
                        "family": s.family,
                        "k": len(s.clouds),
                        "hash": s.content_hash(),
                        "description": s.description,
                    }
                    for s in specs
                ],
                indent=2,
            )
        )
        return 0
    for spec in specs:
        print(f"{spec.name:<18} {spec.family:<10} K={len(spec.clouds):<3} {spec.description}")
    print(f"\n{len(specs)} scenarios")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems: list[str] = []
    if args.all:
        try:
            specs = library.full_library(args.seed)
        except InvariantViolation as violation:
            print(f"INVALID: {violation}", file=sys.stderr)
            return 1
        print(f"validated {len(specs)} scenarios (seed {args.seed})")
        try:
            manifest = library.committed_manifest()
        except InvariantViolation as violation:
            problems.append(str(violation))
        else:
            problems.extend(library.check_manifest(specs, manifest))
            if not problems:
                print(f"manifest digest ok: {manifest['digest']}")
    else:
        if not args.scenarios:
            print("validate needs scenario names/files or --all", file=sys.stderr)
            return 2
        for name in args.scenarios:
            try:
                spec = library.resolve(name, seed=args.seed)
            except InvariantViolation as violation:
                problems.append(f"{name}: {violation}")
            else:
                print(f"{spec.name}: ok ({spec.content_hash()[:16]})")
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = library.resolve(args.scenario, seed=args.seed)
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = library.resolve(args.scenario, seed=args.seed)

    def execute() -> int:
        report = runner.run_spec(
            spec,
            mode=args.mode,
            workers=args.workers,
            backend=args.backend,
            cache_dir=args.cache_dir,
            step_mode=args.step_mode,
        )
        print(json.dumps(report, indent=2))
        return 0

    return run_with_obs(args, execute)


def _cmd_generate(args: argparse.Namespace) -> int:
    specs = library.full_library(args.seed)
    manifest = library_manifest(specs, seed=args.seed)
    if args.output is not None:
        directory = Path(args.output)
        directory.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            save_spec(spec, directory / f"{spec.name}.json")
        (directory / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {len(specs)} scenarios + manifest to {directory}")
    if args.update_manifest:
        library.write_manifest(seed=args.seed)
        print(f"updated {library.MANIFEST_PATH}")
    if args.check_manifest:
        problems = library.check_manifest(specs, library.committed_manifest())
        for problem in problems:
            print(f"MANIFEST DRIFT: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"manifest digest ok: {manifest['digest']}")
    if args.output is None and not args.update_manifest and not args.check_manifest:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    backends = tuple(args.backends.split(","))
    if args.ids:
        specs = [library.resolve(name, seed=args.seed) for name in args.ids.split(",")]
    else:
        pool = library.full_library(args.seed)
        if args.family is not None:
            pool = tuple(s for s in pool if s.family == args.family)
        specs = sweep.smoke_subset(pool, count=args.limit)
    rows = sweep.sweep_scenarios(
        specs, backends=backends, workers=args.workers, cache_dir=args.cache_dir
    )
    print(sweep.render(rows))
    if args.output is not None:
        path = sweep.write_report(rows, backends, args.workers, args.output)
        print(f"report: {path}")
    if not all(row.identical for row in rows):
        print("SWEEP FAILED: backends disagree bitwise", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro.scenarios", description=__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="library master seed (default: the committed library's)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime stochastic sanitizer (REPRO_SANITIZE=1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd_list = sub.add_parser("list", help="enumerate the scenario library")
    cmd_list.add_argument("--family", default=None, help="only this family")
    cmd_list.add_argument("--json", action="store_true", help="machine-readable output")
    cmd_list.set_defaults(func=_cmd_list)

    validate = sub.add_parser("validate", help="strict schema validation")
    validate.add_argument("scenarios", nargs="*", help="library names or JSON files")
    validate.add_argument(
        "--all",
        action="store_true",
        help="regenerate the library, validate every entry, check the manifest digest",
    )
    validate.set_defaults(func=_cmd_validate)

    show = sub.add_parser("show", help="print one scenario as JSON")
    show.add_argument("scenario", help="library name or JSON file")
    show.set_defaults(func=_cmd_show)

    run = sub.add_parser("run", help="drive one scenario end to end")
    run.add_argument("scenario", help="library name or JSON file")
    run.add_argument(
        "--mode", choices=["solve", "simulate"], default="solve",
        help="market loop (solve) or event-driven simulator (simulate)",
    )
    run.add_argument("--workers", type=int, default=None, help="override run-config workers")
    run.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="override run-config backend",
    )
    run.add_argument("--cache-dir", default=None, help="persistent model-solution cache")
    run.add_argument(
        "--step-mode",
        choices=STEP_MODES,
        default="event",
        help="simulator stepping mode for --mode simulate (both bit-identical)",
    )
    add_obs_arguments(run)
    run.set_defaults(func=_cmd_run)

    generate = sub.add_parser("generate", help="write the library and its manifest")
    generate.add_argument("--output", default=None, metavar="DIR", help="write scenario files here")
    generate.add_argument(
        "--update-manifest",
        action="store_true",
        help="rewrite the committed package manifest",
    )
    generate.add_argument(
        "--check-manifest",
        action="store_true",
        help="fail if the regenerated library drifts from the committed manifest",
    )
    generate.set_defaults(func=_cmd_generate)

    cmd_sweep = sub.add_parser(
        "sweep", help="fan scenarios across backends; assert bitwise identity"
    )
    cmd_sweep.add_argument("--ids", default=None, help="comma-separated scenario names")
    cmd_sweep.add_argument("--family", default=None, help="restrict the pool to a family")
    cmd_sweep.add_argument(
        "--limit", type=int, default=4, help="smoke-subset size when --ids is absent"
    )
    cmd_sweep.add_argument("--workers", type=int, default=2, help="parallel width per backend")
    cmd_sweep.add_argument(
        "--backends",
        default=",".join(sweep.DEFAULT_BACKENDS),
        help="comma-separated executor backends",
    )
    cmd_sweep.add_argument("--cache-dir", default=None, help="persistent model-solution cache")
    cmd_sweep.add_argument("--output", default=None, metavar="DIR", help="write sweep report here")
    cmd_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sanitize:
        sanitize_enable()
    result: int = args.func(args)
    return result


if __name__ == "__main__":
    sys.exit(main())
