"""Microbenchmarks for the model hot path: ``python -m repro.bench.micro``.

Timed probes, each emitting one entry of a ``BENCH_micro.json``
artifact so the perf trajectory of the reproduction is recorded run over
run:

- ``fig6_evaluate`` — end-to-end ``evaluate`` / ``evaluate_target`` on a
  Fig. 6 scenario (the 10-SC federation in full mode, the 2-SC one with
  ``--quick``);
- ``obs_overhead`` — prices the :mod:`repro.obs` hooks: the cost of one
  disabled hook call, the hook crossings a real solve performs, and the
  implied disabled-instrumentation overhead fraction (pinned below 2%
  by ``tests/obs/test_overhead.py``), plus the traced/untraced ratio of
  the medians of interleaved timings;
- ``sim_failures`` — end-to-end cost of the failure-injection welfare
  sweep (healthy + failed runs per scenario, one per failure class;
  every horizon covers every failure window).

The ``sim_failures`` probe is also extracted into a ``BENCH_sim.json``
artifact next to ``BENCH_micro.json``.

Every probe runs under a metrics capture, so each report entry carries
the counters the workload produced alongside its timings.

The committed ``benchmarks/results/BENCH_baseline.json`` is a
``--quick`` run, so ``--compare PATH`` against it (a *non-blocking*
delta: CI surfaces regressions without going red on a noisy runner)
compares like with like.  The vectorized assemblers' bit-identity with
the per-state loop is a test (``tests/perf/test_vectorized_assembly.py``),
not a probe.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.bench.scenarios import fig6_2sc_scenario, fig6_10sc_scenario
from repro.perf.approximate import ApproximateModel

SCHEMA_VERSION = 1


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_fig6(quick: bool) -> dict[str, Any]:
    """End-to-end evaluation cost of a Fig. 6 scenario."""
    if quick:
        scenario = fig6_2sc_scenario(target_share=5, target_rate=6.0)
        label = "fig6_2sc"
    else:
        scenario = fig6_10sc_scenario(target_share=5, target_rate=6.0)
        label = "fig6_10sc"
    model = ApproximateModel()
    target_seconds, _ = _timed(lambda: model.evaluate_target(scenario))
    evaluate_seconds, _ = _timed(lambda: model.evaluate(scenario))
    return {
        "scenario": label,
        "evaluate_target_seconds": target_seconds,
        "evaluate_seconds": evaluate_seconds,
        "level_cache": model.level_cache_stats(),
        "seconds": evaluate_seconds,
    }


#: Untraced and traced timings per side of the overhead probe, taken in
#: alternation so host-speed drift reaches both medians alike.
OVERHEAD_REPEATS = 5


def bench_obs_overhead(quick: bool) -> dict[str, Any]:
    """Price the observability hooks.

    Three measurements:

    - the per-call cost of a *disabled* hook, timed over a tight loop of
      span/inc/add_event calls under :func:`repro.obs.suspended`;
    - the hook crossings one real solve performs (spans started plus
      metric recordings, counted by an enabled run of the same solve);
    - the traced/untraced wall-clock ratio of that solve: the medians of
      :data:`OVERHEAD_REPEATS` untraced and as many traced runs, taken
      in alternation.

    The implied disabled overhead — crossings x per-hook cost relative
    to the untraced solve time — is the number the overhead guard test
    pins below 2%.  The traced runs record into their own captures; when
    the probe runs under a metrics capture (as :func:`run_micro` runs
    it), their counters are folded into that capture's registry.
    """
    calls = 50_000 if quick else 200_000
    with obs.suspended():
        start = time.perf_counter()
        for _ in range(calls):
            with obs.span("bench.noop"):
                pass
            obs.inc("bench.counter")
            obs.add_event("bench.event", 0.5)
        disabled_seconds = time.perf_counter() - start
    per_hook_seconds = disabled_seconds / (3 * calls)

    scenario = fig6_2sc_scenario(target_share=5, target_rate=6.0)

    def solve() -> Any:
        # A fresh model per run: no level cache carries over, so the
        # plain and instrumented runs do identical work.
        return ApproximateModel().evaluate_target(scenario)

    outer = obs.current_registry() if obs.metrics_active() else None
    plain: list[float] = []
    instrumented: list[float] = []
    for _ in range(OVERHEAD_REPEATS):
        with obs.suspended():
            plain.append(_timed(solve)[0])
        with obs.capture(tracing=True, metrics=True) as cap:
            instrumented.append(_timed(solve)[0])
        crossings = cap.tracer.span_count + cap.registry.recordings()
        if outer is not None:
            outer.merge_snapshot(cap.snapshot())
    plain_seconds = statistics.median(plain)
    instrumented_seconds = statistics.median(instrumented)
    disabled_fraction = (
        crossings * per_hook_seconds / plain_seconds if plain_seconds > 0 else 0.0
    )
    return {
        "scenario": "fig6_2sc",
        "hook_calls": 3 * calls,
        "per_hook_seconds": per_hook_seconds,
        "solve_crossings": crossings,
        "repeats": OVERHEAD_REPEATS,
        "plain_seconds": plain_seconds,
        "instrumented_seconds": instrumented_seconds,
        "instrumented_ratio": (
            instrumented_seconds / plain_seconds if plain_seconds > 0 else 1.0
        ),
        "disabled_overhead_fraction": disabled_fraction,
        "seconds": disabled_seconds,
    }


def bench_sim_failures(quick: bool) -> dict[str, Any]:
    """Price the failure-injection layer end to end.

    Times :func:`repro.sim.failures.failure_impact` — two federation
    runs (healthy + failed) plus the Eq. (1)-(3) welfare chain — on one
    library scenario per failure class, and reports the injected
    overhead on a healthy run (a failure-free simulation constructed
    with the failure machinery in place costs the same bytes and draws
    as one without, so the overhead is pure bookkeeping).  The quick horizon still covers every window of
    the three scenarios (the last closes at 952.7 s);
    :func:`failure_impact` refuses a window that opens at or after the
    horizon.
    """
    from repro.scenarios.library import resolve
    from repro.sim.failures import failure_impact

    horizon = 1_000.0 if quick else 1_500.0
    names = ("failure-000", "failure-001", "failure-002")
    reports = {}
    total_seconds = 0.0
    for name in names:
        spec = resolve(name)
        seconds, impact = _timed(
            lambda spec=spec: failure_impact(spec, horizon=horizon)
        )
        total_seconds += seconds
        reports[name] = {
            "kinds": impact["kinds"],
            "seconds": seconds,
            "welfare_healthy": impact["welfare_healthy"],
            "welfare_failed": impact["welfare_failed"],
        }
    return {
        "scenario": "failure_library_head",
        "horizon": horizon,
        "impacts": reports,
        "seconds": total_seconds,
    }


BENCHES: dict[str, Callable[[bool], dict[str, Any]]] = {
    "fig6_evaluate": bench_fig6,
    "obs_overhead": bench_obs_overhead,
    "sim_failures": bench_sim_failures,
}

#: Probes extracted into the committed ``BENCH_sim.json`` artifact.
_SIM_PROBES = ("sim_failures",)


def run_micro(quick: bool = False, only: "list[str] | None" = None) -> dict[str, Any]:
    """Run the selected microbenchmarks and return the report payload."""
    names = list(BENCHES) if not only else [n for n in BENCHES if n in only]
    results = {}
    for name in names:
        with obs.capture(tracing=False, metrics=True) as cap:
            results[name] = BENCHES[name](quick)
        results[name]["metrics"] = cap.snapshot().to_dict()
        print(f"{name}: {results[name]['seconds']:.3f} s", flush=True)
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "micro",
        "quick": quick,
        "python": platform.python_version(),
        "results": results,
    }


def compare(report: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Human-readable (non-blocking) deltas against a baseline report."""
    lines = []
    base_results = baseline.get("results", {})
    for name, entry in report.get("results", {}).items():
        base = base_results.get(name)
        if not isinstance(base, dict) or "seconds" not in base:
            lines.append(f"{name}: no baseline entry")
            continue
        now, then = float(entry["seconds"]), float(base["seconds"])
        if then <= 0:
            lines.append(f"{name}: baseline has non-positive time")
            continue
        ratio = now / then
        direction = "slower" if ratio > 1.0 else "faster"
        lines.append(
            f"{name}: {now:.3f}s vs baseline {then:.3f}s "
            f"({1 / ratio if ratio < 1 else ratio:.2f}x {direction})"
        )
    return lines


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Model microbenchmarks.")
    parser.add_argument(
        "--quick", action="store_true", help="small scenarios for a CI smoke run"
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(BENCHES),
        help="run only the named probe (repeatable)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="write the report to DIR/BENCH_micro.json",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="FILE",
        help="print a non-blocking delta against a previous report",
    )
    args = parser.parse_args(argv)
    report = run_micro(quick=args.quick, only=args.only)
    print(json.dumps(report, indent=2))
    if args.output is not None:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "BENCH_micro.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
        sim_results = {
            name: report["results"][name]
            for name in _SIM_PROBES
            if name in report["results"]
        }
        if sim_results:
            sim_report = {**report, "benchmark": "sim", "results": sim_results}
            sim_path = out_dir / "BENCH_sim.json"
            sim_path.write_text(json.dumps(sim_report, indent=2) + "\n")
            print(f"wrote {sim_path}")
    if args.compare is not None:
        try:
            baseline = json.loads(Path(args.compare).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"baseline unavailable ({exc}); skipping comparison")
            return 0
        print("-- delta vs baseline (informational, never fails the run) --")
        for line in compare(report, baseline):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
