"""Microbenchmarks for the model hot path: ``python -m repro.bench.micro``.

Timed probes, each emitting one entry of a ``BENCH_micro.json``
artifact so the perf trajectory of the reproduction is recorded run over
run:

- ``fig6_evaluate`` — end-to-end ``evaluate`` / ``evaluate_target`` on a
  Fig. 6 scenario (the 10-SC federation in full mode, the 2-SC one with
  ``--quick``);
- ``tabu_sweep`` — a Tabu-style neighborhood sweep: 20 single-coordinate
  neighbor sharing vectors of the Fig. 7 federation (6 with ``--quick``),
  each scored for one SC through a
  :class:`~repro.market.evaluator.UtilityEvaluator` the way the best
  responder scores trial profiles;
- ``obs_overhead`` — prices the :mod:`repro.obs` hooks: the cost of one
  disabled hook call, the hook crossings a real solve performs, and the
  implied disabled-instrumentation overhead fraction (pinned below 2%
  by ``tests/obs/test_overhead.py``), plus the traced/untraced ratio;
- ``sim_fifo`` — prices the simulator's FIFO queue discipline: an
  end-to-end deep-backlog federation simulation, plus a steady-state
  FIFO replay at the backlog depth comparing ``list.pop(0)`` (an O(n)
  FIFO the simulator's wait queue once used) against the
  ``deque.popleft()`` the simulator now uses.  At equilibrium depths
  the end-to-end delta is within run-to-run noise — the replay is what
  pins the asymptotic mechanism.
- ``sim_throughput`` — engine events/sec under ``event`` vs ``batched``
  stepping (scalar and vectorized channel drains), plus the equivalence
  gate: a federation simulated under both step modes must produce
  identical metrics or the probe raises;
- ``sim_failures`` — end-to-end cost of the failure-injection welfare
  sweep (healthy + failed runs per scenario, one per failure class;
  every horizon covers every failure window).

The sim probes are additionally extracted into a ``BENCH_sim.json``
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
import sys
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.bench.scenarios import (
    fig6_2sc_scenario,
    fig6_10sc_scenario,
    fig7_scenario,
)
from repro.market.evaluator import UtilityEvaluator
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


def _neighbor_vectors(base: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """``count`` distinct single-coordinate neighbors of ``base`` (plus
    ``base`` itself), the shape of a Tabu neighborhood scan."""
    vectors: list[tuple[int, ...]] = [base]
    offsets = [1, -1, 2, -2, 3, -3, 4, -4]
    for offset in offsets:
        for position in range(len(base)):
            if len(vectors) >= count:
                return vectors
            candidate = list(base)
            candidate[position] = max(0, min(10, candidate[position] + offset))
            vector = tuple(candidate)
            if vector not in vectors:
                vectors.append(vector)
    return vectors


def bench_tabu_sweep(quick: bool) -> dict[str, Any]:
    """Score a Tabu-style neighborhood of sharing vectors end to end.

    Mirrors the best-response objective: each trial vector is scored for
    a single SC via ``utility(vector, index)``, one target rotation of
    the hierarchical chain.
    """
    scenario = fig7_scenario("spread")
    model = ApproximateModel()
    evaluator = UtilityEvaluator(scenario, model, gamma=0.0)
    vectors = _neighbor_vectors((5, 5, 5), 6 if quick else 20)

    def sweep() -> list[float]:
        return [
            evaluator.utility(vector, j % len(scenario))
            for j, vector in enumerate(vectors)
        ]

    seconds, values = _timed(sweep)
    return {
        "scenario": "fig7_spread_3sc",
        "evaluations": len(vectors),
        "per_evaluation_seconds": seconds / len(vectors),
        "utilities": values,
        "cache_info": evaluator.cache_info(),
        "seconds": seconds,
    }


def bench_obs_overhead(quick: bool) -> dict[str, Any]:
    """Price the observability hooks.

    Three measurements:

    - the per-call cost of a *disabled* hook, timed over a tight loop of
      span/inc/observe calls under :func:`repro.obs.suspended`;
    - the hook crossings one real solve performs (spans started plus
      metric recordings, counted by an enabled run of the same solve);
    - the traced/untraced wall-clock ratio of that solve.

    The implied disabled overhead — crossings x per-hook cost relative
    to the untraced solve time — is the number the overhead guard test
    pins below 2%.
    """
    calls = 50_000 if quick else 200_000
    with obs.suspended():
        start = time.perf_counter()
        for _ in range(calls):
            with obs.span("bench.noop"):
                pass
            obs.inc("bench.counter")
            obs.observe("bench.hist", 0.5)
        disabled_seconds = time.perf_counter() - start
    per_hook_seconds = disabled_seconds / (3 * calls)

    scenario = fig6_2sc_scenario(target_share=5, target_rate=6.0)

    def solve() -> Any:
        # A fresh model per run: no level cache carries over, so the
        # plain and instrumented runs do identical work.
        return ApproximateModel().evaluate_target(scenario)

    with obs.suspended():
        plain_seconds, _ = _timed(solve)
    with obs.capture(tracing=True, metrics=True) as cap:
        instrumented_seconds, _ = _timed(solve)
        crossings = cap.tracer.span_count + cap.registry.recordings()
    disabled_fraction = (
        crossings * per_hook_seconds / plain_seconds if plain_seconds > 0 else 0.0
    )
    return {
        "scenario": "fig6_2sc",
        "hook_calls": 3 * calls,
        "per_hook_seconds": per_hook_seconds,
        "solve_crossings": crossings,
        "plain_seconds": plain_seconds,
        "instrumented_seconds": instrumented_seconds,
        "instrumented_ratio": (
            instrumented_seconds / plain_seconds if plain_seconds > 0 else 1.0
        ),
        "disabled_overhead_fraction": disabled_fraction,
        "seconds": disabled_seconds,
    }


def bench_sim_fifo(quick: bool) -> dict[str, Any]:
    """Price the simulator's FIFO queue discipline.

    Two measurements:

    - an end-to-end deep-backlog federation simulation (every cloud
      overloaded and forwarding, so the wait queues stay populated);
    - a steady-state FIFO replay at a representative backlog depth:
      prefill to the depth, then alternate push/pop, timed once with a
      ``list`` using ``pop(0)`` (the O(n) FIFO
      ``_CloudState.queue_arrival_times`` used to be) and once with a
      ``deque`` using ``popleft()`` (what it is now).

    The sim-level numbers are honest — at the depths the Erlang
    forwarding bound sustains, pop cost is a small fraction of event
    handling, so the end-to-end delta sits within noise; the replay
    isolates the O(n)-vs-O(1) mechanism the triage fix removed.
    """
    from collections import deque

    from repro.core.small_cloud import FederationScenario, SmallCloud
    from repro.sim.federation import FederationSimulator

    scenario = FederationScenario(
        clouds=(
            SmallCloud(
                name="sc1",
                vms=2,
                arrival_rate=6.0,
                sla_bound=50.0,
                federation_price=0.4,
            ),
            SmallCloud(
                name="sc2",
                vms=2,
                arrival_rate=5.5,
                sla_bound=50.0,
                federation_price=0.4,
            ),
        )
    )
    horizon = 1000.0 if quick else 4000.0
    sim_seconds, result = _timed(
        lambda: FederationSimulator(scenario, seed=7).run(
            horizon=horizon, warmup=100.0
        )
    )
    total_forwarded = sum(m.forwarded for m in result)

    depth = 512 if quick else 2048
    ops = 20_000 if quick else 100_000

    def replay(queue: Any, pop: Callable[[], float]) -> float:
        for i in range(depth):
            queue.append(float(i))
        start = time.perf_counter()
        for i in range(ops):
            queue.append(float(i))
            pop()
        return time.perf_counter() - start

    as_list: list[float] = []
    list_seconds = replay(as_list, lambda: as_list.pop(0))
    as_deque: deque[float] = deque()
    deque_seconds = replay(as_deque, as_deque.popleft)
    return {
        "scenario": "deep_backlog_2sc",
        "horizon": horizon,
        "sim_seconds": sim_seconds,
        "jobs_forwarded": total_forwarded,
        "replay_depth": depth,
        "replay_ops": ops,
        "list_pop0_seconds": list_seconds,
        "deque_popleft_seconds": deque_seconds,
        "replay_speedup": (
            list_seconds / deque_seconds if deque_seconds > 0 else float("inf")
        ),
        "seconds": sim_seconds,
    }


def bench_sim_throughput(quick: bool) -> dict[str, Any]:
    """Engine events/sec: batched stepping vs the event-heap reference.

    Two measurements:

    - a synthetic drain: N Poisson-spaced events bulk-scheduled through
      ``schedule_block``, run once per mode.  In ``event`` mode the block
      falls back to one heap ``Event`` per entry (the pre-overhaul
      configuration); in ``batched`` mode the run loop drains the sorted
      channel directly — timed once with a per-event handler (the
      headline ``speedup``) and once with a vectorized handler receiving
      whole runs (``vectorized_speedup``).  Timings repeat and reduce
      through a :class:`~repro.sim.stats.WelfordAccumulator`.
    - the equivalence gate: a federation scenario simulated under both
      step modes; any difference in any per-SC metric raises, so every
      bench run re-proves the bit-identity the property suite pins.
    """
    from dataclasses import asdict

    from repro.core.small_cloud import FederationScenario, SmallCloud
    from repro.sim.engine import STEP_MODES, SimulationEngine
    from repro.sim.federation import FederationSimulator
    from repro.sim.stats import WelfordAccumulator

    n_events = 100_000 if quick else 500_000
    repeats = 3 if quick else 5
    rng = np.random.default_rng(11)
    offsets = np.cumsum(rng.exponential(1.0, n_events))
    horizon = float(offsets[-1]) + 1.0

    sink = [0]

    def scalar_handler(time_: float) -> None:
        sink[0] += 1

    def vector_handler(times: np.ndarray) -> None:
        sink[0] += len(times)

    def drain(mode: str, handler: Callable[..., Any], vectorized: bool) -> float:
        engine = SimulationEngine(step_mode=mode)
        engine.schedule_block(offsets, handler, vectorized=vectorized)
        start = time.perf_counter()
        engine.run_until(horizon)
        elapsed = time.perf_counter() - start
        if engine.events_executed != n_events:
            raise RuntimeError(
                f"{mode} drain executed {engine.events_executed} != {n_events}"
            )
        return elapsed

    event_acc = WelfordAccumulator()
    batched_acc = WelfordAccumulator()
    vector_acc = WelfordAccumulator()
    for _ in range(repeats):
        # One accumulator per repeat, merged: exercises the same
        # reduction path parallel repeats would use.
        for acc, mode, handler, vectorized in (
            (event_acc, "event", scalar_handler, False),
            (batched_acc, "batched", scalar_handler, False),
            (vector_acc, "batched", vector_handler, True),
        ):
            repeat_acc = WelfordAccumulator()
            repeat_acc.add(n_events / drain(mode, handler, vectorized))
            acc.merge(repeat_acc)

    scenario = FederationScenario(
        clouds=tuple(
            SmallCloud(
                name=f"sc{i + 1}",
                vms=4,
                arrival_rate=3.0 + 0.5 * i,
                sla_bound=0.5,
                shared_vms=2,
            )
            for i in range(4)
        )
    )
    fed_horizon = 500.0 if quick else 2_000.0

    def federation(mode: str) -> tuple[float, list[dict[str, Any]]]:
        simulator = FederationSimulator(scenario, seed=42, step_mode=mode)
        seconds, metrics = _timed(
            lambda: simulator.run(horizon=fed_horizon, warmup=fed_horizon * 0.05)
        )
        return seconds, [asdict(m) for m in metrics]

    fed_seconds: dict[str, float] = {}
    fed_metrics: dict[str, list[dict[str, Any]]] = {}
    for mode in STEP_MODES:
        fed_seconds[mode], fed_metrics[mode] = federation(mode)
    if fed_metrics["batched"] != fed_metrics["event"]:
        raise RuntimeError("step_mode='batched' diverged from the event reference path")

    event_eps = event_acc.mean()
    batched_eps = batched_acc.mean()
    vector_eps = vector_acc.mean()
    return {
        "scenario": f"poisson_drain_{n_events}",
        "events": n_events,
        "repeats": repeats,
        "event_events_per_second": event_eps,
        "batched_events_per_second": batched_eps,
        "vectorized_events_per_second": vector_eps,
        "events_per_second_std": {
            "event": event_acc.std(),
            "batched": batched_acc.std(),
            "vectorized": vector_acc.std(),
        },
        "speedup": batched_eps / event_eps if event_eps > 0 else float("inf"),
        "vectorized_speedup": (
            vector_eps / event_eps if event_eps > 0 else float("inf")
        ),
        "federation_seconds": fed_seconds,
        "federation_modes_identical": True,
        "seconds": n_events / event_eps if event_eps > 0 else 0.0,
    }


def bench_sim_failures(quick: bool) -> dict[str, Any]:
    """Price the failure-injection layer end to end.

    Times :func:`repro.sim.failures.failure_impact` — two federation
    runs (healthy + failed) plus the Eq. (1)-(3) welfare chain — on one
    library scenario per failure class, and reports the injected
    overhead on a healthy run (a failure-free simulation constructed
    with the failure machinery in place costs the same bytes and draws
    as one without, so the overhead is pure bookkeeping), on the
    batched engine.  The quick horizon still covers every window of
    the three scenarios (the last closes at 952.7 s);
    :func:`failure_impact` refuses a window that opens at or after the
    horizon.
    """
    from repro.scenarios.library import resolve
    from repro.sim.failures import failure_impact

    step_mode = "batched"
    horizon = 1_000.0 if quick else 1_500.0
    names = ("failure-000", "failure-001", "failure-002")
    reports = {}
    total_seconds = 0.0
    for name in names:
        spec = resolve(name)
        seconds, impact = _timed(
            lambda spec=spec: failure_impact(
                spec, step_mode=step_mode, horizon=horizon
            )
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
        "step_mode": step_mode,
        "horizon": horizon,
        "impacts": reports,
        "seconds": total_seconds,
    }


BENCHES: dict[str, Callable[[bool], dict[str, Any]]] = {
    "fig6_evaluate": bench_fig6,
    "tabu_sweep": bench_tabu_sweep,
    "obs_overhead": bench_obs_overhead,
    "sim_fifo": bench_sim_fifo,
    "sim_throughput": bench_sim_throughput,
    "sim_failures": bench_sim_failures,
}

#: Probes extracted into the committed ``BENCH_sim.json`` artifact.
_SIM_PROBES = ("sim_fifo", "sim_throughput", "sim_failures")


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
        # Bench reports deliberately record the interpreter/platform they
        # ran on — that is provenance, not a cache key.
        path.write_text(json.dumps(report, indent=2) + "\n")  # repro: noqa[RPR303] - provenance metadata, not a key
        print(f"wrote {path}")
        sim_results = {
            name: report["results"][name]
            for name in _SIM_PROBES
            if name in report["results"]
        }
        if sim_results:
            sim_report = {**report, "benchmark": "sim", "results": sim_results}
            sim_path = out_dir / "BENCH_sim.json"
            sim_path.write_text(json.dumps(sim_report, indent=2) + "\n")  # repro: noqa[RPR303] - provenance metadata, not a key
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
