"""K-scaling benchmark: ``python -m repro.bench.kscale``.

Measures how federation size K moves the two costs the market loop
actually pays, on the :func:`~repro.bench.scenarios.kscale_scenario`
family (chain length grows with K, per-level pools stay bounded):

Every section times two configurations of the approximate model and
asserts their results bit-identical before any timing is reported:
``memo`` (the default level-prefix LRU) and ``full_rebuild``
(``level_cache=False``, every level solved cold).

- ``evaluate`` — one cold full-federation ``evaluate`` (all K target
  rotations).  Rotation ``t`` reuses the first ``t`` levels the memo
  already holds, so the memo builds about ``K^2/2`` levels instead of
  ``K^2``.
- ``deviation_resolve`` — the per-move cost of a warm re-solve: after a
  base solve, 20 single-SC arrival-rate drifts (cycling over the last
  chain positions) are each re-solved for the target SC.  The
  ``full_rebuild`` configuration rebuilds all K levels per move; the
  memo rebuilds only the suffix at/after the drifted position.
  ``speedup_vs_full_rebuild`` is the acceptance number.
- ``sharing_sweep`` — 20 single-coordinate *sharing* neighbors scored
  through a :class:`~repro.market.evaluator.UtilityEvaluator`, the
  shape of a Tabu neighborhood.  Sharing moves change the federation
  total, which re-keys every level's pool, so only same-total trial
  pairs reuse prefixes — this section documents the honest (much
  smaller) win on that traffic.

The report is committed as ``benchmarks/results/BENCH_kscale.json`` so
the seconds-vs-K trajectory is recorded run over run (chart in
EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.bench.scenarios import kscale_scenario
from repro.core.small_cloud import FederationScenario
from repro.market.evaluator import UtilityEvaluator
from repro.perf.approximate import ApproximateModel
from repro.perf.params import PerformanceParams

SCHEMA_VERSION = 1

#: Federation sizes of the committed report (``--quick`` trims to two).
DEFAULT_KS = (10, 20, 50)

#: Trial count of the per-move sections (the issue's "20-trial Tabu").
MOVES = 20


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _params_digestable(params: list[PerformanceParams]) -> list[tuple[str, ...]]:
    """Bitwise rendering of an evaluate result (``float.hex`` per field)."""
    return [
        (
            float(p.lent_mean).hex(),
            float(p.borrowed_mean).hex(),
            float(p.forward_rate).hex(),
            float(p.utilization).hex(),
        )
        for p in params
    ]


def _configs() -> dict[str, ApproximateModel]:
    """Fresh models of the two timed configurations, reference first."""
    return {
        "full_rebuild": ApproximateModel(level_cache=False),
        "memo": ApproximateModel(),
    }


def _speedup(entry: dict[str, Any], unit: str) -> None:
    """Record the memo's ``speedup_vs_full_rebuild`` on ``unit`` time."""
    memo = entry["memo"][unit]
    entry["memo"]["speedup_vs_full_rebuild"] = (
        entry["full_rebuild"][unit] / memo if memo > 0 else float("inf")
    )


def bench_evaluate(k: int) -> dict[str, Any]:
    """Cold full-federation evaluate; bit-identity asserted first."""
    scenario = kscale_scenario(k)
    entry: dict[str, Any] = {"k": k}
    reference: list[tuple[str, ...]] | None = None
    for name, model in _configs().items():
        seconds, params = _timed(lambda m=model: m.evaluate(scenario))
        rendered = _params_digestable(params)
        if reference is None:
            reference = rendered
        elif rendered != reference:
            raise AssertionError(f"{name} evaluate diverged at K={k}")
        entry[name] = {"seconds": seconds}
    _speedup(entry, "seconds")
    entry["bit_identical"] = True
    return entry


def _drifted(scenario: FederationScenario, position: int, step: int) -> FederationScenario:
    """The scenario with SC ``position``'s arrival rate drifted by step."""
    clouds = list(scenario.clouds)
    cloud = clouds[position]
    clouds[position] = replace(cloud, arrival_rate=cloud.arrival_rate + 0.001 * step)
    return FederationScenario(tuple(clouds))


def bench_deviation_resolve(k: int) -> dict[str, Any]:
    """Per-move cost of single-SC drift re-solves, warm vs full rebuild.

    Move ``j`` drifts SC ``k - 1 - (j % 3) - 1``'s arrival rate (a fresh
    value each move, cycling over the last chain positions before the
    target) and re-solves the target SC.  Both configurations answer
    bit-identically; only the rebuilt-level count differs.
    """
    base = kscale_scenario(k)
    moves = [
        _drifted(base, k - 2 - (j % 3), j + 1) for j in range(MOVES)
    ]
    entry: dict[str, Any] = {"k": k, "moves": MOVES}
    reference: list[tuple[str, ...]] | None = None
    for name, model in _configs().items():
        model.evaluate_target(base)  # warm the level cache
        seconds, results = _timed(
            lambda m=model: [m.evaluate_target(s) for s in moves]
        )
        rendered = _params_digestable(results)
        if reference is None:
            reference = rendered
        elif rendered != reference:
            raise AssertionError(f"{name} deviation re-solve diverged at K={k}")
        entry[name] = {
            "seconds": seconds,
            "per_move_seconds": seconds / MOVES,
            "level_cache": model.level_cache_stats(),
        }
    _speedup(entry, "per_move_seconds")
    entry["bit_identical"] = True
    return entry


def _sharing_neighbors(base: tuple[int, ...], sharers: int, vms: int) -> list[tuple[int, ...]]:
    """MOVES single-coordinate sharing neighbors of ``base`` (Tabu shape)."""
    vectors: list[tuple[int, ...]] = []
    offsets = (1, -1, 2, -2, 3, -3)
    for offset in offsets:
        for position in range(sharers):
            if len(vectors) >= MOVES:
                return vectors
            trial = list(base)
            trial[position] = max(0, min(vms, trial[position] + offset))
            if tuple(trial) != base:
                vectors.append(tuple(trial))
    distinct = len(vectors)  # tiny strategy spaces: recycle the ring
    while vectors and len(vectors) < MOVES:
        vectors.append(vectors[len(vectors) % distinct])
    return vectors


def bench_sharing_sweep(k: int) -> dict[str, Any]:
    """Score a Tabu-shaped sharing neighborhood through the evaluator.

    Sharing moves change ``sum(S)``, so every level's pool is re-keyed
    and prefix reuse is limited to same-total trial pairs — the honest
    number for this traffic, reported without criterion.
    """
    sharers, vms = 4, 3
    scenario = kscale_scenario(k, sharers=sharers, vms=vms)
    base = tuple(c.shared_vms for c in scenario)
    trials = _sharing_neighbors(base, sharers, vms)
    entry: dict[str, Any] = {"k": k, "trials": len(trials)}
    reference: list[str] | None = None
    for name, model in _configs().items():
        evaluator = UtilityEvaluator(scenario, model, gamma=0.5)
        seconds, values = _timed(
            lambda e=evaluator: [
                e.utility(trial, j % sharers) for j, trial in enumerate(trials)
            ]
        )
        rendered = [float(v).hex() for v in values]
        if reference is None:
            reference = rendered
        elif rendered != reference:
            raise AssertionError(f"{name} sharing sweep diverged at K={k}")
        entry[name] = {
            "seconds": seconds,
            "per_trial_seconds": seconds / len(trials),
        }
    _speedup(entry, "per_trial_seconds")
    entry["bit_identical"] = True
    return entry


def run_kscale(ks: tuple[int, ...] = DEFAULT_KS, quick: bool = False) -> dict[str, Any]:
    """Run the sweep; per-K sections keyed ``"k=<K>"`` in the report."""
    if quick:
        ks = tuple(k for k in ks if k <= 20) or (10,)
    results: dict[str, Any] = {}
    for k in ks:
        with obs.capture(tracing=False, metrics=True) as cap:
            section = {
                "evaluate": bench_evaluate(k),
                "deviation_resolve": bench_deviation_resolve(k),
            }
            if not quick:
                section["sharing_sweep"] = bench_sharing_sweep(k)
        section["counters"] = {
            name: count
            for name, count in cap.snapshot().counter_view().items()
            if name.startswith("perf.level_cache")
        }
        results[f"k={k}"] = section
        print(
            f"k={k}: evaluate memo {section['evaluate']['memo']['seconds']:.2f}s"
            f" / full rebuild {section['evaluate']['full_rebuild']['seconds']:.2f}s,"
            " deviation re-solve speedup "
            f"{section['deviation_resolve']['memo']['speedup_vs_full_rebuild']:.1f}x",
            flush=True,
        )
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "kscale",
        "quick": quick,
        "ks": list(ks),
        "python": platform.python_version(),
        "results": results,
    }


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="K-scaling benchmark.")
    parser.add_argument(
        "--quick", action="store_true", help="trim to K<=20 and skip the sharing sweep"
    )
    parser.add_argument(
        "--ks",
        default=None,
        help="comma-separated federation sizes (default: 10,20,50)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="write the report to DIR/BENCH_kscale.json",
    )
    args = parser.parse_args(argv)
    ks = (
        tuple(int(part) for part in args.ks.split(","))
        if args.ks
        else DEFAULT_KS
    )
    report = run_kscale(ks=ks, quick=args.quick)
    print(json.dumps(report, indent=2))
    if args.output is not None:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "BENCH_kscale.json"
        # Bench reports record the interpreter they ran on — provenance,
        # not a cache key.
        path.write_text(json.dumps(report, indent=2) + "\n")  # repro: noqa[RPR303] - provenance metadata, not a key
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
