"""Cross-backend differential checker for bitwise determinism.

The runtime promises that parallelism and caching are *performance*
knobs, never *semantics* knobs: a game run under any executor backend,
with or without level-prefix memoization, must produce bit-identical
results.  This module checks that promise end to end.  One scenario is
played through Algorithm 1 under a matrix of configurations::

    backends:  serial | thread | process
    variants:  base (level memo on) | nomemo

and every configuration's observables — equilibrium profile, round
history, per-SC utilities, equilibrium performance parameters, welfare —
are serialized with ``float.hex`` (no tolerance, no rounding) and hashed.
All six digests must equal the serial/base reference digest exactly.

K-sweep scenarios (``ksweep10``, ``ksweep20``) run the same matrix on
federations sized for K-scaling rather than load realism — a handful of
active sharers with unit shares keeps every level's pool (and therefore
its state space) small while the chain length grows with K, so the
level-prefix memo's suffix reuse is exercised on long chains.

Two further sections extend the contract to observability:

- a seventh *traced* cell replays the serial/base configuration with
  :mod:`repro.obs` tracing and metrics fully enabled — its digest must
  equal the reference, proving instrumentation observes without
  participating;
- a *metrics-merge* section runs a seed-fixed replication workload on
  every backend with metrics enabled and requires the merged counter
  totals (the integer-exact ``counter_view``) to be identical across
  serial, thread, and process executors.

Small scenarios are deliberate: the direct steady-state solver used for
small chains is a pure function of the chain, which is what makes
bitwise identity an achievable contract rather than an aspiration.

Run from the command line::

    python -m repro.analysis.differential --scenario quick
    python -m repro.analysis.differential --scenario fig6 --output report.json

Exit status is 0 when every configuration matches the reference, 1
otherwise; ``--output`` writes the machine-readable report consumed by
CI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from repro import obs
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.game.best_response import BestResponder
from repro.game.repeated_game import RepeatedGame
from repro.market.evaluator import UtilityEvaluator
from repro.perf.approximate import ApproximateModel
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

__all__ = [
    "DifferentialScenario",
    "SCENARIOS",
    "main",
    "run_differential",
]


@dataclass(frozen=True)
class DifferentialScenario:
    """One named differential scenario.

    Attributes:
        name: registry key (the ``--scenario`` argument).
        scenario: the federation (prices included).
        strategy_step: stride of each SC's candidate sharing values.
        gamma: utilization exponent of Eq. (2).
        alpha: fairness level for the welfare observable.
        description: one line for reports.
        spaces: optional explicit per-SC strategy spaces overriding the
            ``strategy_step`` grid; the K-sweep scenarios pin all but a
            few leading SCs to a single value so equilibrium search cost
            stays bounded while the chain length grows with K.
    """

    name: str
    scenario: FederationScenario
    strategy_step: int
    gamma: float
    alpha: float
    description: str
    spaces: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.spaces is not None and len(self.spaces) != len(self.scenario):
            raise ValueError(
                "spaces must list one strategy space per SC "
                f"({len(self.spaces)} spaces for {len(self.scenario)} SCs)"
            )

    def strategy_spaces(self) -> list[list[int]]:
        if self.spaces is not None:
            return [list(space) for space in self.spaces]
        return [
            list(range(0, cloud.vms + 1, self.strategy_step))
            for cloud in self.scenario
        ]


def _quick_scenario() -> DifferentialScenario:
    return DifferentialScenario(
        name="quick",
        scenario=FederationScenario(
            clouds=(
                SmallCloud(
                    name="sc1",
                    vms=4,
                    arrival_rate=2.4,
                    federation_price=0.4,
                ),
                SmallCloud(
                    name="sc2",
                    vms=5,
                    arrival_rate=3.5,
                    federation_price=0.4,
                ),
            )
        ),
        strategy_step=2,
        gamma=0.5,
        alpha=1.0,
        description="2 SCs, coarse strategy grid - the CI configuration",
    )


def _fig6_scenario() -> DifferentialScenario:
    return DifferentialScenario(
        name="fig6",
        scenario=FederationScenario(
            clouds=(
                SmallCloud(
                    name="sc1",
                    vms=5,
                    arrival_rate=3.0,
                    federation_price=0.4,
                ),
                SmallCloud(
                    name="sc2",
                    vms=5,
                    arrival_rate=3.5,
                    federation_price=0.4,
                ),
                SmallCloud(
                    name="sc3",
                    vms=5,
                    arrival_rate=4.0,
                    federation_price=0.4,
                ),
            )
        ),
        strategy_step=2,
        gamma=0.5,
        alpha=1.0,
        description="3 symmetric-size SCs, fig6-shaped heterogeneous load",
    )


#: Leading SCs whose sharing value is searched in the K-sweep scenarios;
#: the rest are pinned, so equilibrium cost grows with K only through
#: chain length, never through the strategy product.
_KSWEEP_ACTIVE = 3


def _ksweep_scenario(k: int) -> DifferentialScenario:
    """A K-SC federation sized for chain-length scaling, tiny pools.

    Unit shares on the first ``_KSWEEP_ACTIVE`` SCs bound every level's
    pool ``B_i`` by 3, so per-level state spaces stay constant while the
    hierarchy deepens with K — the regime where the level-prefix memo
    rebuilds only chain suffixes.
    """
    clouds = []
    spaces = []
    for i in range(k):
        active = i < _KSWEEP_ACTIVE
        clouds.append(
            SmallCloud(
                name=f"sc{i + 1:02d}",
                vms=3,
                arrival_rate=1.5 + 0.01 * (i % 7),
                sla_bound=3.0,
                federation_price=0.4,
                shared_vms=1 if active else 0,
            )
        )
        spaces.append((0, 1) if active else (0,))
    return DifferentialScenario(
        name=f"ksweep{k}",
        scenario=FederationScenario(clouds=tuple(clouds)),
        strategy_step=1,
        gamma=0.5,
        alpha=1.0,
        description=(
            f"{k} SCs, {_KSWEEP_ACTIVE} active unit sharers - "
            "backend x variant K-scaling matrix"
        ),
        spaces=tuple(spaces),
    )


#: Scenario registry keyed by ``--scenario`` name.
SCENARIOS: dict[str, DifferentialScenario] = {
    spec.name: spec
    for spec in (
        _quick_scenario(),
        _fig6_scenario(),
        _ksweep_scenario(10),
        _ksweep_scenario(20),
    )
}

#: The configuration matrix: (backend, variant) per cell.
_BACKENDS = ("serial", "thread", "process")
_VARIANTS = ("base", "nomemo")

#: The cell every other cell must match bit-for-bit.
_REFERENCE = ("serial", "base")


def _make_executor(backend: str) -> Executor:
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(workers=2)
    return ProcessExecutor(workers=2)


def _run_cell(spec: DifferentialScenario, backend: str, variant: str) -> dict:
    """Play the scenario under one configuration; return its observables.

    Every float is rendered with ``float.hex`` so the comparison is
    bitwise — two results differing in the last ulp get different
    digests.
    """
    executor = _make_executor(backend)
    model = ApproximateModel(executor=executor, level_cache=variant != "nomemo")
    evaluator = UtilityEvaluator(spec.scenario, model, gamma=spec.gamma)
    responder = BestResponder(
        evaluator,
        strategy_spaces=spec.strategy_spaces(),
        method="exhaustive",
        executor=executor,
    )
    result = RepeatedGame(responder, executor=executor).run()
    params = evaluator.params(result.equilibrium)
    observables = {
        "equilibrium": list(result.equilibrium),
        "converged": result.converged,
        "iterations": result.iterations,
        "history": [list(profile) for profile in result.history],
        "utilities": [float(u).hex() for u in result.utilities],
        "welfare": float(
            evaluator.welfare(result.equilibrium, alpha=spec.alpha)
        ).hex(),
        "params": [
            {
                "lent_mean": float(entry.lent_mean).hex(),
                "borrowed_mean": float(entry.borrowed_mean).hex(),
                "forward_rate": float(entry.forward_rate).hex(),
                "utilization": float(entry.utilization).hex(),
            }
            for entry in params
        ],
    }
    digest = hashlib.sha256(
        json.dumps(observables, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "backend": backend,
        "variant": variant,
        "digest": digest,
        "observables": observables,
        "model_evaluations": evaluator.total_evaluations,
    }


def _run_traced_cell(spec: DifferentialScenario) -> dict:
    """The serial/base cell again, with tracing and metrics fully on.

    The digest must equal the untraced reference's — the observability
    layer's "observes, never participates" contract, checked bitwise.
    """
    with obs.capture(tracing=True, metrics=True) as cap:
        cell = _run_cell(spec, _REFERENCE[0], _REFERENCE[1])
    cell["variant"] = "traced"
    cell["span_count"] = cap.tracer.span_count
    cell["counter_view"] = dict(cap.snapshot().counter_view())
    return cell


def _metrics_merge_counts(backend: str) -> dict[str, int]:
    """Merged counter totals of a fixed replication workload on ``backend``.

    Each replication's seed is fixed up front, so every backend performs
    identical work; :func:`repro.obs.map_with_metrics` merges the
    per-task snapshots in input order.  Only the integer ``counter_view``
    is returned — histogram sums hold wall-clock floats that legitimately
    differ between runs, while counts cannot.
    """
    from repro.sim.replications import replicate

    with obs.capture(tracing=False, metrics=True) as cap:
        replicate(
            SCENARIOS["quick"].scenario,
            replications=3,
            horizon=400.0,
            warmup=50.0,
            executor=_make_executor(backend),
        )
    return dict(cap.snapshot().counter_view())


def check_metrics_merge() -> dict:
    """Compare merged counter totals across executor backends."""
    counts = {backend: _metrics_merge_counts(backend) for backend in _BACKENDS}
    reference = counts[_BACKENDS[0]]
    mismatched = [
        backend for backend in _BACKENDS[1:] if counts[backend] != reference
    ]
    return {
        "counters": counts,
        "mismatched_backends": mismatched,
        "ok": not mismatched,
    }


def run_differential(spec: DifferentialScenario) -> dict:
    """Run the full backend x variant matrix; returns the JSON-able report.

    The serial/base cell is the reference; every other cell — the traced
    replay included — must match its digest exactly, and the
    metrics-merge section must agree across backends.
    """
    cells = [
        _run_cell(spec, backend, variant)
        for backend in _BACKENDS
        for variant in _VARIANTS
    ]
    by_key = {(cell["backend"], cell["variant"]): cell for cell in cells}
    reference = by_key[_REFERENCE]
    cells.append(_run_traced_cell(spec))
    metrics_merge = check_metrics_merge()
    mismatches = [
        {
            "backend": cell["backend"],
            "variant": cell["variant"],
            "digest": cell["digest"],
        }
        for cell in cells
        if cell["digest"] != reference["digest"]
    ]
    return {
        "checker": "repro.analysis.differential",
        "format_version": 1,
        "scenario": spec.name,
        "description": spec.description,
        "reference": {
            "backend": reference["backend"],
            "variant": reference["variant"],
            "digest": reference["digest"],
        },
        "cells": [
            {
                "backend": cell["backend"],
                "variant": cell["variant"],
                "digest": cell["digest"],
                "model_evaluations": cell["model_evaluations"],
                "match": cell["digest"] == reference["digest"],
            }
            for cell in cells
        ],
        "observables": reference["observables"],
        "metrics_merge": metrics_merge,
        "mismatches": mismatches,
        "ok": not mismatches and metrics_merge["ok"],
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.differential",
        description="cross-backend bitwise-determinism checker",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="quick",
        help="scenario to play under every configuration (default: quick)",
    )
    parser.add_argument(
        "--output", type=str, default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)

    report = run_differential(SCENARIOS[args.scenario])
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)

    for cell in report["cells"]:
        status = "ok" if cell["match"] else "FAIL"
        print(
            f"{status:4s} {cell['backend']:8s} {cell['variant']:7s} "
            f"digest={cell['digest'][:16]} evals={cell['model_evaluations']}"
        )
    merge = report["metrics_merge"]
    merge_status = "ok" if merge["ok"] else "FAIL"
    print(
        f"{merge_status:4s} metrics-merge: counter totals "
        + (
            "identical across backends"
            if merge["ok"]
            else f"diverge on {', '.join(merge['mismatched_backends'])}"
        )
    )
    if report["ok"]:
        print(
            f"all {len(report['cells'])} configurations bit-identical "
            f"(scenario {report['scenario']!r}, "
            f"equilibrium {tuple(report['observables']['equilibrium'])})"
        )
    else:
        print(
            f"{len(report['mismatches'])} of {len(report['cells'])} "
            "configurations diverged from the serial/base reference"
        )
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
