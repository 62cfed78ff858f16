"""Failure injection for the federation simulator.

SC-Share's evaluation (and the paper's C++ simulator) assumes every SC
stays healthy for the whole horizon.  This module adds the failure
classes the dynamic-market robustness literature asks about — does
sharing still beat the public cloud when a partner can die? — as
*scheduled windows* on the simulated timeline:

- ``outage``: the SC disappears for the window.  In-flight work (its own
  and guests') completes, but its queue is flushed to the public cloud,
  arrivals during the window forward immediately, and the SC is excluded
  from the lender set and cannot lend freed VMs until recovery.
- ``limplock``: the SC's VMs stay alive but degraded — every service
  started on the SC during the window takes ``factor`` times longer (the
  limping-hardware failure mode of Do et al.'s limplock study).
- ``flash_crowd``: the SC's *arrival rate* is multiplied by ``factor``
  for the window (a demand surge, not a fault — included because it
  stresses exactly the borrowing machinery outages starve).

Windows are plain data (:class:`FailureWindow`), serialize into the
scenario schema (``ScenarioSpec.failures``), and are interpreted by
:class:`~repro.sim.federation.FederationSimulator` via scheduled
transition events at priority −1 (before same-time arrivals).

Run ``python -m repro.sim.failures`` for a sweep over the generated
failure-scenario library reporting equilibrium welfare and per-SC
utility shift under each failure class versus the no-sharing /
public-cloud baseline (whose welfare is zero by Eq. (2): no sharing
means no cost reduction).
"""

from __future__ import annotations

import argparse
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro._validation import check_finite, check_non_negative, check_non_negative_int
from repro.exceptions import ConfigurationError
from repro.sim.engine import STEP_MODES

if TYPE_CHECKING:
    from repro.scenarios.schema import ScenarioSpec

#: Recognized failure classes.
FAILURE_KINDS = ("outage", "limplock", "flash_crowd")

#: Version stamp of the sweep-report payload written by :func:`main`.
FAILURES_FORMAT_VERSION = 1

_WINDOW_KEYS = ("kind", "sc", "start", "end", "factor")


@dataclass(frozen=True)
class FailureWindow:
    """One scheduled failure window.

    Attributes:
        kind: one of :data:`FAILURE_KINDS`.
        sc: index of the affected SC.
        start: window start (simulated time, >= 0).
        end: window end (> start); the SC is healthy again at ``end``.
        factor: service-time multiplier (``limplock``) or arrival-rate
            multiplier (``flash_crowd``), >= 1.  Must be exactly 1 for
            ``outage`` windows (it carries no meaning there, and pinning
            it keeps the serialized form canonical).
    """

    kind: str
    sc: int
    start: float
    end: float
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ConfigurationError(
                f"unknown failure kind {self.kind!r}; expected one of {FAILURE_KINDS}"
            )
        check_non_negative_int(self.sc, "sc")
        check_non_negative(check_finite(self.start, "start"), "start")
        check_finite(self.end, "end")
        if self.end <= self.start:
            raise ConfigurationError(
                f"failure window must have end > start, got [{self.start}, {self.end}]"
            )
        check_finite(self.factor, "factor")
        if self.kind == "outage":
            if self.factor != 1.0:
                raise ConfigurationError(
                    f"outage windows take no factor (got {self.factor})"
                )
        elif self.factor < 1.0:
            raise ConfigurationError(
                f"{self.kind} factor must be >= 1, got {self.factor}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form (all five keys, fixed order)."""
        return {
            "kind": self.kind,
            "sc": self.sc,
            "start": self.start,
            "end": self.end,
            "factor": self.factor,
        }


def window_from_dict(payload: Mapping[str, Any]) -> FailureWindow:
    """Parse one window, rejecting unknown keys (schema discipline)."""
    unknown = set(payload) - set(_WINDOW_KEYS)
    if unknown:
        raise ConfigurationError(
            f"unknown failure-window fields: {sorted(unknown)}"
        )
    missing = {"kind", "sc", "start", "end"} - set(payload)
    if missing:
        raise ConfigurationError(
            f"failure window missing fields: {sorted(missing)}"
        )
    return FailureWindow(
        kind=str(payload["kind"]),
        sc=int(payload["sc"]),
        start=float(payload["start"]),
        end=float(payload["end"]),
        factor=float(payload.get("factor", 1.0)),
    )


def validate_schedule(windows: Sequence[FailureWindow], k: int) -> None:
    """Check a failure schedule against a federation of ``k`` SCs.

    Windows of the same kind on the same SC must not overlap (the
    simulator's end-of-window transition resets that SC's state for the
    kind exactly, which is only well-defined without overlap); different
    kinds may overlap freely (a limping SC can see a flash crowd).
    """
    for window in windows:
        if window.sc >= k:
            raise ConfigurationError(
                f"failure window targets SC {window.sc} in a {k}-SC federation"
            )
    by_key: dict[tuple[int, str], list[FailureWindow]] = {}
    for window in windows:
        by_key.setdefault((window.sc, window.kind), []).append(window)
    for (sc, kind), group in by_key.items():
        group = sorted(group, key=lambda w: w.start)
        for previous, current in zip(group, group[1:]):
            if current.start < previous.end:
                raise ConfigurationError(
                    f"overlapping {kind} windows on SC {sc}: "
                    f"[{previous.start}, {previous.end}) and "
                    f"[{current.start}, {current.end})"
                )


# --------------------------------------------------------------------- #
# welfare-under-failure sweep
# --------------------------------------------------------------------- #


def _sc_utilities(
    scenario: Any, metrics: Sequence[Any], gamma: float
) -> tuple[list[float], list[float]]:
    """Per-SC (utility, cost) from simulated metrics via Eq. (1)-(2)."""
    from repro.market.cost import baseline_cost, baseline_metrics, operating_cost
    from repro.market.utility import utility
    from repro.perf.params import PerformanceParams

    utilities: list[float] = []
    costs: list[float] = []
    for cloud, m in zip(scenario, metrics):
        params = PerformanceParams(
            lent_mean=max(m.lent_mean, 0.0),
            borrowed_mean=max(m.borrowed_mean, 0.0),
            forward_rate=max(m.forward_rate, 0.0),
            utilization=min(max(m.utilization, 0.0), 1.0),
        )
        cost = operating_cost(cloud, params)
        base = baseline_metrics(cloud)
        utilities.append(
            utility(baseline_cost(cloud), cost, base.utilization, params.utilization, gamma)
        )
        costs.append(cost)
    return utilities, costs


def failure_impact(
    spec: "ScenarioSpec",
    step_mode: str = "batched",
    horizon: float | None = None,
) -> dict[str, Any]:
    """Welfare and per-SC utility shift of one failure scenario.

    Runs the spec's federation twice under common random numbers — once
    healthy, once with ``spec.failures`` injected — and maps the
    simulated metrics through the paper's Eq. (1)-(3) chain.  The
    no-sharing/public-cloud baseline has zero utility for every SC by
    Eq. (2) (no sharing, no cost reduction), so ``welfare_failed > 0``
    is exactly "sharing still beats the public cloud under this
    failure".

    Raises:
        ConfigurationError: a window starts at or after the horizon, so
            the failed run would silently equal the healthy one.
    """
    from repro.market.fairness import welfare
    from repro.sim.federation import FederationSimulator

    scenario = spec.federation()
    span = float(horizon if horizon is not None else spec.run.horizon)
    late = [w for w in spec.failures if w.start >= span]
    if late:
        raise ConfigurationError(
            f"{spec.name}: failure window starting at {late[0].start} "
            f"never opens before horizon {span}"
        )
    warmup = span * 0.05
    healthy = FederationSimulator(
        scenario, seed=spec.run.seed, step_mode=step_mode
    ).run(horizon=span, warmup=warmup)
    failed = FederationSimulator(
        scenario, seed=spec.run.seed, step_mode=step_mode, failures=spec.failures
    ).run(horizon=span, warmup=warmup)
    gamma = spec.run.gamma
    shares = [cloud.shared_vms for cloud in scenario]
    utils_healthy, costs_healthy = _sc_utilities(scenario, healthy, gamma)
    utils_failed, costs_failed = _sc_utilities(scenario, failed, gamma)
    kinds = sorted({w.kind for w in spec.failures})
    return {
        "scenario": spec.name,
        "hash": spec.content_hash(),
        "kinds": kinds,
        "step_mode": step_mode,
        "horizon": span,
        "welfare_baseline": 0.0,
        "welfare_healthy": welfare(spec.run.alpha, shares, utils_healthy),
        "welfare_failed": welfare(spec.run.alpha, shares, utils_failed),
        "per_sc": [
            {
                "name": cloud.name,
                "utility_healthy": uh,
                "utility_failed": uf,
                "utility_shift": uf - uh,
                "cost_healthy": ch,
                "cost_failed": cf,
                "forward_probability_failed": m.forward_probability,
            }
            for cloud, uh, uf, ch, cf, m in zip(
                scenario, utils_healthy, utils_failed, costs_healthy, costs_failed, failed
            )
        ],
    }


def sweep(
    specs: "Iterable[ScenarioSpec] | None" = None,
    step_mode: str = "batched",
    horizon: float | None = None,
) -> dict[str, Any]:
    """Run :func:`failure_impact` over the failure-scenario library.

    Args:
        specs: scenarios to sweep; defaults to every library scenario
            with a non-empty failure schedule (the ``failure`` family).
        step_mode: simulator stepping mode for every run.
        horizon: optional horizon override (shared across scenarios).
    """
    from repro import obs

    if specs is None:
        from repro.scenarios.library import full_library

        specs = [spec for spec in full_library() if spec.failures]
    reports = []
    with obs.span("sim.failures.sweep"):
        for spec in specs:
            with obs.span("sim.failures.scenario", scenario=spec.name):
                reports.append(
                    failure_impact(spec, step_mode=step_mode, horizon=horizon)
                )
            obs.inc("sim.failures.scenarios")
    return {
        "format_version": FAILURES_FORMAT_VERSION,
        "step_mode": step_mode,
        "scenarios": reports,
    }


def _format_table(report: dict[str, Any]) -> str:
    lines = [
        f"{'scenario':<28} {'kinds':<22} {'W healthy':>12} {'W failed':>12} {'delta':>12}",
    ]
    for entry in report["scenarios"]:
        delta = entry["welfare_failed"] - entry["welfare_healthy"]
        lines.append(
            f"{entry['scenario']:<28} {'+'.join(entry['kinds']):<22} "
            f"{entry['welfare_healthy']:>12.4f} {entry['welfare_failed']:>12.4f} "
            f"{delta:>12.4f}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: welfare-under-failure sweep over the failure library."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.failures",
        description="Equilibrium welfare under injected SC failures.",
    )
    parser.add_argument(
        "--step-mode",
        default="batched",
        choices=STEP_MODES,
        help="simulator stepping mode (default: batched)",
    )
    parser.add_argument(
        "--horizon", type=float, default=None, help="override the specs' horizons"
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="limit to named library scenarios (repeatable)",
    )
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    options = parser.parse_args(argv)
    specs = None
    if options.scenario:
        from repro.scenarios.library import resolve

        specs = [resolve(name) for name in options.scenario]
        for spec in specs:
            if not spec.failures:
                raise SystemExit(f"scenario {spec.name!r} has no failure schedule")
    report = sweep(specs, step_mode=options.step_mode, horizon=options.horizon)
    print(_format_table(report))
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {options.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
