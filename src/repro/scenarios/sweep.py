"""Fan a scenario subset across executor backends, bit-identically.

The runtime's determinism contract says parallelism is a wall-clock
knob, never a semantics knob.  The sweep runner spends that contract on
the scenario library: each selected scenario's market run is replayed
under the serial and the process executor, every outcome is digested
with ``float.hex`` (no tolerance), and a single mismatched bit anywhere
fails the sweep.  CI runs a seeded 4-scenario smoke through this module;
``python -m repro.scenarios sweep`` exposes the full surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._validation import check_positive_int, require
from repro.scenarios.runner import (
    observables_digest,
    outcome_observables,
    solve_spec,
)
from repro.scenarios.schema import ScenarioSpec

DEFAULT_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class SweepRow:
    """One scenario's cross-backend result."""

    name: str
    family: str
    k: int
    digests: dict[str, str]
    welfare: float
    equilibrium: tuple[int, ...]
    iterations: int

    @property
    def identical(self) -> bool:
        """Whether every backend produced the same bitwise digest."""
        return len(set(self.digests.values())) == 1

    def __post_init__(self) -> None:
        require(bool(self.digests), "a sweep row needs at least one backend digest")


#: Federations larger than this never enter the smoke subset: a full
#: market game's cost scales with K as well as with VM counts, so a
#: 3-VM/50-SC scenario is far more expensive than any small federation
#: the VM-first sort would rank behind it.
_SMOKE_MAX_K = 10


def smoke_subset(
    specs: tuple[ScenarioSpec, ...] | list[ScenarioSpec], count: int = 4
) -> list[ScenarioSpec]:
    """The ``count`` cheapest scenarios, picked deterministically.

    Sorting by (largest SC, federation size, name) keeps the smoke run
    inside a CI budget regardless of what the generator drew.
    Federations beyond ``_SMOKE_MAX_K`` SCs (the ``largek`` family) sort
    behind every small one regardless of VM count — their scale
    coverage lives in the non-blocking ``kscale-smoke`` CI job, not the
    bitwise smoke sweep.
    """
    check_positive_int(count, "count")
    ordered = sorted(
        specs,
        key=lambda s: (
            len(s.clouds) > _SMOKE_MAX_K,
            max(c.vms for c in s.clouds),
            len(s.clouds),
            s.name,
        ),
    )
    return ordered[:count]


def sweep_scenarios(
    specs: list[ScenarioSpec],
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    workers: int = 2,
    cache_dir: str | None = None,
) -> list[SweepRow]:
    """Run each scenario under every backend; digest each run bitwise."""
    require(bool(specs), "sweep needs at least one scenario")
    require(bool(backends), "sweep needs at least one backend")
    unknown = sorted(set(backends) - set(DEFAULT_BACKENDS))
    require(not unknown, f"unknown sweep backend(s) {unknown}; known: {DEFAULT_BACKENDS}")
    rows = []
    for spec in specs:
        digests: dict[str, str] = {}
        welfare = 0.0
        equilibrium: tuple[int, ...] = ()
        iterations = 0
        for backend in backends:
            outcome = solve_spec(
                spec,
                workers=1 if backend == "serial" else workers,
                cache_dir=cache_dir,
            )
            digests[backend] = observables_digest(outcome_observables(outcome))
            welfare = outcome.welfare
            equilibrium = outcome.equilibrium
            iterations = outcome.game.iterations
        rows.append(
            SweepRow(
                name=spec.name,
                family=spec.family,
                k=len(spec.clouds),
                digests=digests,
                welfare=welfare,
                equilibrium=equilibrium,
                iterations=iterations,
            )
        )
    return rows


def render(rows: list[SweepRow]) -> str:
    """A fixed-width table of the sweep results."""
    header = f"{'scenario':<18} {'family':<10} {'K':>2} {'iters':>5} {'welfare':>12} {'bit-identical':>13}  digest"
    lines = [header, "-" * len(header)]
    for row in rows:
        reference = next(iter(row.digests.values()))
        lines.append(
            f"{row.name:<18} {row.family:<10} {row.k:>2} {row.iterations:>5} "
            f"{row.welfare:>12.6g} {str(row.identical):>13}  {reference[:16]}"
        )
    return "\n".join(lines)


def report_dict(rows: list[SweepRow], backends: tuple[str, ...], workers: int) -> dict[str, Any]:
    """JSON-able sweep report (the CI artifact)."""
    return {
        "format_version": 1,
        "backends": list(backends),
        "workers": workers,
        "all_identical": all(row.identical for row in rows),
        "rows": [
            {
                "name": row.name,
                "family": row.family,
                "k": row.k,
                "iterations": row.iterations,
                "welfare": float(row.welfare).hex(),
                "equilibrium": list(row.equilibrium),
                "identical": row.identical,
                "digests": dict(row.digests),
            }
            for row in rows
        ],
    }


def write_report(
    rows: list[SweepRow],
    backends: tuple[str, ...],
    workers: int,
    output_dir: str | Path,
) -> Path:
    """Write the table and the JSON report into ``output_dir``."""
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "sweep.txt").write_text(render(rows) + "\n")
    path = directory / "sweep.json"
    path.write_text(
        json.dumps(report_dict(rows, backends, workers), indent=2, sort_keys=True) + "\n"
    )
    return path
