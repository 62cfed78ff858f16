"""Versioned, validated scenario schema (frozen dataclasses + JSON).

A :class:`ScenarioSpec` is the declarative unit every later experiment
points at: the federation's SC entities (sizes, SLAs, prices), one
:class:`~repro.workload.profiles.DemandProfile` per SC (Poisson or MMPP
arrivals, exponential/Erlang/hyperexponential/PH-fitted service), and a
:class:`RunConfig` (seed, model, game knobs).  Specs
round-trip through canonical JSON byte-stably, carry an explicit
``schema_version``, and are content-hashed so a scenario library has a
stable digest.

Strict validation routes through the existing
:class:`~repro.analysis.sanitize.InvariantViolation` machinery: every
rejection raises a violation whose ``invariant`` names the broken
contract (``scenario-schema``, ``scenario-schema-version``,
``scenario-demand-consistency``) and whose ``context`` carries the
offending values — the same post-mortem shape the runtime sanitizer
produces.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.sanitize import InvariantViolation
from repro.core.serialization import cloud_from_dict, cloud_to_dict
from repro.core.small_cloud import FederationScenario, SmallCloud
from repro.exceptions import ConfigurationError
from repro.sim.failures import FailureWindow, validate_schedule, window_from_dict
from repro.workload.profiles import DemandProfile

#: Bump on any layout change; loaders reject other versions loudly.
#: Version 2 dropped ``run.backend`` and ``run.workers``: how wide a run
#: fans out is the caller's choice, not scenario content.
SCHEMA_VERSION = 2

#: Performance models a run config may name: the fixed-point
#: :class:`~repro.perf.pooled.PooledModel` and the paper's hierarchical
#: :class:`~repro.perf.approximate.ApproximateModel`.  The CLI's
#: ``--model`` offers exactly these, and
#: :func:`repro.scenarios.runner.make_model` builds each.
MODELS = ("pooled", "approximate")

#: Relative tolerance for demand-profile vs. SC rate consistency.
_RATE_TOLERANCE = 1e-6

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9_.-]*$")

_RUN_FIELDS = (
    "seed",
    "model",
    "gamma",
    "alpha",
    "strategy_step",
    "horizon",
)

_SPEC_FIELDS = (
    "schema_version",
    "name",
    "family",
    "description",
    "clouds",
    "demand",
    "run",
    "failures",
)


def _reject(invariant: str, message: str, context: dict[str, Any]) -> InvariantViolation:
    return InvariantViolation(invariant, message, context)


@dataclass(frozen=True)
class RunConfig:
    """How a scenario is played: determinism, model, game knobs.

    Parallel width is not part of a scenario: every width gives the same
    bits, so callers pick it (``solve_spec(spec, workers=...)``).

    Attributes:
        seed: master seed for the simulator / any stochastic component.
        model: performance model (``pooled`` / ``approximate`` /
            ``auto``).
        gamma: Eq. (2) utility exponent shared by all SCs.
        alpha: fairness level used for welfare scoring.
        strategy_step: sharing-grid step for the strategy spaces.
        horizon: simulation horizon (time units) for ``simulate`` runs.
    """

    seed: int = 0
    model: str = "pooled"
    gamma: float = 0.0
    alpha: float = 0.0
    strategy_step: int = 1
    horizon: float = 2_000.0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise _reject(
                "scenario-schema", "seed must be a non-negative integer", {"seed": self.seed}
            )
        if self.model not in MODELS:
            raise _reject(
                "scenario-schema", f"model must be one of {MODELS}", {"model": self.model}
            )
        if not 0.0 <= float(self.gamma) <= 1.0:
            raise _reject(
                "scenario-schema", "gamma must be in [0, 1]", {"gamma": self.gamma}
            )
        # ``not >=`` rejects NaN; inf stays legal (the paper's alpha=inf).
        if not float(self.alpha) >= 0.0:
            raise _reject(
                "scenario-schema", "alpha must be >= 0", {"alpha": self.alpha}
            )
        if (
            not isinstance(self.strategy_step, int)
            or isinstance(self.strategy_step, bool)
            or self.strategy_step < 1
        ):
            raise _reject(
                "scenario-schema",
                "strategy_step must be a positive integer",
                {"strategy_step": self.strategy_step},
            )
        if not float(self.horizon) > 0.0:
            raise _reject(
                "scenario-schema", "horizon must be > 0", {"horizon": self.horizon}
            )

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return {name: getattr(self, name) for name in _RUN_FIELDS}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "RunConfig":
        """Deserialize; unknown keys are rejected loudly."""
        unknown = set(data) - set(_RUN_FIELDS)
        if unknown:
            raise _reject(
                "scenario-schema",
                f"unknown run-config fields: {sorted(unknown)}",
                {"unknown": sorted(unknown)},
            )
        return RunConfig(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, versioned, validated scenario.

    Attributes:
        name: stable identifier (lowercase, ``[a-z0-9_.-]``) — the key
            callers use to pick a scenario out of the library.
        family: coarse grouping tag (``paper``, ``hetero``, ``price``,
            ``diurnal``, ``bursty``, ``heavytail``, ``mixed`` ...).
        description: one human-readable sentence.
        clouds: the federation's SC entities, in order.
        demand: one demand profile per SC, aligned with ``clouds``.
        run: execution configuration.
        failures: optional failure-injection schedule (see
            :mod:`repro.sim.failures`).  Serialized only when non-empty,
            so failure-free scenarios keep their pre-existing content
            hashes.
        schema_version: layout version; must equal :data:`SCHEMA_VERSION`.
    """

    name: str
    clouds: tuple[SmallCloud, ...]
    family: str = "custom"
    description: str = ""
    demand: tuple[DemandProfile, ...] = ()
    run: RunConfig = field(default_factory=RunConfig)
    failures: tuple[FailureWindow, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise _reject(
                "scenario-schema-version",
                f"unknown schema version {self.schema_version} "
                f"(this build reads version {SCHEMA_VERSION})",
                {"schema_version": self.schema_version, "supported": SCHEMA_VERSION},
            )
        if not isinstance(self.name, str) or not _NAME_PATTERN.match(self.name):
            raise _reject(
                "scenario-schema",
                "name must be lowercase [a-z0-9_.-] and non-empty",
                {"name": self.name},
            )
        if not isinstance(self.family, str) or not _NAME_PATTERN.match(self.family):
            raise _reject(
                "scenario-schema",
                "family must be lowercase [a-z0-9_.-] and non-empty",
                {"family": self.family},
            )
        clouds = tuple(self.clouds)
        object.__setattr__(self, "clouds", clouds)
        if not clouds:
            raise _reject("scenario-schema", "a scenario needs at least one SC", {})
        demand = tuple(self.demand)
        if not demand:
            demand = tuple(DemandProfile() for _ in clouds)
        object.__setattr__(self, "demand", demand)
        if len(demand) != len(clouds):
            raise _reject(
                "scenario-schema",
                f"demand has {len(demand)} profiles for {len(clouds)} SCs",
                {"demand": len(demand), "clouds": len(clouds)},
            )
        # Duplicate-name rejection comes with FederationScenario itself.
        try:
            FederationScenario(clouds)
        except ConfigurationError as error:
            raise _reject("scenario-schema", str(error), {"name": self.name}) from error
        failures = tuple(self.failures)
        object.__setattr__(self, "failures", failures)
        if failures:
            try:
                validate_schedule(failures, len(clouds))
                for window in failures:
                    if window.end > float(self.run.horizon):
                        raise ConfigurationError(
                            f"failure window ends at {window.end}, past the "
                            f"run horizon {self.run.horizon}"
                        )
            except ConfigurationError as error:
                raise _reject(
                    "scenario-failure-schedule", str(error), {"name": self.name}
                ) from error
        self._check_demand_consistency()

    def _check_demand_consistency(self) -> None:
        """Demand profiles must agree with the SCs' analytic rates.

        The analytic models read ``arrival_rate``/``service_rate`` off the
        SC; the simulator draws from the demand profile.  Both views must
        describe the same long-run load, or the scenario would silently
        mean two different things depending on the driver.
        """
        for i, (cloud, profile) in enumerate(zip(self.clouds, self.demand)):
            mean_rate = profile.arrival.mean_rate(cloud.arrival_rate)
            if abs(mean_rate - cloud.arrival_rate) > _RATE_TOLERANCE * cloud.arrival_rate:
                raise _reject(
                    "scenario-demand-consistency",
                    f"SC {cloud.name!r}: demand mean arrival rate {mean_rate} "
                    f"!= arrival_rate {cloud.arrival_rate}",
                    {"index": i, "mean_rate": mean_rate, "arrival_rate": cloud.arrival_rate},
                )
            mean_service = profile.service.mean(cloud.service_rate)
            expected = 1.0 / cloud.service_rate
            if abs(mean_service - expected) > _RATE_TOLERANCE * expected:
                raise _reject(
                    "scenario-demand-consistency",
                    f"SC {cloud.name!r}: demand mean service time {mean_service} "
                    f"!= 1/service_rate {expected}",
                    {"index": i, "mean_service": mean_service, "expected": expected},
                )

    def federation(self) -> FederationScenario:
        """The plain :class:`FederationScenario` the models consume."""
        return FederationScenario(self.clouds)

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary.

        The ``failures`` key appears only when the schedule is non-empty:
        failure-free scenarios serialize exactly as they did before the
        field existed, keeping the library's content hashes stable.
        """
        data = {
            "schema_version": self.schema_version,
            "name": self.name,
            "family": self.family,
            "description": self.description,
            "clouds": [cloud_to_dict(c) for c in self.clouds],
            "demand": [p.to_dict() for p in self.demand],
            "run": self.run.to_dict(),
        }
        if self.failures:
            data["failures"] = [w.to_dict() for w in self.failures]
        return data

    def canonical_json(self) -> str:
        """Canonical byte-stable JSON rendering (sorted keys, no spaces)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """sha256 of the canonical JSON — the scenario's content identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def spec_from_dict(data: dict[str, Any]) -> ScenarioSpec:
    """Deserialize a :class:`ScenarioSpec`; every problem raises a violation."""
    if not isinstance(data, dict):
        raise _reject(
            "scenario-schema", f"scenario must be an object, got {type(data).__name__}", {}
        )
    unknown = set(data) - set(_SPEC_FIELDS)
    if unknown:
        raise _reject(
            "scenario-schema",
            f"unknown scenario fields: {sorted(unknown)}",
            {"unknown": sorted(unknown)},
        )
    for required in ("name", "clouds"):
        if required not in data:
            raise _reject(
                "scenario-schema", f"scenario needs a {required!r} field", {"missing": required}
            )
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise _reject(
            "scenario-schema-version",
            f"unknown schema version {version} (this build reads version {SCHEMA_VERSION})",
            {"schema_version": version, "supported": SCHEMA_VERSION},
        )
    try:
        clouds = tuple(cloud_from_dict(c) for c in data["clouds"])
        demand = tuple(DemandProfile.from_dict(p) for p in data.get("demand", ()))
        failures = tuple(window_from_dict(w) for w in data.get("failures", ()))
    except ConfigurationError as error:
        # SmallCloud / profile / failure-window constructors reject bad
        # SLAs, negative rates, unknown fields ... with
        # ConfigurationError; re-route through the invariant machinery so
        # schema rejection has one uniform shape.
        raise _reject("scenario-schema", str(error), {"name": data.get("name")}) from error
    return ScenarioSpec(
        schema_version=version,
        name=data["name"],
        family=data.get("family", "custom"),
        description=data.get("description", ""),
        clouds=clouds,
        demand=demand,
        run=RunConfig.from_dict(data.get("run", {})),
        failures=failures,
    )


def save_spec(spec: ScenarioSpec, path: str | Path) -> None:
    """Write a spec to a JSON file (canonical form plus trailing newline)."""
    Path(path).write_text(spec.canonical_json() + "\n")


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read and validate a spec from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as error:
        raise _reject(
            "scenario-schema", f"{path}: unreadable ({error})", {"path": str(path)}
        ) from error
    except json.JSONDecodeError as error:
        raise _reject(
            "scenario-schema", f"{path}: not valid JSON ({error})", {"path": str(path)}
        ) from error
    return spec_from_dict(data)
