"""Declarative scenario subsystem: schema, generated library, sweeps.

- :mod:`repro.scenarios.schema` — versioned frozen-dataclass schema with
  byte-stable JSON round-tripping and strict
  :class:`~repro.analysis.sanitize.InvariantViolation` validation.
- :mod:`repro.scenarios.generator` — deterministic (SeedSequence-driven)
  generator of the 120-scenario corpus, content-hashed per scenario with
  a stable library digest.
- :mod:`repro.scenarios.library` — the registry: paper-figure scenarios
  plus the generated corpus, name resolution, committed-manifest checks.
- :mod:`repro.scenarios.runner` — drive one scenario (solve/simulate)
  under its declared run config, optionally behind the persistent model
  cache; the one spec -> simulator wiring.
- :mod:`repro.scenarios.sweep` — run scenario subsets serially and on a
  process pool with bitwise-identical results asserted.
- :mod:`repro.scenarios.cli` — ``python -m repro.scenarios``
  list/validate/show/run/generate/sweep.
"""

from repro.scenarios.generator import (
    DEFAULT_SEED,
    generate_library,
    library_digest,
    library_manifest,
)
from repro.scenarios.library import (
    MANIFEST_PATH,
    check_manifest,
    committed_manifest,
    figure_scenarios,
    full_library,
    library_index,
    resolve,
    spec_from_federation,
)
from repro.scenarios.schema import (
    SCHEMA_VERSION,
    RunConfig,
    ScenarioSpec,
    load_spec,
    save_spec,
    spec_from_dict,
)

__all__ = [
    "DEFAULT_SEED",
    "MANIFEST_PATH",
    "RunConfig",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "check_manifest",
    "committed_manifest",
    "figure_scenarios",
    "full_library",
    "generate_library",
    "library_digest",
    "library_index",
    "library_manifest",
    "load_spec",
    "resolve",
    "save_spec",
    "spec_from_dict",
    "spec_from_federation",
]
