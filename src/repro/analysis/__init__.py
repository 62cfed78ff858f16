"""Static analysis and runtime invariant checking for the SC-Share pipeline.

The reproduction's correctness rests on numerical invariants that are
easy to violate silently — CTMC generator rows summing to zero,
probability vectors being valid distributions, Fox–Glynn windows
normalizing, utilities staying finite.  This package makes those
invariants mechanical:

- :mod:`repro.analysis.lint` — an AST checker with domain-specific
  rules (unseeded randomness, float equality on probabilities, mutation
  of frozen configuration objects, unvalidated public entry points,
  nondeterministic cache keys), plus the concurrency rules of
  :mod:`repro.analysis.concurrency` (lock discipline over
  ``# guarded-by:`` attributes, check-then-act, lock ordering, pickle
  hooks for sync state, module-level mutable state).  Each rule has a
  stable ``RPRxxx`` code and a ``# repro: noqa[CODE]`` escape hatch.
- :mod:`repro.analysis.dataflow` — an interprocedural dataflow/taint
  checker built on :mod:`repro.analysis.summaries`: cache-key omission
  against ``# fingerprint-input:`` declarations, unordered-iteration
  order feeding float sums or digests, environment/thread taint
  reaching fingerprints and persisted payloads, post-fingerprint
  mutation, and unversioned payload formats (RPR301–RPR306).  Its
  mutation self-test seeds fingerprint-omission mutants and demands
  100% RPR301 recall.
- :mod:`repro.analysis.sanitize` — a runtime "stochastic sanitizer":
  debug-mode contracts over generators, distributions, interaction
  vectors, performance parameters, and cache payloads, enabled with
  ``REPRO_SANITIZE=1`` (or ``--sanitize`` on the CLIs) and raising
  structured :class:`~repro.analysis.sanitize.InvariantViolation`
  errors with the offending state attached.
- :mod:`repro.analysis.race` — a dynamic race harness
  (``python -m repro.analysis.race --quick``): seeded serialized
  schedules checked against a serial-replay oracle, plus barrier storms
  over the runtime's single-flight paths.
- :mod:`repro.analysis.differential` — a cross-backend differential
  checker (``python -m repro.analysis.differential --scenario quick``)
  asserting bitwise-identical game results across
  serial/thread/process execution and caching variants.

``python -m repro.analysis check`` is the one command line over both
static rule families (RPR1xx/RPR2xx/RPR3xx): one pass with a shared
``--select``, a common JSON report format, and ``--self-test`` for the
RPR301 recall run (see :mod:`repro.analysis.__main__`).

All layers are dependency-free (stdlib ``ast``/``threading`` plus
numpy) and cheap when disabled: every sanitizer hook is guarded by one
module-level boolean read.
"""

from repro.analysis.sanitize import (
    InvariantViolation,
    sanitize_disable,
    sanitize_enable,
    sanitize_enabled,
    sanitized,
)

__all__ = [
    "InvariantViolation",
    "sanitize_disable",
    "sanitize_enable",
    "sanitize_enabled",
    "sanitized",
]
