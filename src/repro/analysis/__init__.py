"""Static analysis and runtime invariant checking for the SC-Share pipeline.

The reproduction's correctness rests on numerical invariants that are
easy to violate silently — CTMC generator rows summing to zero,
probability vectors being valid distributions, Fox–Glynn windows
normalizing, utilities staying finite.  This package makes those
invariants mechanical:

- :mod:`repro.analysis.lint` — an AST checker with domain-specific
  rules (unseeded randomness, float equality on probabilities, mutation
  of frozen configuration objects, unvalidated public entry points,
  nondeterministic cache keys).  Each rule has a stable ``RPRxxx`` code
  and a ``# repro: noqa[CODE]`` escape hatch.
- :mod:`repro.analysis.sanitize` — a runtime "stochastic sanitizer":
  debug-mode contracts over generators, distributions, interaction
  vectors, performance parameters, and cache payloads, enabled with
  ``REPRO_SANITIZE=1`` (or ``--sanitize`` on the CLIs) and raising
  structured :class:`~repro.analysis.sanitize.InvariantViolation`
  errors with the offending state attached.
- :mod:`repro.analysis.differential` — a cross-backend differential
  checker (``python -m repro.analysis.differential --scenario quick``)
  asserting bitwise-identical game results across
  serial/process execution and caching variants.

``python -m repro.analysis check`` runs the RPR1xx lint (see
:mod:`repro.analysis.__main__`).  Cache-key soundness is checked at run
time instead: ``tests/runtime/test_fingerprint_soundness.py`` perturbs
every scenario field and model setting and demands that each change of
output changes the cache key.

All layers are dependency-free (stdlib ``ast`` plus numpy) and cheap when disabled: every sanitizer hook is guarded by one
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
