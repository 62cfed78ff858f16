"""Parallel evaluation runtime and persistent model cache.

The hot loops of the reproduction — approximate-model target rotation,
best-response candidate scoring, simulation replications — are all
embarrassingly parallel over independent deterministic tasks.  This
package supplies the shared machinery:

- :mod:`repro.runtime.executor` — ``SerialExecutor`` / ``ProcessExecutor``
  behind one ``map`` interface with chunking and worker-metrics merging;
  a process batch that cannot be pickled raises instead of running in
  the parent;
- :mod:`repro.runtime.seeding` — deterministic per-task seed derivation
  built on the same ``SeedSequence`` discipline as :mod:`repro.sim.rng`;
- :mod:`repro.runtime.cache` — a persistent on-disk cache of model
  solutions (content-hash keys over the performance-relevant scenario
  fields) that wraps any :class:`~repro.perf.base.PerformanceModel`;
- :mod:`repro.runtime.memo` — a bounded in-memory ``LRUCache``
  for expensive intermediates (the approximate model's level-prefix
  cache).

Everything is engineered so that parallel and cached runs are
*bit-identical* to serial uncached runs: executors preserve input order,
tasks derive independent seeds deterministically, and caches store the
exact float values a fresh solve would produce.
"""

from repro.runtime.cache import (
    CachedModel,
    DiskCache,
    model_fingerprint,
    scenario_fingerprint,
)
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runtime.memo import LRUCache
from repro.runtime.seeding import derive_seed, derive_seeds, derive_streams, replication_seeds

__all__ = [
    "CachedModel",
    "DiskCache",
    "Executor",
    "LRUCache",
    "ProcessExecutor",
    "SerialExecutor",
    "derive_seed",
    "derive_seeds",
    "derive_streams",
    "make_executor",
    "model_fingerprint",
    "replication_seeds",
    "scenario_fingerprint",
]
