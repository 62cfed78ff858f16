"""In-memory LRU memoization tier.

The disk cache (:mod:`repro.runtime.cache`) persists *finished* model
solutions across processes; this module supplies the layer underneath
it: a bounded, in-memory LRU for expensive intermediate objects that
are pure functions of a content key but too large or too short-lived
to serialize.  The first consumer is the approximate model's
level-prefix cache (:mod:`repro.perf.approximate`), which memoizes
solved hierarchy levels keyed by the ordered prefix of
``(cloud spec, pool)`` pairs.

Design constraints inherited from the runtime package:

- **One owner per process** — the only parallel backend is a process
  pool, so a cache is never shared between concurrent callers and
  needs no lock: a ``get`` then ``put`` is a plain look-up-then-build.
- **Process-pool friendliness** — executors pickle models into task
  payloads.  A cache full of sparse matrices is expensive to ship, so
  pickling an :class:`LRUCache` deliberately transfers only its
  configuration: workers start cold and warm up locally.
- **Determinism** — the cache stores exactly the object the factory
  produced; a hit returns the same floats a cold rebuild would, so
  cached and uncached runs are bit-identical.
- **Key soundness** — entries are only as correct as the keys callers
  build.  Every key must be a pure function of content:
  ``tests/runtime/test_fingerprint_soundness.py`` perturbs every
  ``SmallCloud`` field and model setting and demands that a change of
  output is a change of key; extend it before trusting a new key shape.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any, Generic, TypeVar

from repro import obs
from repro._validation import require

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping with least-recently-used eviction.

    Args:
        maxsize: capacity in entries (at least 1).
        name: optional metric namespace.  A named cache reports
            ``<name>.hit`` / ``<name>.miss`` / ``<name>.eviction``
            counters through :mod:`repro.obs` (no-ops unless metrics are
            enabled); unnamed caches pay one ``None`` check per
            operation and emit nothing.

    Attributes:
        hits: successful lookups so far.
        misses: failed lookups so far.
    """

    def __init__(self, maxsize: int = 128, name: str | None = None) -> None:
        require(int(maxsize) >= 1, "LRUCache maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self.name = name
        # Metric names are precomputed so the per-operation cost of an
        # enabled-metrics run is one counter add, not a string build.
        self._metric_hit = f"{name}.hit" if name else None
        self._metric_miss = f"{name}.miss" if name else None
        self._metric_eviction = f"{name}.eviction" if name else None
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K) -> V | None:
        """Return the cached value for ``key`` (refreshing its recency)
        or ``None`` on a miss."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            if self._metric_hit is not None:
                obs.inc(self._metric_hit)
            return self._data[key]
        self.misses += 1
        if self._metric_miss is not None:
            obs.inc(self._metric_miss)
        return None

    def put(self, key: K, value: V) -> None:
        """Insert ``value`` under ``key``, evicting the least recently
        used entry if the cache is full."""
        self._data[key] = value
        self._data.move_to_end(key)
        evicted = 0
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            evicted += 1
        if evicted and self._metric_eviction is not None:
            obs.inc(self._metric_eviction, evicted)

    def ensure_capacity(self, minsize: int) -> None:
        """Grow ``maxsize`` to at least ``minsize`` (monotone; never
        shrinks).

        The approximate model sizes its level-prefix cache this way: one
        federation of ``K`` SCs needs ``K`` live entries per chain and a
        Tabu neighborhood several chains' worth, so a fixed capacity
        that is generous at ``K=10`` thrashes at ``K=50``.  Growing is
        always safe — capacity never affects which value a key maps to,
        only how long it is retained."""
        minsize = int(minsize)
        require(minsize >= 1, "ensure_capacity minsize must be >= 1")
        self.maxsize = max(self.maxsize, minsize)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._data.clear()

    def stats(self) -> dict[str, int]:
        """A snapshot of the cache counters (for logs and benchmarks)."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
        }

    # -- pickling: ship configuration, not contents -------------------- #

    def __getstate__(self) -> dict[str, Any]:
        return {"maxsize": self.maxsize, "name": self.name}

    def __setstate__(self, state: dict[str, Any]) -> None:
        LRUCache.__init__(self, state["maxsize"], state.get("name"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRUCache(size={len(self)}, maxsize={self.maxsize})"
