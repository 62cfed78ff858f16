"""Metrics registry: counters, gauges, and fixed-boundary histograms.

The registry is the write side; a :class:`MetricsSnapshot` is the read
side — a frozen, picklable, deterministically-ordered value that can be
merged with other snapshots.  Merging is the worker protocol: a task
shipped to a process executor records into its own scoped
registry (:class:`MetricsTask`), returns ``(result, snapshot)``, and the
caller merges the snapshots back through the executor's *ordered* map,
so the merged totals equal a serial run's totals exactly.

Merge semantics, chosen so merge is associative and commutative:

- counters add;
- gauges take the maximum (high-water semantics — the only per-scalar
  reduction that is order-independent);
- histograms add bucket counts and totals, take min/max of extrema, and
  require identical bucket boundaries.

Counter totals and histogram bucket counts are integers, so merged
values are exact regardless of grouping; histogram ``sum`` is a float
and exact only for integer-valued observations (the property tests use
those).
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro._validation import require

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricsTask",
    "current_registry",
    "scoped_registry",
]

#: Default histogram bucket upper bounds (seconds-flavored; callers
#: measuring other units pass their own).  A value lands in the first
#: bucket whose bound is >= the value; larger values land in the
#: overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen state of one histogram.

    ``counts`` has one entry per boundary plus a final overflow bucket;
    ``minimum``/``maximum`` are ``+inf``/``-inf`` when the histogram is
    empty (the identities of min/max, so empty merges are neutral).
    """

    boundaries: tuple[float, ...]
    counts: tuple[int, ...]
    total: int
    sum: float
    minimum: float
    maximum: float

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two histograms of identical boundaries."""
        require(
            self.boundaries == other.boundaries,
            "cannot merge histograms with different bucket boundaries",
        )
        return HistogramSnapshot(
            boundaries=self.boundaries,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            total=self.total + other.total,
            sum=self.sum + other.sum,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly rendering (empty extrema become ``None``)."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": None if self.total == 0 else self.minimum,
            "max": None if self.total == 0 else self.maximum,
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, picklable, mergeable view of one registry.

    Entries are sorted by name, so two snapshots with the same content
    compare (and pickle) identically regardless of recording order.
    """

    counters: tuple[tuple[str, int], ...]
    gauges: tuple[tuple[str, float], ...]
    histograms: tuple[tuple[str, HistogramSnapshot], ...]

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity."""
        return cls(counters=(), gauges=(), histograms=())

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots (associative and commutative)."""
        counters = dict(self.counters)
        for name, value in other.counters:
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, gauge in other.gauges:
            gauges[name] = max(gauges.get(name, gauge), gauge)
        histograms = dict(self.histograms)
        for name, hist in other.histograms:
            mine = histograms.get(name)
            histograms[name] = hist if mine is None else mine.merge(hist)
        return MetricsSnapshot(
            counters=tuple(sorted(counters.items())),
            gauges=tuple(sorted(gauges.items())),
            histograms=tuple(sorted(histograms.items())),
        )

    @classmethod
    def merge_all(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Fold ``snapshots`` left-to-right onto the empty snapshot."""
        merged = cls.empty()
        for snapshot in snapshots:
            merged = merged.merge(snapshot)
        return merged

    def counter_view(self) -> dict[str, int]:
        """The integer-exact, backend-independent slice of the snapshot.

        This is what the differential checker compares across executor
        backends: counters (and histogram bucket counts, which are also
        integers) are exact under any merge grouping, whereas wall-clock
        histogram contents legitimately differ run to run."""
        view = {name: value for name, value in self.counters}
        for name, hist in self.histograms:
            view[f"{name}.count"] = hist.total
        return view

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly rendering of the whole snapshot."""
        return {
            "counters": {name: value for name, value in self.counters},
            "gauges": {name: value for name, value in self.gauges},
            "histograms": {
                name: hist.to_dict() for name, hist in self.histograms
            },
        }


class _HistogramState:
    """Mutable accumulation state of one histogram (registry-internal)."""

    __slots__ = ("boundaries", "counts", "total", "sum", "minimum", "maximum")

    def __init__(self, boundaries: tuple[float, ...]) -> None:
        self.boundaries = boundaries
        self.counts = [0] * (len(boundaries) + 1)
        self.total = 0
        self.sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            boundaries=self.boundaries,
            counts=tuple(self.counts),
            total=self.total,
            sum=self.sum,
            minimum=self.minimum,
            maximum=self.maximum,
        )


class MetricsRegistry:
    """Thread-safe recording side of the metrics layer.

    All mutation happens under one internal lock; the hooks in
    :mod:`repro.obs` only reach a registry when instrumentation is
    enabled, so the lock is never taken on the disabled path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _HistogramState] = {}
        self._recordings = 0

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            self._recordings += 1

    def gauge(self, name: str, value: float) -> None:
        """Record the gauge ``name`` (merge semantics: maximum)."""
        with self._lock:
            current = self._gauges.get(name)
            self._gauges[name] = (
                value if current is None else max(current, value)
            )
            self._recordings += 1

    def observe(
        self,
        name: str,
        value: float,
        boundaries: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            state = self._histograms.get(name)
            if state is None:
                state = _HistogramState(boundaries)
                self._histograms[name] = state
            else:
                require(
                    state.boundaries == boundaries,
                    f"histogram {name!r} already exists with different "
                    "bucket boundaries",
                )
            state.observe(value)
            self._recordings += 1

    def recordings(self) -> int:
        """Number of recording calls served (the hook-crossing count the
        overhead benchmark uses to price the disabled path)."""
        with self._lock:
            return self._recordings

    def snapshot(self) -> MetricsSnapshot:
        """A consistent frozen view (taken under the lock)."""
        with self._lock:
            return MetricsSnapshot(
                counters=tuple(sorted(self._counters.items())),
                gauges=tuple(sorted(self._gauges.items())),
                histograms=tuple(
                    sorted(
                        (name, state.snapshot())
                        for name, state in self._histograms.items()
                    )
                ),
            )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's snapshot into this registry.

        Counter totals and histogram counts end up exactly equal to a
        serial run that had recorded the same events directly."""
        with self._lock:
            for name, value in snapshot.counters:
                self._counters[name] = self._counters.get(name, 0) + value
            for name, gauge in snapshot.gauges:
                current = self._gauges.get(name)
                self._gauges[name] = (
                    gauge if current is None else max(current, gauge)
                )
            for name, hist in snapshot.histograms:
                state = self._histograms.get(name)
                if state is None:
                    state = _HistogramState(hist.boundaries)
                    self._histograms[name] = state
                require(
                    state.boundaries == hist.boundaries,
                    f"histogram {name!r} merge with different boundaries",
                )
                for i, count in enumerate(hist.counts):
                    state.counts[i] += count
                state.total += hist.total
                state.sum += hist.sum
                state.minimum = min(state.minimum, hist.minimum)
                state.maximum = max(state.maximum, hist.maximum)

    # -- pickling: ship configuration, not contents -------------------- #
    #
    # Registries hold a lock and live accumulation state; what crosses
    # process boundaries is the *snapshot*.  A pickled registry arrives
    # empty (same contract as LRUCache).

    def __getstate__(self) -> dict[str, Any]:
        return {}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._recordings = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})"
            )


# --------------------------------------------------------------------- #
# ambient registry: one installed default, thread-local scoping
# --------------------------------------------------------------------- #

_installed: MetricsRegistry = MetricsRegistry()

_scope_local = threading.local()


def _scope_stack() -> list[MetricsRegistry]:
    stack: list[MetricsRegistry] | None = getattr(_scope_local, "stack", None)
    if stack is None:
        stack = []
        _scope_local.stack = stack
    return stack


def current_registry() -> MetricsRegistry:
    """The registry hooks record into: the innermost scoped registry on
    this thread, else the installed default."""
    stack = _scope_stack()
    return stack[-1] if stack else _installed


def install_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the installed default registry; returns the previous one.

    Used by :func:`repro.obs.capture` (single-writer: the driver thread
    swaps around a with-block; worker processes never call this — the
    executor bootstrap gives them their own fresh module state).
    """
    global _installed
    previous = _installed
    _installed = registry
    return previous


@contextmanager
def scoped_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route this thread's recordings to ``registry`` inside the block."""
    stack = _scope_stack()
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()


class MetricsTask:
    """Picklable task wrapper implementing the worker merge protocol.

    Wraps ``fn`` so each item runs under a fresh scoped registry and
    returns ``(result, snapshot)``; the caller
    (:meth:`repro.runtime.executor.ProcessExecutor.map`) merges the
    snapshots back in input order.  ``fn`` must itself be picklable for process pools —
    the same constraint the executor already imposes.
    """

    def __init__(self, fn: Any) -> None:
        require(callable(fn), "MetricsTask wraps a callable")
        self.fn = fn

    def __call__(self, item: Any) -> tuple[Any, MetricsSnapshot]:
        registry = MetricsRegistry()
        with scoped_registry(registry):
            result = self.fn(item)
        return result, registry.snapshot()
